// Real-time tracking: the DSE follows a moving operating point across a
// morning load ramp, one cycle per SCADA frame — the paper's operational
// setting ("State estimation needs to be run ... in real time to support
// timely data updates", §VI), with the weight model re-mapping subsystems
// as frame noise changes.
//
//   $ ./examples/timeseries_tracking [num_frames]
#include <cmath>
#include <cstdio>
#include <limits>

#include "core/architecture.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace gridse;
  int frames = 8;
  if (argc > 1) {
    try {
      frames = static_cast<int>(
          parse_integer("num_frames", argv[1], "a positive integer", 1,
                        std::numeric_limits<int>::max()));
    } catch (const InvalidInput& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  core::SystemConfig config;
  config.mapping.num_clusters = 3;
  // A morning ramp: system load rises 20% over the window, with a little
  // inter-frame wobble.
  config.load_profile = [](double t) {
    return 1.0 + 0.20 * (t / 1800.0) + 0.01 * std::sin(t / 40.0);
  };

  core::DseSystem system(io::ieee118_dse(), config);
  std::printf("frame |  t (s) | load  | noise x | imbal | moved | bytes | "
              "max |V| err | tracking\n");
  double prev_theta1 = 0.0;
  for (int f = 0; f < frames; ++f) {
    const double t = f * 210.0;  // one frame per SCADA refresh window
    const core::CycleReport rep = system.run_cycle(t);
    const double theta1 = system.true_state().theta[60];  // a mid-system bus
    std::printf("%5d | %6.0f | %.3f |  %.3f  | %.3f |   %zu   | %5zu |  "
                "%.2e  | bus-61 angle %+.4f rad (moved %+.4f)\n",
                f + 1, t, config.load_profile(t), rep.map_step1.noise_level,
                rep.map_step1.partition.load_imbalance,
                rep.redistribution.moves.size(), rep.dse.bytes_sent,
                rep.max_vm_error, theta1, theta1 - prev_theta1);
    prev_theta1 = theta1;
    if (!rep.dse.all_converged) {
      std::printf("frame %d DID NOT CONVERGE\n", f + 1);
      return 1;
    }
  }
  std::printf("\nThe estimator tracked a %0.f%% load ramp across %d frames "
              "with per-frame re-mapping.\n",
              20.0, frames);
  return 0;
}
