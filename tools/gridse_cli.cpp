// gridse_cli — command-line front end for the GridSE library.
//
//   gridse_cli info <case>
//   gridse_cli se <case> [--noise X] [--seed N]
//   gridse_cli dse <builtin-case> [--clusters K] [--transport T] [--cycles N]
//                  [--rounds R] [--decomp FILE]
//   gridse_cli partition <builtin-case> [--clusters K]
//
// <case> is a case-file path or a builtin name: ieee14, ieee118, wecc37.
// dse/partition need the builtin cases (they carry a decomposition).
// A flag the command does not read is an error, never silently ignored.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <string>

#include "core/architecture.hpp"
#include "decomp/sensitivity.hpp"
#include "estimation/bad_data.hpp"
#include "grid/powerflow.hpp"
#include "io/case14.hpp"
#include "io/case_format.hpp"
#include "io/decomp_format.hpp"
#include "io/matpower.hpp"
#include "io/synthetic.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace {

using namespace gridse;

struct Args {
  std::string command;
  std::string target;
  std::map<std::string, std::string> options;
};

/// `<command> [<case>] [--flag value]...`; a stray token or a flag without
/// a value is an error, never silently dropped.
Args parse_args(int argc, char** argv) {
  Args args;
  int i = 1;
  if (i < argc) args.command = argv[i++];
  if (i < argc && argv[i][0] != '-') args.target = argv[i++];
  for (; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw InvalidInput("unexpected argument \"" + key + "\"");
    }
    if (i + 1 >= argc) {
      throw InvalidInput(key + ": missing value");
    }
    args.options[key.substr(2)] = argv[++i];
  }
  return args;
}

/// Reject any flag `a`'s command does not read: a misspelt or retired flag
/// must not leave the command running on a default.
void expect_flags(const Args& a, std::initializer_list<std::string> known) {
  for (const auto& [key, value] : a.options) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      throw InvalidInput(a.command + ": unknown flag --" + key);
    }
  }
}

double opt_double(const Args& a, const std::string& key, double fallback) {
  const auto it = a.options.find(key);
  return it == a.options.end()
             ? fallback
             : parse_double("--" + key, it->second, "a number");
}

int opt_int(const Args& a, const std::string& key, int fallback) {
  const auto it = a.options.find(key);
  return it == a.options.end()
             ? fallback
             : static_cast<int>(parse_integer(
                   "--" + key, it->second, "an integer",
                   std::numeric_limits<int>::min(),
                   std::numeric_limits<int>::max()));
}

std::string opt_str(const Args& a, const std::string& key,
                    const std::string& fallback) {
  const auto it = a.options.find(key);
  return it == a.options.end() ? fallback : it->second;
}

/// Resolve a builtin generated case (with decomposition), if the name is one.
std::optional<io::GeneratedCase> builtin_generated(const std::string& name,
                                                   std::uint64_t seed) {
  if (name == "ieee118") return io::ieee118_dse(seed == 0 ? 2012 : seed);
  if (name == "wecc37") return io::wecc37(seed == 0 ? 37 : seed);
  return std::nullopt;
}

/// Resolve any case (builtin, MATPOWER .m file, or GridSE case file).
io::Case resolve_case(const std::string& name, std::uint64_t seed) {
  if (name == "ieee14") return io::ieee14();
  if (const auto gen = builtin_generated(name, seed)) return gen->kase;
  if (name.size() > 2 && name.rfind(".m") == name.size() - 2) {
    return io::load_matpower_file(name);
  }
  return io::load_case_file(name);
}

int cmd_info(const Args& args) {
  expect_flags(args, {});
  const io::Case c = resolve_case(args.target, 0);
  std::printf("case %s: %d buses, %zu branches, base %g MVA\n",
              c.name.c_str(), c.network.num_buses(), c.network.num_branches(),
              c.base_mva);
  int pv = 0;
  int pq = 0;
  double load = 0.0;
  double gen = 0.0;
  for (const grid::Bus& b : c.network.buses()) {
    if (b.type == grid::BusType::kPV) ++pv;
    if (b.type == grid::BusType::kPQ) ++pq;
    load += b.p_load;
    gen += b.p_gen;
  }
  std::printf("  bus types: 1 slack, %d PV, %d PQ\n", pv, pq);
  std::printf("  total load %.1f MW, scheduled generation %.1f MW\n",
              load * c.base_mva, gen * c.base_mva);
  const grid::PowerFlowResult pf = grid::solve_power_flow(c.network);
  std::printf("  power flow: %s in %d iterations\n",
              pf.converged ? "converged" : "DID NOT CONVERGE", pf.iterations);
  return pf.converged ? 0 : 1;
}

int cmd_se(const Args& args) {
  expect_flags(args, {"noise", "seed"});
  const io::Case c = resolve_case(args.target, 0);
  const grid::PowerFlowResult pf = grid::solve_power_flow(c.network);
  grid::MeasurementPlan plan;
  plan.noise_level = opt_double(args, "noise", 1.0);
  grid::MeasurementGenerator gen(c.network, plan);
  Rng rng(static_cast<std::uint64_t>(opt_int(args, "seed", 1)));
  const grid::MeasurementSet meas = gen.generate(pf.state, rng);

  const estimation::WlsEstimator estimator(c.network);
  const estimation::WlsResult result = estimator.estimate(meas);
  std::printf("WLS: %s, %d iterations (%d inner PCG), J = %.2f\n",
              result.converged ? "converged" : "FAILED",
              result.iterations, result.inner_iterations, result.objective);
  std::printf("max |V| error %.3e pu, max angle error %.3e rad vs truth\n",
              grid::max_vm_error(result.state, pf.state),
              grid::max_angle_error(result.state, pf.state));
  const estimation::ChiSquareTest chi = estimation::chi_square_test(
      result, estimator.model().state_index().size());
  std::printf("chi-square: %.1f vs %.1f -> %s\n", chi.objective, chi.threshold,
              chi.suspect_bad_data ? "bad data suspected" : "clean");
  return result.converged ? 0 : 1;
}

int cmd_dse(const Args& args) {
  expect_flags(args, {"clusters", "transport", "rounds", "cycles", "decomp"});
  auto generated = builtin_generated(args.target, 0);
  if (!generated) {
    // A file case works too when a decomposition file accompanies it.
    const std::string decomp_path = opt_str(args, "decomp", "");
    if (decomp_path.empty()) {
      std::fprintf(stderr, "dse needs a builtin decomposed case (ieee118, "
                           "wecc37) or --decomp <file> with a case file\n");
      return 2;
    }
    io::GeneratedCase from_file;
    from_file.kase = io::load_case_file(args.target);
    from_file.subsystem_of_bus =
        io::load_decomposition_file(decomp_path, from_file.kase.network);
    generated = std::move(from_file);
  }
  core::SystemConfig config;
  config.mapping.num_clusters = opt_int(args, "clusters", 3);
  config.transport =
      core::parse_transport(opt_str(args, "transport", "inproc"));
  config.dse.step2_rounds = opt_int(args, "rounds", 1);
  core::DseSystem system(*generated, config);
  const int cycles = opt_int(args, "cycles", 1);
  for (int i = 0; i < cycles; ++i) {
    const core::CycleReport rep = system.run_cycle(i * 30.0);
    std::printf("cycle %d: %s | imbalance %.3f | %zu bytes | %.1f ms | "
                "max |V| err %.2e\n",
                i + 1, rep.dse.all_converged ? "converged" : "FAILED",
                rep.map_step1.partition.load_imbalance, rep.dse.bytes_sent,
                rep.dse.total_seconds * 1e3, rep.max_vm_error);
  }
  return 0;
}

int cmd_partition(const Args& args) {
  expect_flags(args, {"clusters"});
  const auto generated = builtin_generated(args.target, 0);
  if (!generated) {
    std::fprintf(stderr, "partition needs a builtin decomposed case "
                         "(ieee118, wecc37)\n");
    return 2;
  }
  decomp::Decomposition d =
      decomp::decompose(generated->kase.network, generated->subsystem_of_bus);
  decomp::analyze_sensitivity(generated->kase.network, d, {});
  mapping::MappingOptions opts;
  opts.num_clusters = opt_int(args, "clusters", 3);
  const mapping::ClusterMapper mapper(d, opts);
  const mapping::MappingResult r = mapper.map_before_step1(0.0);
  std::printf("%d subsystems onto %d clusters: imbalance %.3f, cut %.1f\n",
              d.num_subsystems(), opts.num_clusters,
              r.partition.load_imbalance, r.partition.edge_cut);
  for (graph::PartId k = 0; k < opts.num_clusters; ++k) {
    std::printf("  cluster %d:", k);
    for (int s = 0; s < d.num_subsystems(); ++s) {
      if (r.partition.assignment[static_cast<std::size_t>(s)] == k) {
        std::printf(" %d", s + 1);
      }
    }
    std::printf("\n");
  }
  return 0;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: gridse_cli <command> <case> [options]\n"
      "  commands: info | se | dse | partition\n"
      "  cases: ieee14 | ieee118 | wecc37 | <path to case file>\n"
      "  se options:   --noise X --seed N\n"
      "  dse options:  --clusters K --transport inproc|medici|direct "
      "--cycles N --rounds R --decomp FILE\n"
      "  partition:    --clusters K\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.command == "info") return cmd_info(args);
    if (args.command == "se") return cmd_se(args);
    if (args.command == "dse") return cmd_dse(args);
    if (args.command == "partition") return cmd_partition(args);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage();
  return 2;
}
