#include "grid/measurement.hpp"

#include "util/error.hpp"

namespace gridse::grid {

const char* meas_type_name(MeasType type) {
  switch (type) {
    case MeasType::kPFlow:
      return "P_flow";
    case MeasType::kQFlow:
      return "Q_flow";
    case MeasType::kPInjection:
      return "P_inj";
    case MeasType::kQInjection:
      return "Q_inj";
    case MeasType::kVMag:
      return "V_mag";
    case MeasType::kVAngle:
      return "V_angle";
  }
  return "unknown";
}

std::vector<double> MeasurementSet::weights() const {
  std::vector<double> w(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    GRIDSE_CHECK_MSG(items[i].sigma > 0.0, "measurement sigma must be positive");
    w[i] = 1.0 / (items[i].sigma * items[i].sigma);
  }
  return w;
}

std::vector<double> MeasurementSet::values() const {
  std::vector<double> v(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    v[i] = items[i].value;
  }
  return v;
}

void validate_measurements(const Network& network, const MeasurementSet& set) {
  for (std::size_t i = 0; i < set.items.size(); ++i) {
    const Measurement& m = set.items[i];
    // The description is built only on the failure path: this loop runs
    // over every measurement of every solve.
    const auto reject = [&](const char* why) {
      throw InvalidInput("measurement " + std::to_string(i) + " (" +
                         meas_type_name(m.type) + "): " + why);
    };
    if (m.sigma <= 0.0) {
      reject("sigma must be positive");
    }
    const bool is_flow =
        m.type == MeasType::kPFlow || m.type == MeasType::kQFlow;
    if (is_flow) {
      if (m.branch < 0 ||
          static_cast<std::size_t>(m.branch) >= network.num_branches()) {
        reject("branch index out of range");
      }
      const Branch& br = network.branch(static_cast<std::size_t>(m.branch));
      const BusIndex metered = m.at_from_side ? br.from : br.to;
      if (m.bus != metered) {
        reject("bus does not match the metered branch end");
      }
    } else {
      if (m.bus < 0 || m.bus >= network.num_buses()) {
        reject("bus index out of range");
      }
      if (m.branch != -1) {
        reject("non-flow measurement must not set branch");
      }
    }
  }
}

}  // namespace gridse::grid
