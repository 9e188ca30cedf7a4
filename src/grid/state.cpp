#include "grid/state.hpp"

#include <cmath>

#include "util/error.hpp"

namespace gridse::grid {

StateIndex::StateIndex(BusIndex num_buses, BusIndex reference_bus)
    : num_buses_(num_buses), reference_bus_(reference_bus) {
  GRIDSE_CHECK(num_buses > 0);
  GRIDSE_CHECK(reference_bus >= 0 && reference_bus < num_buses);
}

std::int32_t StateIndex::theta_index(BusIndex bus) const {
  GRIDSE_CHECK(bus >= 0 && bus < num_buses_);
  if (bus == reference_bus_) return -1;
  return bus < reference_bus_ ? bus : bus - 1;
}

std::int32_t StateIndex::vm_index(BusIndex bus) const {
  GRIDSE_CHECK(bus >= 0 && bus < num_buses_);
  return num_buses_ - 1 + bus;
}

GridState StateIndex::unpack(std::span<const double> x,
                             double reference_angle) const {
  GridState s;
  unpack(x, reference_angle, s);
  return s;
}

void StateIndex::unpack(std::span<const double> x, double reference_angle,
                        GridState& out) const {
  GRIDSE_CHECK(static_cast<std::int32_t>(x.size()) == size());
  out.theta.resize(static_cast<std::size_t>(num_buses_));
  out.vm.resize(static_cast<std::size_t>(num_buses_));
  for (BusIndex b = 0; b < num_buses_; ++b) {
    const auto ti = theta_index(b);
    out.theta[static_cast<std::size_t>(b)] =
        ti < 0 ? reference_angle : x[static_cast<std::size_t>(ti)];
    out.vm[static_cast<std::size_t>(b)] =
        x[static_cast<std::size_t>(vm_index(b))];
  }
}

std::vector<double> StateIndex::pack(const GridState& state) const {
  GRIDSE_CHECK(state.num_buses() == num_buses_);
  std::vector<double> x(static_cast<std::size_t>(size()));
  for (BusIndex b = 0; b < num_buses_; ++b) {
    const auto ti = theta_index(b);
    if (ti >= 0) {
      x[static_cast<std::size_t>(ti)] = state.theta[static_cast<std::size_t>(b)];
    }
    x[static_cast<std::size_t>(vm_index(b))] =
        state.vm[static_cast<std::size_t>(b)];
  }
  return x;
}

double max_angle_error(const GridState& a, const GridState& b) {
  GRIDSE_CHECK(a.num_buses() == b.num_buses());
  double m = 0.0;
  for (std::size_t i = 0; i < a.theta.size(); ++i) {
    m = std::max(m, std::abs(a.theta[i] - b.theta[i]));
  }
  return m;
}

double max_vm_error(const GridState& a, const GridState& b) {
  GRIDSE_CHECK(a.num_buses() == b.num_buses());
  double m = 0.0;
  for (std::size_t i = 0; i < a.vm.size(); ++i) {
    m = std::max(m, std::abs(a.vm[i] - b.vm[i]));
  }
  return m;
}

}  // namespace gridse::grid
