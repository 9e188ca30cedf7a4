#pragma once

#include <span>
#include <vector>

#include "grid/network.hpp"

namespace gridse::grid {

/// Full polar operating state of a network: one angle and one magnitude per
/// bus. This is "the state of the power systems … the voltage and angle of
/// every bus" (paper §I).
struct GridState {
  std::vector<double> theta;  ///< bus voltage angles, radians
  std::vector<double> vm;     ///< bus voltage magnitudes, p.u.

  GridState() = default;
  /// Flat start: all angles 0, all magnitudes 1.
  explicit GridState(BusIndex num_buses)
      : theta(static_cast<std::size_t>(num_buses), 0.0),
        vm(static_cast<std::size_t>(num_buses), 1.0) {}

  [[nodiscard]] BusIndex num_buses() const {
    return static_cast<BusIndex>(theta.size());
  }
};

/// Maps bus quantities onto the reduced estimation state vector
/// x = [θ(all non-reference buses), |V|(all buses)]. The reference bus
/// angle is pinned to a known value and excluded from x.
class StateIndex {
 public:
  StateIndex() = default;
  /// `reference_bus` angle is excluded from the state vector.
  StateIndex(BusIndex num_buses, BusIndex reference_bus);

  [[nodiscard]] BusIndex num_buses() const { return num_buses_; }
  [[nodiscard]] BusIndex reference_bus() const { return reference_bus_; }

  /// Dimension of x: (n-1) angles + n magnitudes.
  [[nodiscard]] std::int32_t size() const { return 2 * num_buses_ - 1; }

  /// Index of θ_bus in x, or -1 for the reference bus.
  [[nodiscard]] std::int32_t theta_index(BusIndex bus) const;

  /// Index of |V|_bus in x.
  [[nodiscard]] std::int32_t vm_index(BusIndex bus) const;

  /// Expand x into a full GridState, pinning the reference angle to
  /// `reference_angle`.
  [[nodiscard]] GridState unpack(std::span<const double> x,
                                 double reference_angle = 0.0) const;

  /// As above, into `out` (resized to num_buses()).
  void unpack(std::span<const double> x, double reference_angle,
              GridState& out) const;

  /// Flatten a GridState into x (drops the reference angle).
  [[nodiscard]] std::vector<double> pack(const GridState& state) const;

 private:
  BusIndex num_buses_ = 0;
  BusIndex reference_bus_ = -1;
};

/// Largest absolute angle difference (radians) between two states, skipping
/// no buses; used as an estimation-accuracy metric.
double max_angle_error(const GridState& a, const GridState& b);

/// Largest absolute magnitude difference (p.u.).
double max_vm_error(const GridState& a, const GridState& b);

}  // namespace gridse::grid
