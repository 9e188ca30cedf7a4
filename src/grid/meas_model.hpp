#pragma once

#include <span>

#include "grid/measurement.hpp"
#include "grid/network.hpp"
#include "grid/state.hpp"
#include "grid/ybus.hpp"
#include "sparse/csr.hpp"

namespace gridse::grid {

/// The nonlinear states-to-measurements function h(x) and its Jacobian H —
/// the paper's z = h(x) + e model (§II). Construct once per network; both
/// entry points are pure functions of the supplied state, over the same
/// per-meter formulas as MeasurementKernel. evaluate() streams through the
/// set and stores no compiled form; a caller evaluating one set at many
/// states (the WLS Gauss–Newton loop) compiles a kernel once instead.
class MeasurementModel {
 public:
  /// `index` defines the reduced state vector (which bus is the angle
  /// reference). The admittance matrix is built once here.
  MeasurementModel(const Network& network, StateIndex index);

  /// As above, borrowing `ybus` (build_ybus of `network` at its current
  /// switching state, kept current by its owner) instead of building one.
  /// `ybus` must outlive the model.
  MeasurementModel(const Network& network, StateIndex index,
                   const sparse::CsrComplex& ybus);

  /// Evaluate h at `state` for every measurement in `set`, in order.
  [[nodiscard]] std::vector<double> evaluate(const MeasurementSet& set,
                                             const GridState& state) const;

  /// Sparse Jacobian H = ∂h/∂x at `state`; rows follow `set` order, columns
  /// follow the StateIndex layout. The pattern is MeasurementKernel's
  /// structural one, so it does not depend on `state`.
  [[nodiscard]] sparse::Csr jacobian(const MeasurementSet& set,
                                     const GridState& state) const;

  [[nodiscard]] const StateIndex& state_index() const { return index_; }
  [[nodiscard]] const sparse::CsrComplex& ybus() const {
    return borrowed_ybus_ != nullptr ? *borrowed_ybus_ : ybus_;
  }
  [[nodiscard]] const Network& network() const { return *network_; }

  /// Adopt the values of `live` — an incrementally patched Ybus of the SAME
  /// network (build_ybus keeps the pattern switching-invariant, so only
  /// values differ after topology events). Throws InvalidInput on a pattern
  /// mismatch. Keeps cached injection h consistent with live switching
  /// state without an O(nnz log nnz) rebuild. Only for a model that owns
  /// its admittance matrix.
  void sync_ybus(const sparse::CsrComplex& live);

 private:
  const Network* network_;
  StateIndex index_;
  /// Owned admittance matrix; empty when the model borrows one.
  sparse::CsrComplex ybus_;
  const sparse::CsrComplex* borrowed_ybus_ = nullptr;
};

namespace detail {

/// One meter's state-independent form (MeasurementKernel): 48 bytes, its
/// Jacobian slots kept apart.
struct CompiledMeter {
  MeasType type = MeasType::kVMag;
  /// Flows: the branch is in service (an open one carries no flow).
  bool live = false;
  /// Voltages and injections: the bus; flows: the metered end.
  BusIndex bus = 0;
  /// Flows: the far end.
  BusIndex other = 0;
  /// Offset of the meter's Jacobian slots in the kernel's slot array.
  std::int32_t first_slot = 0;
  /// Flows: the metered end's self and transfer admittances.
  double g_mm = 0.0;
  double b_mm = 0.0;
  double g_mo = 0.0;
  double b_mo = 0.0;
};

}  // namespace detail

/// One measurement set compiled against a MeasurementModel, for evaluation
/// at many states: the Gauss–Newton step's measurement kernel. Compiling
/// resolves everything that does not depend on the state — each flow
/// meter's branch admittance constants, each injection meter's Ybus row,
/// and each meter's state columns with their value slots in one fixed
/// Jacobian pattern. An evaluation is then one pass that writes h and the
/// Jacobian values in place: no allocation, no sort, cos/sin once per
/// meter term.
///
/// The Jacobian pattern is structural, fixed for the kernel's life:
///  - the reference angle's column is omitted;
///  - the row of a flow meter on an out-of-service branch is empty, and an
///    injection row omits the neighbours whose Ybus entry is exactly zero
///    (out-of-service branches), and its own bus's entries when the whole
///    Ybus row is zero — those entries are zero at every state;
///  - every other entry is kept, also when its value happens to be zero at
///    some state (a flat start across an r = 0 branch): an explicit zero.
/// Rows are sorted by column.
///
/// The kernel borrows the model; it must outlive the kernel, and the
/// network's switching state and the Ybus must not change under it.
class MeasurementKernel {
 public:
  MeasurementKernel(const MeasurementModel& model, const MeasurementSet& set);

  /// h(state) into `h`, one value per meter in set order.
  void evaluate(const GridState& state, std::span<double> h) const;

  /// h(state) into `h` and H(state) into jacobian()'s values, in one pass.
  void linearize(const GridState& state, std::span<double> h);

  /// The Jacobian of the last linearize() (all values zero before the
  /// first). Its pattern never changes.
  [[nodiscard]] const sparse::Csr& jacobian() const { return jacobian_; }

 private:
  template <bool kJacobian>
  void run(const GridState& state, std::span<double> h, double* jac) const;

  const MeasurementModel* model_;
  std::vector<detail::CompiledMeter> meters_;
  /// Jacobian value slots, -1 = no entry: a voltage meter's one, a flow
  /// meter's θ_m, θ_o, V_m, V_o, and an injection's (θ_j, V_j) pair per
  /// entry of its bus's Ybus row.
  std::vector<std::int32_t> slots_;
  sparse::Csr jacobian_;
};

}  // namespace gridse::grid
