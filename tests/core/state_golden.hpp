#pragma once

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "grid/state.hpp"

namespace gridse::core {

/// Pinned system-wide estimate: exact checksums over all buses plus eight
/// sampled buses. The tolerances follow from a 1e-12 per-bus bound.
struct StateGolden {
  double sum_theta;
  double sum_vm;
  double weighted_theta;  ///< sum over buses of (bus + 1) * theta
  double weighted_vm;
  /// {theta, vm} at buses 0, 16, 32, ..., 112.
  std::vector<std::pair<double, double>> samples;
};

inline void expect_state_golden(const grid::GridState& state,
                                const StateGolden& g) {
  double sum_theta = 0.0;
  double sum_vm = 0.0;
  double weighted_theta = 0.0;
  double weighted_vm = 0.0;
  for (std::size_t i = 0; i < state.theta.size(); ++i) {
    const auto w = static_cast<double>(i + 1);
    sum_theta += state.theta[i];
    sum_vm += state.vm[i];
    weighted_theta += w * state.theta[i];
    weighted_vm += w * state.vm[i];
  }
  const double n = static_cast<double>(state.theta.size());
  EXPECT_NEAR(sum_theta, g.sum_theta, n * 1e-12);
  EXPECT_NEAR(sum_vm, g.sum_vm, n * 1e-12);
  EXPECT_NEAR(weighted_theta, g.weighted_theta, n * (n + 1) / 2 * 1e-12);
  EXPECT_NEAR(weighted_vm, g.weighted_vm, n * (n + 1) / 2 * 1e-12);
  ASSERT_EQ(g.samples.size(), 8u);
  for (std::size_t k = 0; k < g.samples.size(); ++k) {
    EXPECT_NEAR(state.theta[16 * k], g.samples[k].first, 1e-12) << k;
    EXPECT_NEAR(state.vm[16 * k], g.samples[k].second, 1e-12) << k;
  }
}

}  // namespace gridse::core
