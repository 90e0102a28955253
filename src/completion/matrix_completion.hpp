// Low-rank matrix completion — the compressed-sensing baseline family.
//
// The related work the paper contrasts against ([6]-[10] in §II) collects
// measurements from a random subset of (node, step) pairs and reconstructs
// the unobserved entries by exploiting the approximate low-rank structure
// of the fleet's utilization matrix. This module implements the standard
// alternating-least-squares (ALS) completion with ridge regularization;
// sim::run_completion_experiment runs the §II-style monitoring experiment
// around it, so the paper's claim that such approaches underperform the
// proposed mechanism can be tested directly rather than proxied by the
// minimum-distance baseline.
#pragma once

#include <cstdint>
#include <vector>

#include "common/matrix.hpp"

namespace resmon::completion {

struct CompletionOptions {
  std::size_t rank = 5;        ///< target rank r of the factorization
  std::size_t iterations = 15; ///< ALS sweeps
  double ridge = 1e-2;         ///< Tikhonov regularizer on both factors
  std::uint64_t seed = 1;      ///< factor initialization
};

/// Complete a partially observed matrix: `observed` is R x C with valid
/// entries wherever `mask` (row-major, R*C) is true. Returns the rank-r
/// reconstruction U V^T of the full matrix. Requires every row and every
/// column to contain at least one observed entry... rows/columns with no
/// observations are reconstructed from the regularized factors (they decay
/// toward zero), which mirrors how the baseline behaves on cold nodes.
Matrix complete_matrix(const Matrix& observed,
                       const std::vector<bool>& mask,
                       const CompletionOptions& options = {});

}  // namespace resmon::completion
