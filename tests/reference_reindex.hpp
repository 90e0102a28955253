// Textbook eq. (10) re-indexing weights: the oracle that
// cluster::reindex_weights_into must match bit for bit. It builds the N x K
// membership mask the tracker once kept (mask[i * k + j] == 1 exactly when
// node i was in cluster j at every past step read), then adds the mask
// cell by cell, as 0.0 or 1.0, into the fresh cluster's weight row; the
// Jaccard variant divides by the size of the union as [20] does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/dynamic_cluster.hpp"
#include "common/matrix.hpp"

namespace resmon::oracle {

/// `past[m]` is the assignment m + 1 steps back; all of them are read.
inline Matrix reference_reindex_weights(
    const std::vector<std::size_t>& fresh,
    const std::vector<std::vector<std::size_t>>& past, std::size_t k,
    cluster::SimilarityKind kind) {
  const std::size_t n = fresh.size();
  std::vector<std::uint8_t> mask(n * k, 1);
  for (const std::vector<std::size_t>& assignment : past) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < k; ++j) {
        if (assignment[i] != j) mask[i * k + j] = 0;
      }
    }
  }
  Matrix inter(k, k);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      inter(fresh[i], j) += static_cast<double>(mask[i * k + j]);
    }
  }
  if (kind == cluster::SimilarityKind::kIntersection) return inter;

  std::vector<double> fresh_size(k, 0.0);
  std::vector<double> hist_size(k, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    fresh_size[fresh[i]] += 1.0;
    for (std::size_t j = 0; j < k; ++j) {
      if (mask[i * k + j] != 0) hist_size[j] += 1.0;
    }
  }
  Matrix w(k, k);
  for (std::size_t kk = 0; kk < k; ++kk) {
    for (std::size_t j = 0; j < k; ++j) {
      const double uni = fresh_size[kk] + hist_size[j] - inter(kk, j);
      w(kk, j) = uni > 0.0 ? inter(kk, j) / uni : 0.0;
    }
  }
  return w;
}

}  // namespace resmon::oracle
