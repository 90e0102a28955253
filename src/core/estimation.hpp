// Per-node spatial estimation pieces of §V-C, shared between the
// MonitoringPipeline and the clustering-baseline experiments:
//
//  * forecasted cluster membership — the cluster a node belonged to most
//    often within the last M'+1 steps;
//  * the per-node offset s-hat of eq. (12), with the alpha scaling that
//    keeps "centroid + offset" inside the node's own cluster: the largest
//    alpha in [0, 1] such that c_j + alpha * delta is still closest to
//    centroid j. Each other centroid c_l bounds it at its perpendicular
//    bisector with c_j, alpha <= ||c_l - c_j||^2 / (2 delta . (c_l - c_j)),
//    whenever delta points toward c_l.
#pragma once

#include <span>

#include "cluster/dynamic_cluster.hpp"
#include "common/matrix.hpp"

namespace resmon::core {

/// Answers the two per-node questions above from the newest
/// min(window, history.size()) steps of `history`, where `window` is
/// M' + 1. For every node i, modal[i] is its C-hat membership: the cluster
/// it belonged to most often in those steps (ties break to the smaller
/// index). When `offsets` is non-null it is reshaped to N x d and row i
/// receives s-hat of eq. (12) relative to modal[i]; `use_alpha` applies
/// the alpha scaling (disable for the ablation in bench/ablation_offset).
/// One kern::offset_lanes pass over the window; `modal` holds N entries.
/// Throws InvalidState on an empty history.
void modal_offsets(const cluster::ClusterHistory& history,
                   std::size_t window, bool use_alpha,
                   std::span<std::size_t> modal, Matrix* offsets);

}  // namespace resmon::core
