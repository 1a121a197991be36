#ifndef MBI_CORE_CLUSTERING_H_
#define MBI_CORE_CLUSTERING_H_

#include <cstdint>

#include "core/signature_partition.h"
#include "mining/support_counter.h"

namespace mbi {

/// Parameters of signature construction (paper §3.1).
struct ClusteringConfig {
  /// Desired signature cardinality K. The critical mass is derived from it as
  /// `total_item_support_mass / target_cardinality`, matching the paper's
  /// observation that a lower critical mass yields a higher K (finer
  /// partitions) and vice versa. Must be in [1, 31].
  uint32_t target_cardinality = 15;

  /// Minimum fractional support for an item pair to contribute an edge to
  /// the item graph. Pairs below this support are treated as uncorrelated.
  double min_pair_support = 0.0005;
};

/// Builds the signature partition by single-linkage clustering of the item
/// co-occurrence graph (paper §3.1):
///
///  1. One graph node per item; the distance between two items is the inverse
///     of the support of the corresponding 2-itemset.
///  2. Greedy minimum-spanning-tree (Kruskal) order: edges are added by
///     increasing distance, i.e. decreasing pair support, so highly
///     correlated items merge first (this *is* single-linkage clustering —
///     the paper's reference [19], SLINK).
///  3. The *mass* of a connected component is the sum of the supports of its
///     items. Whenever a merge pushes a component's mass past the *critical
///     mass*, the component is removed from the graph and becomes one
///     signature.
///  4. When the edges are exhausted, the remaining components (including
///     items that never co-occurred above `min_pair_support`) are packed
///     into the remaining signatures with a balance heuristic (first-fit
///     decreasing by mass into the lightest open signature), honouring the
///     paper's goal of keeping the partition masses even.
///
/// The result has exactly `target_cardinality` signatures whenever the
/// universe has at least that many items (checked).
SignaturePartition BuildSignaturesSingleLinkage(const SupportCounter& supports,
                                               const ClusteringConfig& config);

/// Ablation baseline: ignores correlations entirely and distributes items
/// over K signatures balancing total support mass (greedy: heaviest item
/// first into the currently lightest signature). Used to quantify how much
/// the correlation-aware construction contributes to pruning performance
/// (paper §3.1 motivates correlated signatures; this partitioner is the
/// control).
SignaturePartition BuildSignaturesBalanced(const SupportCounter& supports,
                                          uint32_t target_cardinality);

}  // namespace mbi

#endif  // MBI_CORE_CLUSTERING_H_
