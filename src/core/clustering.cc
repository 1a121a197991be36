#include "core/clustering.h"

#include <algorithm>
#include <queue>
#include <tuple>
#include <vector>

#include "util/macros.h"

namespace mbi {
namespace {

/// Union-find over items tracking per-component support mass.
class DisjointSets {
 public:
  explicit DisjointSets(const SupportCounter& supports)
      : parent_(supports.universe_size()),
        rank_(supports.universe_size(), 0),
        mass_(supports.universe_size()) {
    for (uint32_t i = 0; i < parent_.size(); ++i) {
      parent_[i] = i;
      mass_[i] = supports.ItemSupport(i);
    }
  }

  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  /// Merges the components of a and b; returns the new root.
  uint32_t Union(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    MBI_CHECK(a != b);
    if (rank_[a] < rank_[b]) std::swap(a, b);
    parent_[b] = a;
    mass_[a] += mass_[b];
    if (rank_[a] == rank_[b]) ++rank_[a];
    return a;
  }

  double MassOf(uint32_t root) const { return mass_[root]; }

 private:
  std::vector<uint32_t> parent_;
  std::vector<uint8_t> rank_;
  std::vector<double> mass_;
};

/// Packs `component_masses` into `bins` bins, heaviest component first into
/// the currently lightest bin. Returns the bin of each component.
std::vector<uint32_t> PackBalanced(const std::vector<double>& component_masses,
                                   uint32_t bins) {
  MBI_CHECK(bins > 0);
  std::vector<size_t> order(component_masses.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return component_masses[a] > component_masses[b];
  });

  // Min-heap of (mass, item count, bin id): prefer lighter bins, then bins
  // holding fewer components so zero-mass components still spread out.
  using BinState = std::tuple<double, uint64_t, uint32_t>;
  std::priority_queue<BinState, std::vector<BinState>, std::greater<BinState>>
      heap;
  for (uint32_t b = 0; b < bins; ++b) heap.push({0.0, 0, b});

  std::vector<uint32_t> bin_of(component_masses.size(), 0);
  for (size_t index : order) {
    auto [mass, count, bin] = heap.top();
    heap.pop();
    bin_of[index] = bin;
    heap.push({mass + component_masses[index], count + 1, bin});
  }
  return bin_of;
}

/// Ensures every signature is non-empty by moving single items out of the
/// most populous signatures into empty ones. Preconditions: `cardinality`
/// <= number of items.
void FillEmptySignatures(uint32_t cardinality,
                         std::vector<uint32_t>* signature_of_item) {
  std::vector<std::vector<ItemId>> members(cardinality);
  for (ItemId item = 0; item < signature_of_item->size(); ++item) {
    members[(*signature_of_item)[item]].push_back(item);
  }
  for (uint32_t empty = 0; empty < cardinality; ++empty) {
    if (!members[empty].empty()) continue;
    uint32_t donor = 0;
    for (uint32_t s = 1; s < cardinality; ++s) {
      if (members[s].size() > members[donor].size()) donor = s;
    }
    MBI_CHECK_MSG(members[donor].size() > 1,
                  "not enough items to populate every signature");
    ItemId moved = members[donor].back();
    members[donor].pop_back();
    members[empty].push_back(moved);
    (*signature_of_item)[moved] = empty;
  }
}

}  // namespace

SignaturePartition BuildSignaturesSingleLinkage(
    const SupportCounter& supports, const ClusteringConfig& config) {
  const uint32_t k = config.target_cardinality;
  MBI_CHECK(k >= 1 && k <= SignaturePartition::kMaxCardinality);
  const uint32_t n = supports.universe_size();
  MBI_CHECK_MSG(n >= k, "universe smaller than the signature cardinality");

  double total_mass = 0.0;
  for (uint32_t item = 0; item < n; ++item) {
    total_mass += supports.ItemSupport(item);
  }
  const double critical_mass = total_mass / static_cast<double>(k);

  // Edges above the minimum pair support, by decreasing support (increasing
  // inverse-support distance) — the greedy MST order of single linkage.
  const uint64_t min_count = static_cast<uint64_t>(
      config.min_pair_support * static_cast<double>(supports.num_transactions()));
  std::vector<SupportCounter::PairEntry> edges =
      supports.PairsWithMinCount(std::max<uint64_t>(1, min_count));
  std::sort(edges.begin(), edges.end(),
            [](const SupportCounter::PairEntry& a,
               const SupportCounter::PairEntry& b) {
              if (a.count != b.count) return a.count > b.count;
              if (a.a != b.a) return a.a < b.a;  // Deterministic tie-break.
              return a.b < b.b;
            });

  DisjointSets dsu(supports);
  // sealed_signature_of_root[root] is the signature id assigned when the
  // component rooted at `root` reached critical mass; absent otherwise.
  std::vector<int32_t> sealed_of_root(n, -1);
  uint32_t sealed_count = 0;

  for (const auto& edge : edges) {
    if (sealed_count + 1 >= k) break;  // Keep >= 1 bin for the leftovers.
    uint32_t ra = dsu.Find(edge.a);
    uint32_t rb = dsu.Find(edge.b);
    if (ra == rb) continue;
    if (sealed_of_root[ra] >= 0 || sealed_of_root[rb] >= 0) {
      continue;  // Sealed components are removed from the graph.
    }
    uint32_t root = dsu.Union(ra, rb);
    if (dsu.MassOf(root) >= critical_mass) {
      sealed_of_root[root] = static_cast<int32_t>(sealed_count++);
    }
  }

  // Collect leftover (unsealed) components and pack them into the remaining
  // signature bins, balancing mass.
  std::vector<uint32_t> leftover_roots;
  std::vector<double> leftover_masses;
  std::vector<int32_t> leftover_index_of_root(n, -1);
  for (uint32_t item = 0; item < n; ++item) {
    uint32_t root = dsu.Find(item);
    if (sealed_of_root[root] >= 0) continue;
    if (leftover_index_of_root[root] < 0) {
      leftover_index_of_root[root] =
          static_cast<int32_t>(leftover_roots.size());
      leftover_roots.push_back(root);
      leftover_masses.push_back(dsu.MassOf(root));
    }
  }

  std::vector<uint32_t> signature_of_item(n, 0);
  if (!leftover_roots.empty()) {
    const uint32_t leftover_bins = k - sealed_count;
    std::vector<uint32_t> bin_of = PackBalanced(leftover_masses, leftover_bins);
    for (uint32_t item = 0; item < n; ++item) {
      uint32_t root = dsu.Find(item);
      if (sealed_of_root[root] >= 0) {
        signature_of_item[item] = static_cast<uint32_t>(sealed_of_root[root]);
      } else {
        signature_of_item[item] =
            sealed_count +
            bin_of[static_cast<size_t>(leftover_index_of_root[root])];
      }
    }
  } else {
    for (uint32_t item = 0; item < n; ++item) {
      signature_of_item[item] =
          static_cast<uint32_t>(sealed_of_root[dsu.Find(item)]);
    }
  }

  FillEmptySignatures(k, &signature_of_item);
  return SignaturePartition(k, std::move(signature_of_item));
}

SignaturePartition BuildSignaturesBalanced(const SupportCounter& supports,
                                          uint32_t target_cardinality) {
  MBI_CHECK(target_cardinality >= 1 &&
            target_cardinality <= SignaturePartition::kMaxCardinality);
  const uint32_t n = supports.universe_size();
  MBI_CHECK_MSG(n >= target_cardinality,
                "universe smaller than the signature cardinality");
  std::vector<double> masses(n);
  for (uint32_t item = 0; item < n; ++item) {
    masses[item] = supports.ItemSupport(item);
  }
  std::vector<uint32_t> signature_of_item = PackBalanced(masses,
                                                         target_cardinality);
  FillEmptySignatures(target_cardinality, &signature_of_item);
  return SignaturePartition(target_cardinality, std::move(signature_of_item));
}

}  // namespace mbi
