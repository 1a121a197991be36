#include "mining/support_counter.h"

#include "util/macros.h"

namespace mbi {
namespace {

// Triangular pair storage is used while it stays within ~64 MiB of counters.
constexpr uint64_t kDensePairBudget = 16ULL * 1024 * 1024;

uint64_t SparseKey(ItemId a, ItemId b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

}  // namespace

SupportCounter::SupportCounter(const TransactionDatabase& database)
    : universe_size_(database.universe_size()),
      num_transactions_(database.size()),
      item_counts_(database.universe_size(), 0) {
  const uint64_t pair_slots =
      static_cast<uint64_t>(universe_size_) * (universe_size_ - 1) / 2;
  use_dense_pairs_ = pair_slots <= kDensePairBudget;
  if (use_dense_pairs_) dense_pair_counts_.assign(pair_slots, 0);

  for (const auto& transaction : database.transactions()) {
    const auto& items = transaction.items();
    for (size_t i = 0; i < items.size(); ++i) {
      ++item_counts_[items[i]];
      for (size_t j = i + 1; j < items.size(); ++j) {
        if (use_dense_pairs_) {
          ++dense_pair_counts_[TriangularIndex(items[i], items[j])];
        } else {
          ++sparse_pair_counts_[SparseKey(items[i], items[j])];
        }
      }
    }
  }
}

size_t SupportCounter::TriangularIndex(ItemId a, ItemId b) const {
  // Requires a < b. Row a starts after sum_{r<a} (n-1-r) slots, which equals
  // a*(n-1) - a*(a-1)/2.
  uint64_t row_start = static_cast<uint64_t>(a) * (universe_size_ - 1) -
                       static_cast<uint64_t>(a) * (a - 1) / 2;
  return static_cast<size_t>(row_start + (b - a - 1));
}

uint64_t SupportCounter::ItemCount(ItemId item) const {
  MBI_CHECK(item < universe_size_);
  return item_counts_[item];
}

double SupportCounter::ItemSupport(ItemId item) const {
  if (num_transactions_ == 0) return 0.0;
  return static_cast<double>(ItemCount(item)) /
         static_cast<double>(num_transactions_);
}

uint64_t SupportCounter::PairCount(ItemId a, ItemId b) const {
  MBI_CHECK(a < universe_size_ && b < universe_size_);
  MBI_CHECK(a != b);
  if (a > b) std::swap(a, b);
  if (use_dense_pairs_) return dense_pair_counts_[TriangularIndex(a, b)];
  auto it = sparse_pair_counts_.find(SparseKey(a, b));
  return it == sparse_pair_counts_.end() ? 0 : it->second;
}

double SupportCounter::PairSupport(ItemId a, ItemId b) const {
  if (num_transactions_ == 0) return 0.0;
  return static_cast<double>(PairCount(a, b)) /
         static_cast<double>(num_transactions_);
}

std::vector<SupportCounter::PairEntry> SupportCounter::PairsWithMinCount(
    uint64_t min_count) const {
  std::vector<PairEntry> result;
  if (use_dense_pairs_) {
    for (ItemId a = 0; a + 1 < universe_size_; ++a) {
      for (ItemId b = a + 1; b < universe_size_; ++b) {
        uint64_t count = dense_pair_counts_[TriangularIndex(a, b)];
        if (count >= min_count && count > 0) result.push_back({a, b, count});
      }
    }
  } else {
    for (const auto& [key, count] : sparse_pair_counts_) {
      if (count >= min_count) {
        result.push_back({static_cast<ItemId>(key >> 32),
                          static_cast<ItemId>(key & 0xFFFFFFFFu), count});
      }
    }
  }
  return result;
}

}  // namespace mbi
