#include "txn/candidate_layout.h"

#include <utility>
#include <vector>

#include "util/macros.h"

namespace mbi {

CandidateLayout CandidateLayout::Build(const TransactionDatabase& database,
                                       const CandidateLayoutConfig& config) {
  return Build(database, {}, config);
}

CandidateLayout CandidateLayout::Build(const TransactionDatabase& database,
                                       std::vector<TransactionId> tid_of_row,
                                       const CandidateLayoutConfig& config) {
  const size_t n = database.size();
  CandidateLayout layout;
  if (!tid_of_row.empty()) {
    MBI_CHECK_MSG(tid_of_row.size() == n,
                  "a row order must cover exactly the database rows");
    std::vector<bool> seen(n, false);
    for (const TransactionId tid : tid_of_row) {
      MBI_CHECK_MSG(tid < n && !seen[tid],
                    "a row order must be a permutation of the database ids");
      seen[tid] = true;
    }
    layout.tid_of_row_ = std::move(tid_of_row);
  }

  std::vector<uint64_t> item_frequency(database.universe_size(), 0);
  size_t total_items = 0;
  for (const Transaction& txn : database.transactions()) {
    for (ItemId item : txn.items()) ++item_frequency[item];
    total_items += txn.size();
  }

  kernel::ItemBandMap band_map =
      kernel::ItemBandMap::Build(item_frequency, config.max_dense_bits);
  kernel::BlockedLayout::Builder builder(std::move(band_map), n, total_items);
  // Out of TID order the reads are random: prefetch each row's transaction
  // two strides ahead and its items one stride ahead.
  constexpr size_t kAhead = 8;
  for (size_t row = 0; row < n; ++row) {
    if (!layout.in_tid_order()) {
      if (row + 2 * kAhead < n) {
        __builtin_prefetch(&database.Get(layout.tid_of_row(row + 2 * kAhead)));
      }
      if (row + kAhead < n) {
        __builtin_prefetch(
            database.Get(layout.tid_of_row(row + kAhead)).items().data());
      }
    }
    const Transaction& txn = database.Get(layout.tid_of_row(row));
    builder.AddRow(txn.items().data(), txn.size());
  }

  layout.blocked_ = std::move(builder).Build();
  layout.universe_size_ = database.universe_size();
  return layout;
}

}  // namespace mbi
