#ifndef MBI_TXN_DELETED_ROWS_H_
#define MBI_TXN_DELETED_ROWS_H_

#include <cstddef>

#include "txn/transaction.h"
#include "util/bitset.h"

namespace mbi {

/// Deleted-row bitmap over one immutable row collection, keyed by the
/// collection's local ids [0, size()). This is the "tagging" delete policy of
/// the dynamized index (DESIGN.md §13.1): a deleted row stays in place and is
/// flagged here, and the scans (BranchAndBoundEngine, SequentialScanner, the
/// buffer scan) drop flagged ids before the match kernel runs, so a deleted
/// row is never a candidate.
///
/// Published copy-on-write: a writer copies the current version, flags one
/// more row, and swaps the pointer. A query that pinned a version never sees
/// it change, so readers need no lock.
class DeletedRows {
 public:
  explicit DeletedRows(size_t rows) : bits_(rows) {}

  /// Rows covered (flagged or not).
  size_t size() const { return bits_.size(); }

  /// Rows flagged.
  size_t count() const { return count_; }

  bool contains(TransactionId row) const { return bits_.GetUnchecked(row); }

  /// Flags `row`; false when it was already flagged.
  bool Insert(TransactionId row) {
    if (bits_.Get(row)) return false;
    bits_.Set(row);
    ++count_;
    return true;
  }

  /// Compacts `ids[0, n)` in place to the unflagged ids, keeping their
  /// order, and returns how many remain. Allocation-free (hot path).
  size_t RemoveFlagged(TransactionId* ids, size_t n) const {
    size_t kept = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!contains(ids[i])) ids[kept++] = ids[i];
    }
    return kept;
  }

 private:
  Bitset bits_;
  size_t count_ = 0;
};

}  // namespace mbi

#endif  // MBI_TXN_DELETED_ROWS_H_
