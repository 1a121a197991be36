#ifndef MBI_TXN_CANDIDATE_LAYOUT_H_
#define MBI_TXN_CANDIDATE_LAYOUT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "kernel/blocked_layout.h"
#include "txn/database.h"

namespace mbi {

struct CandidateLayoutConfig {
  /// Upper bound on the dense (frequent-item) band width in bits; rounded
  /// down to a multiple of 64. Items beyond the `max_dense_bits` most
  /// frequent take the sparse-probe tail path. The default covers the whole
  /// universe for the datasets in bench/ (universe 1000), so the tail only
  /// activates on genuinely wide universes.
  uint32_t max_dense_bits = 1024;
};

/// Database-wide blocked candidate bitmap (kernel/blocked_layout.h): row r
/// holds transaction tid_of_row(r)'s dense frequent-item bits and its
/// infrequent-item tail. Rows are in a caller-chosen order — transaction-id
/// (TID) order by default, or a signature table's entry order, so that each
/// table entry is one contiguous row range the match kernel streams
/// (SignatureTable::EntryRowOrder). Every kernel call (PackedTarget's batch
/// forms) indexes *rows*, which are TIDs only in TID order.
///
/// Immutable, like the signature table it serves: engines check once, when
/// they are bound, that it covers exactly the database's rows (and, for
/// BranchAndBoundEngine, that its rows are in the table's entry order), and
/// then score every candidate through it.
class CandidateLayout {
 public:
  CandidateLayout() = default;

  /// Layout with rows in TID order (row r is transaction r).
  static CandidateLayout Build(const TransactionDatabase& database,
                               const CandidateLayoutConfig& config = {});

  /// Layout with row r holding transaction `tid_of_row[r]`, which must be a
  /// permutation of the database's ids (aborts otherwise); an empty order is
  /// TID order.
  static CandidateLayout Build(const TransactionDatabase& database,
                               std::vector<TransactionId> tid_of_row,
                               const CandidateLayoutConfig& config = {});

  /// Number of transactions covered (rows [0, num_rows) are valid).
  size_t num_rows() const { return blocked_.num_rows(); }
  uint32_t universe_size() const { return universe_size_; }
  const kernel::BlockedLayout& blocked() const { return blocked_; }

  /// True when built without a row order: row r holds transaction r, so
  /// TIDs index rows directly.
  bool in_tid_order() const { return tid_of_row_.empty(); }

  /// Transaction held by `row`.
  TransactionId tid_of_row(size_t row) const {
    return in_tid_order() ? static_cast<TransactionId>(row) : tid_of_row_[row];
  }

 private:
  kernel::BlockedLayout blocked_;
  uint32_t universe_size_ = 0;
  // Empty in TID order.
  std::vector<TransactionId> tid_of_row_;
};

}  // namespace mbi

#endif  // MBI_TXN_CANDIDATE_LAYOUT_H_
