#ifndef MBI_TXN_DATABASE_H_
#define MBI_TXN_DATABASE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "txn/transaction.h"

namespace mbi {

/// An in-memory collection of transactions over a fixed item universe.
///
/// This is the logical database the index is built over. The physical,
/// page-oriented layout lives in `storage/TransactionStore`; keeping the two
/// separate lets the query engines account for simulated disk I/O while tests
/// and examples work directly against the logical view.
class TransactionDatabase {
 public:
  /// Creates an empty database over items `0 .. universe_size-1`.
  explicit TransactionDatabase(uint32_t universe_size);

  /// Appends a transaction and returns its id. Items must be within the
  /// universe (checked).
  TransactionId Add(Transaction transaction);

  const Transaction& Get(TransactionId id) const;
  size_t size() const { return transactions_.size(); }
  bool empty() const { return transactions_.empty(); }
  uint32_t universe_size() const { return universe_size_; }

  const std::vector<Transaction>& transactions() const { return transactions_; }

  /// Average number of items per transaction; 0 for an empty database.
  double AverageTransactionSize() const;

  /// Total number of item occurrences across all transactions.
  uint64_t TotalItemOccurrences() const;

 private:
  uint32_t universe_size_;
  std::vector<Transaction> transactions_;
};

/// Formats the paper's dataset naming convention: average transaction size T,
/// mean maximal potentially-large itemset size I, and database size D, e.g.
/// DatasetName(10, 6, 800'000) == "T10.I6.D800K".
std::string DatasetName(int avg_transaction_size, int avg_itemset_size,
                        uint64_t num_transactions);

}  // namespace mbi

#endif  // MBI_TXN_DATABASE_H_
