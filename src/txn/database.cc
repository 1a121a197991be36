#include "txn/database.h"

#include "util/macros.h"

namespace mbi {

TransactionDatabase::TransactionDatabase(uint32_t universe_size)
    : universe_size_(universe_size) {
  MBI_CHECK(universe_size > 0);
}

TransactionId TransactionDatabase::Add(Transaction transaction) {
  if (!transaction.empty()) {
    MBI_CHECK_MSG(transaction.items().back() < universe_size_,
                  "transaction contains an item outside the universe");
  }
  transactions_.push_back(std::move(transaction));
  MBI_CHECK_MSG(transactions_.size() <= kInvalidTransactionId,
                "database exceeds the TransactionId range");
  return static_cast<TransactionId>(transactions_.size() - 1);
}

const Transaction& TransactionDatabase::Get(TransactionId id) const {
  MBI_CHECK(id < transactions_.size());
  return transactions_[id];
}

double TransactionDatabase::AverageTransactionSize() const {
  if (transactions_.empty()) return 0.0;
  return static_cast<double>(TotalItemOccurrences()) /
         static_cast<double>(transactions_.size());
}

uint64_t TransactionDatabase::TotalItemOccurrences() const {
  uint64_t total = 0;
  for (const auto& transaction : transactions_) total += transaction.size();
  return total;
}

std::string DatasetName(int avg_transaction_size, int avg_itemset_size,
                        uint64_t num_transactions) {
  std::string size_text;
  if (num_transactions % 1'000'000 == 0 && num_transactions > 0) {
    size_text = std::to_string(num_transactions / 1'000'000) + "M";
  } else if (num_transactions % 1'000 == 0 && num_transactions > 0) {
    size_text = std::to_string(num_transactions / 1'000) + "K";
  } else {
    size_text = std::to_string(num_transactions);
  }
  // Built with plain appends, not a `"T" + ... + ...` chain: the temporary
  // concatenations trip GCC 12's -Wrestrict false positive (PR 105651) at -O2+.
  std::string name = "T";
  name += std::to_string(avg_transaction_size);
  name += ".I";
  name += std::to_string(avg_itemset_size);
  name += ".D";
  name += size_text;
  return name;
}

}  // namespace mbi
