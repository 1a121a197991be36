#include "txn/packed_target.h"

#include <algorithm>

#include "kernel/dispatch.h"
#include "util/macros.h"

namespace mbi {

MBI_HOT void PackedTarget::Assign(const Transaction& target,
                                  size_t universe_size) {
  Assign(target, universe_size, nullptr);
}

MBI_HOT void PackedTarget::Assign(const Transaction& target,
                                  size_t universe_size,
                                  const CandidateLayout* layout) {
  bits_.ResizeAndClear(universe_size);  // capacity-keeping: no heap when warm
  for (ItemId item : target.items()) {
    MBI_CHECK(item < universe_size);
    bits_.Set(item);
  }
  target_size_ = target.size();
  bound_ = true;
  layout_ = layout;
  if (layout_ == nullptr) return;

  // Pack the target's frequent-item bits into one layout-shaped dense row.
  const kernel::BlockedLayout& blocked = layout_->blocked();
  const size_t words = blocked.words_per_row();
  if (target_row_.size() != words) {
    target_row_.Reset(words);  // Grow-only in steady state: a layout is
                               // built once per database or component.
  } else {
    std::fill_n(target_row_.data(), words, uint64_t{0});
  }
  const kernel::ItemBandMap& band = blocked.band_map();
  for (ItemId item : target.items()) {
    const uint32_t slot = band.DenseSlot(item);
    if (slot != kernel::ItemBandMap::kNotDense) {
      target_row_.data()[slot / 64] |= uint64_t{1} << (slot % 64);
    }
  }
}

template <typename RowOf>
MBI_HOT void PackedTarget::FinishBatch(RowOf row_of, size_t count,
                                       uint32_t* match_out,
                                       uint32_t* hamming_out) const {
  const kernel::BlockedLayout& blocked = layout_->blocked();
  const auto target_size = static_cast<uint32_t>(target_size_);
  for (size_t i = 0; i < count; ++i) {
    const size_t row = row_of(i);
    uint32_t x = match_out[i];
    const auto [tail, tail_count] = blocked.tail(row);
    for (size_t k = 0; k < tail_count; ++k) {
      x += bits_.GetUnchecked(tail[k]) ? 1u : 0u;
    }
    match_out[i] = x;
    hamming_out[i] = (target_size - x) + (blocked.row_size(row) - x);
  }
}

MBI_HOT void PackedTarget::MatchAndHammingBatch(const uint32_t* rows,
                                                size_t count,
                                                uint32_t* match_out,
                                                uint32_t* hamming_out) const {
  MBI_CHECK(layout_ != nullptr);
  const kernel::BlockedLayout& blocked = layout_->blocked();
  kernel::ActiveKernels().match_rows(target_row_.data(), blocked.rows(),
                                     blocked.stride_words(),
                                     blocked.words_per_row(), rows, count,
                                     match_out);
  FinishBatch([rows](size_t i) { return size_t{rows[i]}; }, count, match_out,
              hamming_out);
}

MBI_HOT void PackedTarget::MatchAndHammingRows(size_t first_row, size_t count,
                                               uint32_t* match_out,
                                               uint32_t* hamming_out) const {
  MBI_CHECK(layout_ != nullptr);
  const kernel::BlockedLayout& blocked = layout_->blocked();
  kernel::ActiveKernels().match_rows(target_row_.data(),
                                     blocked.row(first_row),
                                     blocked.stride_words(),
                                     blocked.words_per_row(),
                                     /*ids=*/nullptr, count, match_out);
  FinishBatch([first_row](size_t i) { return first_row + i; }, count,
              match_out, hamming_out);
}

}  // namespace mbi
