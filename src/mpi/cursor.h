// Datatype traversal.
//
// BlockCursor walks the compiled loop/block program of `count` elements of
// a datatype and yields the contiguous blocks in layout order. It supports
// *partial* consumption (stop mid-block after an exact byte budget), which
// is what lets the PML fragment messages and the GPU engine pipeline
// pack/unpack - the cursor is the moral equivalent of Open MPI's
// convertor position.
//
// Cursor state is a small copyable value: protocols snapshot it freely.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mpi/datatype.h"

namespace gpuddt::mpi {

/// One contiguous piece of a datatype: `offset` bytes from the user base
/// pointer, `len` bytes long.
struct Block {
  std::int64_t offset = 0;
  std::int64_t len = 0;
};

class BlockCursor {
 public:
  /// Which compiled form to traverse. Both emit the same bytes in the
  /// same order; kCanonical walks the normalized program
  /// (mpi/canonical.h) so structurally equal types traverse - and the
  /// DEV conversion compiles - identically.
  enum class ProgramView : std::uint8_t { kCompiled, kCanonical };

  BlockCursor() = default;
  /// Throws std::invalid_argument when `count` is negative.
  BlockCursor(DatatypePtr dt, std::int64_t count,
              ProgramView view = ProgramView::kCompiled);

  /// Produce the next piece, at most `max_bytes` long. Returns false when
  /// the traversal is complete. A block longer than `max_bytes` is split;
  /// the next call resumes inside it.
  bool next(std::int64_t max_bytes, Block* out);

  /// Convenience: full blocks.
  bool next(Block* out) { return next(INT64_MAX, out); }

  /// Produce the next strided run within `max_bytes` as one call
  /// fn(offset, len, stride, k): k pieces of `len` bytes at offset,
  /// offset + stride, ..., offset + (k - 1) * stride. When the cursor
  /// sits at the start of a block that is the only body instruction of
  /// the innermost loop, or the whole one-block program under the
  /// implicit `count` loop, k = min(iterations left, max_bytes / len).
  /// Otherwise the run is the one piece next(max_bytes) yields (k = 1,
  /// stride = len). pieces_produced() advances by k, exactly as k calls
  /// of next() would. Returns false when the traversal is complete.
  template <class Fn>
  bool take(std::int64_t max_bytes, Fn&& fn) {
    return take_run(max_bytes, max_bytes, INT64_MAX, fn);
  }

  /// take() bounded per piece instead of per run: each piece is at most
  /// `max_piece` bytes and the run holds at most `max_pieces` (>= 1) of
  /// them. A block at most `max_piece` long, entered at its start, is
  /// taken whole with the rest of its run; anything else is the one piece
  /// next(max_piece) yields. pieces_produced() advances as for take().
  template <class Fn>
  bool take_pieces(std::int64_t max_piece, std::int64_t max_pieces, Fn&& fn) {
    return take_run(max_piece, INT64_MAX, max_pieces, fn);
  }

  bool done() const { return remaining_ == 0; }
  std::int64_t bytes_remaining() const { return remaining_; }
  std::int64_t bytes_consumed() const { return total_ - remaining_; }
  std::int64_t total_bytes() const { return total_; }

  /// Number of blocks (including partial pieces) produced so far; the cost
  /// model charges host traversal per piece.
  std::int64_t pieces_produced() const { return pieces_; }

 private:
  struct Frame {
    std::int32_t loop_instr = 0;  // index of the kLoop instruction
    std::int64_t iter = 0;
    std::int64_t base = 0;    // frame base of the current iteration
    std::int64_t origin = 0;  // parent base + loop disp
  };

  void advance_instr();
  /// Whole blocks left in the run that starts at the current block (at
  /// least 1), and the distance between them in `*stride`.
  std::int64_t run_length(std::int64_t* stride) const;
  /// Move past `k` whole blocks of the current run of `left` blocks
  /// (1 <= k <= left): arithmetically inside the run, through
  /// advance_instr() past its end.
  void pass_blocks(std::int64_t k, std::int64_t left);
  /// Shared body of take() and take_pieces(): from the start of a block
  /// of len <= max_piece, k = min(iterations left, max_bytes / len,
  /// max_pieces) blocks of the run (INT64_MAX means no byte budget);
  /// otherwise one next(max_piece) piece.
  template <class Fn>
  bool take_run(std::int64_t max_piece, std::int64_t max_bytes,
                std::int64_t max_pieces, Fn& fn);

  DatatypePtr dt_;
  const std::vector<Instr>* prog_ = nullptr;  // selected by ProgramView
  std::int64_t count_ = 0;
  std::int64_t elem_ = 0;      // current element index
  std::int64_t elem_base_ = 0; // elem_ * extent
  std::int32_t ip_ = 0;        // on a kBlock while remaining_ > 0
  std::vector<Frame> stack_;
  std::int64_t in_block_ = 0;  // bytes consumed of the current block
  std::int64_t remaining_ = 0;
  std::int64_t total_ = 0;
  std::int64_t pieces_ = 0;
};

inline std::int64_t BlockCursor::run_length(std::int64_t* stride) const {
  const auto& prog = *prog_;
  if (stack_.empty()) {
    if (prog.size() == 1) {
      *stride = dt_->extent();
      return count_ - elem_;
    }
  } else {
    const Frame& f = stack_.back();
    const Instr& lp = prog[f.loop_instr];
    if (f.loop_instr + 1 == ip_ && lp.body_end == ip_ + 1) {
      *stride = lp.step;
      return lp.count - f.iter;
    }
  }
  *stride = prog[ip_].len;
  return 1;
}

inline void BlockCursor::pass_blocks(std::int64_t k, std::int64_t left) {
  // Stop on the run's last block when it is consumed, and let
  // advance_instr() unwind from there exactly as a per-piece walk would.
  const std::int64_t steps = k < left ? k : k - 1;
  if (steps > 0) {
    if (stack_.empty()) {
      elem_ += steps;
      elem_base_ = elem_ * dt_->extent();
    } else {
      Frame& f = stack_.back();
      f.iter += steps;
      f.base = f.origin + f.iter * (*prog_)[f.loop_instr].step;
    }
  }
  if (k < left) return;
  // Most programs step straight onto the next block; only loop and
  // element boundaries need advance_instr().
  const auto next = static_cast<std::size_t>(ip_) + 1;
  if (next < prog_->size() && (*prog_)[next].op == Instr::Op::kBlock)
    ip_ = static_cast<std::int32_t>(next);
  else
    advance_instr();
}

template <class Fn>
bool BlockCursor::take_run(std::int64_t max_piece, std::int64_t max_bytes,
                           std::int64_t max_pieces, Fn& fn) {
  if (remaining_ == 0 || max_piece <= 0) return false;
  const Instr& blk = (*prog_)[ip_];
  if (in_block_ == 0 && blk.len > 0 && blk.len <= max_piece) {
    std::int64_t stride = 0;
    const std::int64_t left = run_length(&stride);
    std::int64_t k = std::min(left, max_pieces);
    if (max_bytes != INT64_MAX) k = std::min(k, max_bytes / blk.len);
    if (k > 0) {
      const std::int64_t base =
          stack_.empty() ? elem_base_ : stack_.back().base;
      fn(base + blk.disp, blk.len, stride, k);
      remaining_ -= k * blk.len;
      pieces_ += k;
      if (remaining_ > 0) pass_blocks(k, left);
      return true;
    }
  }
  Block b;
  if (!next(max_piece, &b)) return false;
  fn(b.offset, b.len, b.len, std::int64_t{1});
  return true;
}

}  // namespace gpuddt::mpi
