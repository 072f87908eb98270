#include "mpi/cursor.h"

#include <stdexcept>

namespace gpuddt::mpi {

BlockCursor::BlockCursor(DatatypePtr dt, std::int64_t count,
                         ProgramView view)
    : dt_(std::move(dt)), count_(count) {
  if (count < 0) throw std::invalid_argument("BlockCursor: negative count");
  prog_ = view == ProgramView::kCanonical ? &dt_->canonical_program()
                                          : &dt_->program();
  total_ = remaining_ = dt_->size() * count_;
  if (count_ == 0 || prog_->empty()) remaining_ = total_ = 0;
  elem_base_ = 0;
  // Position on the first block, so next() and take() always start on one.
  if (remaining_ > 0) {
    ip_ = -1;  // advance_instr pre-increments
    advance_instr();
  }
}

/// Move the instruction pointer past the just-finished instruction,
/// unwinding loop frames and element boundaries as needed. On return,
/// either remaining_ == 0 or ip_ points at a kBlock ready to emit, with
/// the correct frame base on top of the stack.
void BlockCursor::advance_instr() {
  const auto& prog = *prog_;
  ++ip_;
  for (;;) {
    if (ip_ >= static_cast<std::int32_t>(prog.size())) {
      // End of one element.
      if (!stack_.empty()) {
        // Malformed program (loop without end) - treat as element end.
        stack_.clear();
      }
      ++elem_;
      if (elem_ >= count_) return;  // fully done
      elem_base_ = elem_ * dt_->extent();
      ip_ = 0;
      continue;
    }
    const Instr& in = prog[ip_];
    if (in.op == Instr::Op::kBlock) {
      return;
    }
    if (in.op == Instr::Op::kLoop) {
      if (in.count <= 0) {
        ip_ = in.body_end + 1;
        continue;
      }
      Frame f;
      f.loop_instr = ip_;
      f.iter = 0;
      f.origin = (stack_.empty() ? elem_base_ : stack_.back().base) + in.disp;
      f.base = f.origin;
      stack_.push_back(f);
      ++ip_;
      continue;
    }
    // kEndLoop
    Frame& f = stack_.back();
    const Instr& lp = prog[f.loop_instr];
    ++f.iter;
    if (f.iter < lp.count) {
      f.base = f.origin + f.iter * lp.step;
      ip_ = f.loop_instr + 1;
    } else {
      stack_.pop_back();
      ++ip_;
    }
  }
}

bool BlockCursor::next(std::int64_t max_bytes, Block* out) {
  if (remaining_ == 0 || max_bytes <= 0) return false;
  const Instr& blk = (*prog_)[ip_];
  const std::int64_t base = stack_.empty() ? elem_base_ : stack_.back().base;
  const std::int64_t avail = blk.len - in_block_;
  const std::int64_t n = std::min(avail, max_bytes);
  out->offset = base + blk.disp + in_block_;
  out->len = n;
  remaining_ -= n;
  ++pieces_;
  // in_block_ is written on one branch only. Updating it next to
  // remaining_ let GCC -O2 merge both into one 16-byte vector store,
  // which made next() about twice as slow per piece on x86-64.
  if (n < avail) {
    in_block_ += n;  // the next call resumes inside this block
  } else {
    in_block_ = 0;
    std::int64_t stride = 0;
    if (remaining_ > 0) pass_blocks(1, run_length(&stride));
  }
  return true;
}

}  // namespace gpuddt::mpi
