#include "check/access_tracker.h"

#include <algorithm>
#include <cstdio>

#include "check/config.h"
#include "simgpu/machine.h"

namespace gpuddt::check {

namespace {

/// Per-buffer history cap. Beyond it the oldest half is dropped (and
/// counted): a record that old is almost always final-ordered anyway, and
/// the cap bounds both memory and the per-op scan.
constexpr std::size_t kMaxRecordsPerBuffer = 8192;

std::string queue_string(const void* queue, const char* name) {
  if (name != nullptr) return name;
  if (queue == nullptr) return "host";
  char buf[24];
  std::snprintf(buf, sizeof buf, "%p", queue);
  return buf;
}

AccessDesc describe(const char* label, const void* queue,
                    const char* queue_name, std::uintptr_t lo,
                    std::uintptr_t hi, vt::Time start, vt::Time finish,
                    bool write) {
  AccessDesc d;
  d.label = label != nullptr ? label : "op";
  d.queue = queue_string(queue, queue_name);
  d.ptr = lo;
  d.len = static_cast<std::int64_t>(hi - lo);
  d.start = start;
  d.finish = finish;
  d.write = write;
  return d;
}

}  // namespace

AccessTracker::AccessTracker(sg::Machine& machine) : machine_(machine) {}

void AccessTracker::set_recorder(obs::Recorder* rec) {
  std::lock_guard<std::mutex> lock(mu_);
  rec_ = rec;
  if (rec_ == nullptr) return;
  // Pre-register so a checked run's dump always carries the counters.
  rec_->metrics().counter("check.ops");
  rec_->metrics().counter("check.ranges");
  rec_->metrics().counter("check.hazards");
  rec_->metrics().counter("check.history.dropped");
}

std::int64_t AccessTracker::ops() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_;
}

std::int64_t AccessTracker::hazards() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hazards_;
}

void AccessTracker::scan_and_insert(Buffer& buf, const Record& r) {
  // Records whose running-max finish is <= r.start cannot overlap r's
  // window; max_finish is non-decreasing, so binary-search the first
  // candidate. Fully ordered (sequential) traffic scans nothing here.
  const auto it = std::upper_bound(buf.max_finish.begin(),
                                   buf.max_finish.end(), r.start);
  for (std::size_t i =
           static_cast<std::size_t>(it - buf.max_finish.begin());
       i < buf.recs.size(); ++i) {
    const Record& o = buf.recs[i];
    if (o.op_seq == r.op_seq) continue;  // ranges of the same operation
    if (!(o.write || r.write)) continue;
    if (!(o.start < r.finish && r.start < o.finish)) continue;  // ordered
    if (!(std::max(o.lo, r.lo) < std::min(o.hi, r.hi))) continue;
    ++hazards_;
    obs::count(rec_, "check.hazards");
    // `o` predates `r` in program order; classify by guaranteed start.
    const bool o_first = o.start <= r.start;
    const Record& first = o_first ? o : r;
    const Record& second = o_first ? r : o;
    Diagnostic d;
    d.kind = "hazard";
    d.type = first.write ? (second.write ? "WAW" : "RAW") : "WAR";
    d.device = buf.device;
    d.a = describe(first.label, first.queue, first.queue_name, first.lo,
                   first.hi, first.start, first.finish, first.write);
    d.b = describe(second.label, second.queue, second.queue_name, second.lo,
                   second.hi, second.start, second.finish, second.write);
    d.message = "unordered overlapping accesses (device " +
                std::to_string(buf.device) + "): " + d.a.label + " [" +
                d.a.queue + "] vs " + d.b.label + " [" + d.b.queue + "]";
    report(std::move(d));
  }
  if (buf.recs.size() >= kMaxRecordsPerBuffer) compact(buf);
  buf.recs.push_back(r);
  buf.max_finish.push_back(buf.max_finish.empty()
                               ? r.finish
                               : std::max(buf.max_finish.back(), r.finish));
}

void AccessTracker::compact(Buffer& buf) {
  const std::size_t drop = buf.recs.size() / 2;
  add_dropped(static_cast<std::int64_t>(drop));
  obs::count(rec_, "check.history.dropped", static_cast<std::int64_t>(drop));
  buf.recs.erase(buf.recs.begin(),
                 buf.recs.begin() + static_cast<std::ptrdiff_t>(drop));
  buf.max_finish.clear();
  vt::Time running = 0;
  for (const Record& r : buf.recs) {
    running = std::max(running, r.finish);
    buf.max_finish.push_back(running);
  }
}

void AccessTracker::on_op(const sg::OpInfo& info,
                          std::span<const sg::MemRange> ranges) {
  std::lock_guard<std::mutex> lock(mu_);
  ++ops_;
  obs::count(rec_, "check.ops");
  // Normalize: drop empty ranges, then merge touching same-kind ranges so
  // a many-unit kernel costs rows, not units.
  scratch_.assign(ranges.begin(), ranges.end());
  std::erase_if(scratch_, [](const sg::MemRange& r) {
    return r.ptr == nullptr || r.len <= 0;
  });
  std::sort(scratch_.begin(), scratch_.end(),
            [](const sg::MemRange& a, const sg::MemRange& b) {
              if (a.write != b.write) return a.write < b.write;
              return a.ptr < b.ptr;
            });
  std::size_t out = 0;
  for (std::size_t i = 0; i < scratch_.size(); ++i) {
    const auto* lo = static_cast<const std::byte*>(scratch_[i].ptr);
    if (out > 0 && scratch_[out - 1].write == scratch_[i].write) {
      auto& prev = scratch_[out - 1];
      const auto* prev_hi =
          static_cast<const std::byte*>(prev.ptr) + prev.len;
      if (lo <= prev_hi) {
        prev.len = std::max(prev.len,
                            (lo - static_cast<const std::byte*>(prev.ptr)) +
                                scratch_[i].len);
        continue;
      }
    }
    scratch_[out++] = scratch_[i];
  }
  scratch_.resize(out);

  const std::uint64_t seq = next_seq_++;
  std::int64_t tracked = 0;
  for (const sg::MemRange& mr : scratch_) {
    // Key the range by its containing allocation; unregistered host
    // memory (plain std::vector staging and the like) is not tracked.
    const sg::PtrAttributes attr = machine_.query(mr.ptr);
    const void* base = nullptr;
    int device = -1;
    if (attr.space == sg::MemorySpace::kDevice) {
      base = machine_.device(attr.device).arena().allocation_span(mr.ptr).first;
      device = attr.device;
    } else if (attr.space != sg::MemorySpace::kUnregisteredHost) {
      base = machine_.host_block_span(mr.ptr).first;
    } else {
      continue;
    }
    if (base == nullptr) continue;
    Record r;
    r.lo = reinterpret_cast<std::uintptr_t>(mr.ptr);
    r.hi = r.lo + static_cast<std::uintptr_t>(mr.len);
    r.start = info.start;
    r.finish = std::max(info.finish, info.start + 1);  // half-open, non-empty
    r.op_seq = seq;
    r.label = info.label;
    r.queue = info.queue;
    r.queue_name = info.queue_name;
    r.write = mr.write;
    Buffer& buf = buffers_[reinterpret_cast<std::uintptr_t>(base)];
    buf.device = device;
    scan_and_insert(buf, r);
    ++tracked;
  }
  obs::count(rec_, "check.ranges", tracked);
  add_tracked(1, tracked);
}

void AccessTracker::on_release(const void* ptr, std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto lo = reinterpret_cast<std::uintptr_t>(ptr);
  buffers_.erase(buffers_.lower_bound(lo), buffers_.lower_bound(lo + bytes));
}

void AccessTracker::on_reset() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.clear();
}

AccessTracker* tracker_of(sg::Machine& machine) {
  return dynamic_cast<AccessTracker*>(machine.observer());
}

void set_recorder(sg::Machine& machine, obs::Recorder* rec) {
  if (AccessTracker* t = tracker_of(machine)) t->set_recorder(rec);
}

}  // namespace gpuddt::check

namespace gpuddt::sg {

std::unique_ptr<AccessObserver> make_default_observer(Machine& machine) {
  if (!check::enabled_for(machine.config().check)) return nullptr;
  return std::make_unique<check::AccessTracker>(machine);
}

}  // namespace gpuddt::sg
