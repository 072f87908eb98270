// Device-access observation hooks - the simgpu side of src/check/.
//
// Every timed device-memory operation (async copies, kernels, one-sided
// RDMA copies, memsets) can report the byte ranges it touches together
// with its *guaranteed* virtual-time window: the earliest start the
// program's ordering constructs (stream tails, event waits, explicit
// timestamp dependencies) establish, and the finish time that becomes the
// stream tail. An attached AccessObserver derives a happens-before
// relation from those windows; overlapping unordered accesses are the
// stream hazards src/check/access_tracker.h reports.
//
// simgpu only knows this abstract interface; the concrete tracker lives in
// src/check/ (which depends on these headers, never the reverse).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "vtime/vclock.h"

namespace gpuddt::sg {

class Machine;

/// One byte range an operation reads or writes.
struct MemRange {
  const void* ptr = nullptr;
  std::int64_t len = 0;
  bool write = false;
};

/// Identity and guaranteed time window of one device operation.
struct OpInfo {
  /// Static label naming the operation ("memcpy_async", "pack_dev", ...).
  const char* label = "op";
  /// Issuing queue identity: the Stream for stream-ordered operations,
  /// nullptr for host-synchronous or explicitly-timed (TimedCopy) ones.
  const void* queue = nullptr;
  /// Optional queue name (Stream::name()); may be null.
  const char* queue_name = nullptr;
  /// Device the operation executes on (-1 for pure host operations).
  int device = -1;
  /// Guaranteed earliest start: max(stream tail, host clock, explicit
  /// dependency) *before* any resource reservation - contention may delay
  /// the real start further, but that delay is timing luck, not ordering.
  vt::Time start = 0;
  /// Guaranteed finish (what the stream tail is raised to).
  vt::Time finish = 0;
};

/// Abstract sink for access registration. Implemented by
/// check::AccessTracker; null observer = checking off (the default).
class AccessObserver {
 public:
  virtual ~AccessObserver() = default;

  /// An operation with guaranteed window [info.start, info.finish)
  /// touching `ranges`. Ranges in unregistered host memory are ignored by
  /// the tracker (their lifetime is invisible to the machine).
  virtual void on_op(const OpInfo& info, std::span<const MemRange> ranges) = 0;

  /// An allocation was released (sg::Free / HostFree): drop tracked state
  /// overlapping [ptr, ptr + bytes) so address reuse cannot alias.
  virtual void on_release(const void* ptr, std::size_t bytes) = 0;

  /// Machine::reset_timing(): virtual timelines restart, so prior access
  /// windows are no longer comparable. Drops all tracked accesses.
  virtual void on_reset() = 0;
};

/// Factory for the machine's default observer, defined in
/// src/check/access_tracker.cpp. Returns null when checking is disabled
/// (MachineConfig::check, then the GPUDDT_CHECK env var decide; see
/// check/config.h). Declared here so Machine can self-attach without
/// simgpu depending on check/ headers.
std::unique_ptr<AccessObserver> make_default_observer(Machine& machine);

}  // namespace gpuddt::sg
