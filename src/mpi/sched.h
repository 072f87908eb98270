// Deterministic cooperative scheduling of the one-thread-per-rank runtime.
//
// The simulator keeps one OS thread per MPI rank, but virtual time lives in
// state shared between those threads: device arenas, the timed resources of
// every device, and each process's inbox. With free-running threads the
// *real-time* order in which two ranks hit a shared arena or reserve a
// shared PCI-E link decides allocation offsets and reservation start times,
// so identical runs produce slightly different virtual schedules (the
// ROADMAP's fig10 jitter, and reservation-order jitter in every
// shared-resource bench).
//
// TurnScheduler removes the races without giving up the thread-per-rank
// structure: exactly one rank thread executes at a time, and the turn is
// handed over only at deterministic program points -
//
//   * a rank blocks waiting for messages and its inbox is empty
//     (Process::progress_blocking), or
//   * a rank polls an empty inbox (Process::progress from iprobe/test
//     spin loops) - it yields one round-robin turn but stays runnable, or
//   * a rank's SPMD function returns (or throws).
//
// The successor is always the next runnable rank in round-robin order, so
// the global interleaving - and with it every allocation offset, resource
// reservation order and inbox arrival order - is a pure function of the
// program. A side benefit: "all remaining ranks blocked on empty inboxes"
// is detected exactly, so deadlocks surface immediately instead of after a
// real-time timeout.
#pragma once

#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

#include "vtime/engine.h"

namespace gpuddt::mpi {

/// The legacy thread-backed scheduler. The default backend is now the
/// event-driven vt::EventEngine (vtime/engine.h), which implements the
/// identical handoff policy with resumable continuations instead of
/// parked OS threads; TurnScheduler is kept as the reference
/// implementation the scheduler-equivalence suite replays against.
class TurnScheduler final : public vt::TaskScheduler {
 public:
  explicit TurnScheduler(int nranks);

  /// Block until it is `rank`'s first turn. Called once per rank thread
  /// before any user code runs; rank 0 goes first.
  void start(int rank);

  /// The rank's thread is leaving (normal return or exception): drop out
  /// of the rotation and hand the turn onward.
  void finish(int rank);

  /// Yield the turn until a message is pending for `rank`. Returns
  /// immediately if one was delivered since the last wait. Throws
  /// vt::DeadlockError when every remaining rank is blocked on an empty
  /// inbox (deadlock); the message lists each blocked rank's pending
  /// operations when a block describer is installed.
  void wait_for_message(int rank) override;

  /// Polling yield (empty-inbox Process::progress): give every other
  /// runnable rank one turn, then resume. The caller stays runnable, so
  /// iprobe/test spin loops cannot starve their peers. No-op when no
  /// other rank can run.
  void yield(int rank) override;

  /// A message was delivered to `dst`'s inbox. Called by the turn holder
  /// (the only executing thread) from Process::deliver.
  void note_message(int dst) override;

  /// Install the pending-op describer consulted when composing deadlock
  /// reports. Called while the turn holder executes and every other
  /// thread is parked, so it may read cross-rank protocol state.
  void set_block_describer(vt::BlockDescriber d) override;

 private:
  enum class State { kRunnable, kBlocked, kFinished };

  /// Pick the next runnable rank after `from` (round-robin) and wake it;
  /// flags deadlock (and composes the report) when only blocked ranks
  /// remain.
  void pass_turn_locked(int from);
  [[noreturn]] void throw_deadlock() const;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<State> state_;
  std::vector<bool> pending_;  // message delivered since last wait/poll
  vt::BlockDescriber describer_;
  std::string deadlock_report_;
  int active_ = 0;
  bool deadlock_ = false;
};

}  // namespace gpuddt::mpi
