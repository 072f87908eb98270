// The mini-MPI runtime.
//
// Mirrors the Open MPI architecture the paper integrates into:
//   * Runtime  - runs every rank on a shared simulated Machine, owns the
//                BTL instances and the Active-Message handler table (the
//                paper's Section 4 plumbing).
//   * Process  - the per-rank context: virtual clock, GPU HostContext,
//                inbox of Active Messages, PML instance.
//
// By default every rank is a resumable continuation dispatched by one
// event loop on the calling thread (SchedBackend::kEvent); the reference
// thread backend (kThreads) gives each rank an OS thread instead. A rank-to-node map
// decides whether a pair of ranks communicates over the shared-memory BTL
// or the simulated InfiniBand BTL.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "simgpu/runtime.h"
#include "vtime/engine.h"
#include "vtime/vclock.h"

namespace gpuddt::obs {
class Recorder;
}

namespace gpuddt::mpi {

class Runtime;
class Process;
class Pml;
class Btl;
class Bml;
class GpuTransferPlugin;

/// Which engine drives the deterministic cooperative schedule.
enum class SchedBackend {
  kThreads,  ///< reference mpi::TurnScheduler: one parked OS thread per rank
  kEvent,    ///< vt::EventEngine: resumable continuations, one OS thread
};

/// A BTL-level Active Message: the receiver runs the registered handler
/// for `handler` when it progresses its inbox ([4] in the paper).
struct AmMessage {
  int handler = 0;
  int src_rank = -1;
  vt::Time arrival = 0;  // virtual time the bytes are available
  std::vector<std::byte> payload;
};

using AmHandler = std::function<void(Process&, AmMessage&)>;

struct RuntimeConfig {
  int world_size = 2;
  /// Ranks [k*ranks_per_node, (k+1)*ranks_per_node) live on node k and
  /// talk over the shared-memory BTL; other pairs use the IB BTL.
  int ranks_per_node = 1 << 30;  // default: single node
  /// Device selection; default: rank % num_devices.
  std::function<int(int)> device_of;
  sg::MachineConfig machine;

  // --- PML / protocol knobs ---------------------------------------------
  std::size_t eager_limit = 64 * 1024;
  /// Device-resident sends at or below this size skip the rendezvous
  /// handshake entirely: the engine packs into a zero-copy host buffer
  /// and the bytes travel as one eager Active Message (the "short/eager"
  /// tier of the paper's Section 4 protocol selection).
  std::size_t gpu_eager_limit = 16 * 1024;
  std::size_t frag_bytes = 512 * 1024;       // host rendezvous fragment
  std::size_t gpu_frag_bytes = 512 * 1024;   // GPU pipeline fragment
  int gpu_pipeline_depth = 4;                // staging slots
  bool ipc_enabled = true;        // CUDA IPC available within a node
  bool gpudirect_rdma = false;    // direct GPU<->NIC path (off: host staging)
  /// Number of InfiniBand rails per node pair; large messages round-robin
  /// across them (the BML's multi-link transfer management).
  int ib_rails = 1;
  /// Above this size GPUDirect RDMA loses to host staging ([14], ~30KB);
  /// the protocol falls back to the pipelined copy-in/out.
  std::int64_t gpudirect_limit_bytes = 30 * 1024;
  bool zero_copy = true;          // UMA-mapped host bounce buffers
  /// Receiver of an inter-GPU RDMA copies packed fragments into a local
  /// staging buffer before unpacking (Section 5.2: 10-20% faster than
  /// unpacking straight out of remote device memory).
  bool recv_local_staging = true;
  /// Pipelined RDMA direction (Section 4.1 mentions both): GET (default,
  /// receiver pulls each packed fragment from the sender's exposed
  /// staging) or PUT (the sender pushes each fragment into the receiver's
  /// exposed staging ring).
  bool rdma_put_mode = false;
  /// Stream-triggered fragment chains (docs/protocols.md): pre-enqueue
  /// the whole pack -> RDMA GET -> unpack -> credit chain as stream/event
  /// dependencies after one rendezvous, removing the per-fragment
  /// FragReady/FragFree host round-trips. Tri-state (obs/knobs.h): -1
  /// follows the GPUDDT_STREAM_TRIGGERED env var (off when unset), 0/1
  /// force off/on.
  int stream_triggered = -1;
  /// Work-unit size S of the GPU datatype engine (Section 3.2).
  std::int64_t dev_unit_bytes = 1024;
  bool dev_cache_enabled = true;
  /// Byte bound on each rank's DEV cache descriptor footprint (0 = entry
  /// budget only).
  std::int64_t dev_cache_max_bytes = 0;
  /// Pipeline host-side DEV conversion with kernel execution (Section 3.2;
  /// off reproduces the Figure 7 non-pipelined baseline).
  bool dev_pipeline_conversion = true;
  /// CUDA blocks per pack/unpack kernel (Section 5.3 resource sweep).
  int gpu_kernel_blocks = 64;
  /// Force the copy-in/out protocol even when IPC would be available.
  bool force_copy_inout = false;

  /// Which scheduler implements the deterministic round-robin rotation
  /// (vtime/engine.h, mpi/sched.h): ranks take turns, so every touch of
  /// shared virtual-time state (arenas, timed resources, inboxes) happens
  /// in a program-defined order and repeat runs are bit-identical. Both
  /// backends produce byte-identical virtual schedules (the equivalence
  /// suite pins this); the event backend scales to 1000+ ranks.
  SchedBackend sched_backend = SchedBackend::kEvent;

  /// Usable stack bytes per rank continuation (event backend only). Rank
  /// bodies run protocol code on these stacks; the default fits the
  /// deepest existing path (collectives over rendezvous over DEV) with
  /// ample headroom, and a guard page faults on overflow.
  std::size_t sim_stack_bytes = std::size_t{1} << 20;

  /// Inert: nothing reads it. Both schedulers detect deadlock exactly, so
  /// there is no real-time watchdog left to bound. Kept only because the
  /// wall-clock benchmark (perfbench/bench.cpp) still assigns it; remove
  /// it together with that assignment.
  int progress_timeout_ms = 30000;

  /// Optional observability sink shared by every rank (counters,
  /// histograms, trace events; see obs/recorder.h). Nullable - the
  /// runtime is silent when unset. Thread-safe by construction.
  obs::Recorder* recorder = nullptr;
};

/// Per-rank context. All of a rank's protocol state is mutated only from
/// its own thread (AM handlers run during that rank's progress calls).
class Process {
 public:
  Process(Runtime& rt, int rank);
  ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  int rank() const { return rank_; }
  int size() const;
  int node() const { return node_; }

  Runtime& runtime() { return rt_; }
  const RuntimeConfig& config() const;

  /// The rank's virtual clock (shared with its GPU context).
  vt::VClock& clock() { return gpu_.clock; }
  sg::HostContext& gpu() { return gpu_; }

  Pml& pml() { return *pml_; }

  // --- Messaging -------------------------------------------------------
  /// Send an Active Message to `dst` through the right BTL. `earliest`
  /// expresses a virtual-time dependency (e.g. a pack-kernel finish); the
  /// wire transfer starts no earlier than max(clock, earliest).
  vt::Time am_send(int dst, int handler, std::vector<std::byte> payload,
                   vt::Time earliest = 0);

  /// Drain and dispatch pending messages; returns true if any ran.
  bool progress();

  /// Block until at least one message is processed; the scheduler runs
  /// the peers meanwhile and reports a deadlock when none can progress.
  /// Only valid inside Runtime::run.
  void progress_blocking();

  /// Called by peer threads to enqueue a message.
  void deliver(AmMessage&& m);

  /// Node id of another rank.
  int node_of(int rank) const;

 private:
  Runtime& rt_;
  int rank_;
  int node_;
  sg::HostContext gpu_;
  std::unique_ptr<Pml> pml_;

  std::mutex inbox_mu_;
  std::deque<AmMessage> inbox_;
};

class Runtime {
 public:
  explicit Runtime(RuntimeConfig cfg);
  ~Runtime();

  const RuntimeConfig& config() const { return cfg_; }
  sg::Machine& machine() { return *machine_; }

  /// Register an Active-Message handler; must happen before run(). The
  /// returned id is consistent across ranks (single registration table).
  int register_handler(AmHandler h);

  const AmHandler& handler(int id) const { return handlers_.at(id); }

  /// Install the GPU transfer plugin (the paper's datatype-engine
  /// integration). Must precede run(); may be null (host-only MPI).
  void set_gpu_plugin(std::shared_ptr<GpuTransferPlugin> plugin);
  GpuTransferPlugin* gpu_plugin() { return plugin_.get(); }

  /// SPMD entry: run `fn` once per rank. Under the default event backend
  /// every rank is a resumable continuation dispatched by one event loop
  /// on the calling thread; the thread backend spawns one OS thread per
  /// rank. The lowest-failing-rank exception is rethrown at the end.
  void run(const std::function<void(Process&)>& fn);

  Process& process(int rank) { return *procs_.at(rank); }
  Btl& btl_between(int a, int b);
  Bml& bml() { return *bml_; }

  int device_of(int rank) const;
  int node_of(int rank) const {
    return rank / cfg_.ranks_per_node;
  }

  /// The cooperative scheduler; null outside run().
  vt::TaskScheduler* scheduler() { return sched_; }

  /// Event-loop counters from the last run (all zero after thread-backend
  /// runs). Deterministic for a fixed program, so
  /// bench_sim_throughput gates them byte-exactly.
  const vt::EngineStats& sim_stats() const { return sim_stats_; }

 private:
  void run_threads(const std::function<void(Process&)>& fn);
  void run_event_loop(const std::function<void(Process&)>& fn);

  RuntimeConfig cfg_;
  std::unique_ptr<sg::Machine> machine_;
  std::vector<AmHandler> handlers_;
  std::shared_ptr<GpuTransferPlugin> plugin_;
  std::unique_ptr<Bml> bml_;
  std::vector<std::unique_ptr<Process>> procs_;
  vt::TaskScheduler* sched_ = nullptr;
  vt::EngineStats sim_stats_;
  bool ran_ = false;
};

}  // namespace gpuddt::mpi
