// GPU transfer protocols - Section 4 of the paper.
//
// GpuDatatypePlugin is the integration of the GPU datatype engine with the
// PML/BTL stack. It implements:
//
//  * GPU eager tier: a device send of at most `gpu_eager_limit` bytes is
//    packed into a zero-copy host buffer and shipped as one eager AM, with
//    no handshake; the receiver unpacks straight from the arrived bytes.
//
//  * Pipelined RDMA protocol (Section 4.1, TransferMode::kIpcRdma):
//    one-time RDMA connection (IPC memory-handle exchange with a
//    registration cache), BTL-level Active Messages, a receiver-driven GET
//    with fragment-indexed pack / unpack-ready / fragment-free messages so
//    sender packing, wire transfer and receiver unpacking proceed
//    concurrently over a ring of `depth` staging slots.
//    Handshake shortcuts: a contiguous sender exposes its source buffer
//    and the receiver drives the whole transfer (kRdmaRecvDriven); a
//    contiguous receiver exposes its destination and the sender packs
//    straight into remote memory (kRdmaPackToRemote).
//
//  * Stream-triggered chains (TransferMode::kStreamTriggered): the same
//    pipeline with the per-fragment recurrence enqueued at rendezvous time
//    as stream/event dependencies instead of FragReady/FragFree AMs, so no
//    host wakes per fragment. Opt-in (GPUDDT_STREAM_TRIGGERED,
//    obs/knobs.h); GET mode only.
//
//  * Copy-in/copy-out protocol (Section 4.2, TransferMode::kHostFrags):
//    when IPC / GPUDirect is unavailable (different nodes, or disabled),
//    packed fragments are staged through host memory - by default through
//    zero-copy UMA-mapped bounce buffers so the device<->host movement is
//    done "by hardware" and overlaps the pack/unpack kernels - and shipped
//    as ordinary PML fragments, interoperating with host-side peers.
//
// The receiver picks the mode in its CTS, exactly like the paper's GET
// handshake. Every mode is a short driver over shared fragment steps - a
// sender step (pack into a ring slot once its credit returned) and a
// receiver step (optionally GET into a local slot, then unpack) - run
// either by AM handlers (host-driven) or by one forward pass
// (stream-triggered); docs/protocols.md, "Fragment steps".
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/engine.h"
#include "mpi/btl.h"
#include "mpi/pml.h"
#include "mpi/runtime.h"

namespace gpuddt::proto {

/// Per-rank transfer statistics: which protocol handled each message, the
/// payload volume, and registration-cache behaviour. The transfer and
/// byte counters are the receiver's; ipc_opens/ipc_reuses count every
/// handle this rank opened, which includes the sender's opens of the
/// receiver's memory (PUT mode, kRdmaPackToRemote). Read from the owning
/// rank's thread, or after run() returns.
struct TransferStats {
  std::int64_t rdma_pipelined = 0;     // kIpcRdma transfers completed
  std::int64_t rdma_recv_driven = 0;   // contiguous-sender shortcut
  std::int64_t rdma_pack_remote = 0;   // contiguous-receiver shortcut (CTS'd)
  std::int64_t stream_triggered = 0;   // kStreamTriggered chains completed
  std::int64_t host_staged = 0;        // copy-in/out transfers completed
  std::int64_t eager_unpacks = 0;      // small host->device eager messages
  std::int64_t bytes_received = 0;     // packed payload bytes received
  std::int64_t fragments = 0;          // pipeline fragments processed
  std::int64_t ipc_opens = 0;          // registration-cache misses
  std::int64_t ipc_reuses = 0;         // registration-cache hits
};

class GpuDatatypePlugin : public mpi::GpuTransferPlugin {
 public:
  GpuDatatypePlugin() = default;

  void attach(mpi::Runtime& rt) override;
  void send_start(mpi::Process& p, mpi::SendRequest& req) override;
  void send_on_cts(mpi::Process& p, mpi::SendRequest& req,
                   const mpi::CtsHeader& cts, vt::Time arrival) override;
  void recv_start(mpi::Process& p, mpi::RecvRequest& req,
                  const mpi::RtsHeader& rts, vt::Time arrival) override;
  void recv_on_frag(mpi::Process& p, mpi::RecvRequest& req,
                    const mpi::FragHeader& hdr,
                    std::span<const std::byte> data, vt::Time arrival) override;
  void recv_eager(mpi::Process& p, mpi::RecvRequest& req,
                  std::span<const std::byte> data, vt::Time arrival) override;
  void recv_fin(mpi::Process& p, mpi::RecvRequest& req,
                vt::Time arrival) override;

  /// The per-rank GPU datatype engine (created lazily from that rank's
  /// thread; also used directly by benchmarks).
  core::GpuDatatypeEngine& engine(mpi::Process& p);

  /// MPI_Pack-style explicit packing: gather `count` elements of `dt`
  /// from `inbuf` into `outbuf` starting at byte *position (updated on
  /// return). Device-resident `inbuf` uses the GPU engine; host buffers
  /// the CPU engine. Returns the bytes packed.
  std::int64_t pack(mpi::Process& p, const void* inbuf, std::int64_t count,
                    const mpi::DatatypePtr& dt, std::span<std::byte> outbuf,
                    std::int64_t* position);

  /// MPI_Unpack-style inverse: scatter from `inbuf` at *position into
  /// `outbuf` laid out as (dt, count).
  std::int64_t unpack(mpi::Process& p, std::span<const std::byte> inbuf,
                      std::int64_t* position, void* outbuf,
                      std::int64_t count, const mpi::DatatypePtr& dt);

  /// This rank's protocol statistics: receive-side transfer counts plus
  /// its registration cache, sender-side opens included (TransferStats).
  const TransferStats& stats(mpi::Process& p) { return per_rank(p).stats; }

  /// Per-fragment virtual-time intervals of a pipelined receive, captured
  /// when tracing is enabled: evidence of the Section 4.1 overlap (while
  /// the sender packs fragment k+1, fragment k is in flight or being
  /// unpacked).
  struct FragTrace {
    std::int64_t frag = 0;
    vt::Time packed_and_wired = 0;  // sender pack + notification arrival
    vt::Time staged = 0;            // one-sided get into local staging
    vt::Time unpacked = 0;          // unpack kernel completion
  };
  void enable_tracing(mpi::Process& p) { per_rank(p).tracing = true; }
  const std::vector<FragTrace>& trace(mpi::Process& p) {
    return per_rank(p).trace;
  }

 private:
  struct PerRank {
    std::unique_ptr<core::GpuDatatypeEngine> engine;
    TransferStats stats;
    bool tracing = false;
    std::vector<FragTrace> trace;
    /// CUDA IPC registration cache: opened handles, keyed by
    /// (device, offset) - the paper's one-time RDMA connection.
    std::map<std::pair<int, std::uint64_t>, void*> ipc_cache;
  };

  struct SendState;
  struct RecvState;

  PerRank& per_rank(mpi::Process& p);
  void* open_handle(mpi::Process& p, const sg::IpcMemHandle& h);

  /// Shared body of pack() and unpack(): move `count` elements of `dt`
  /// at `typed` to (kPack) or from (kUnpack) `packed` at *position.
  std::int64_t copy_packed(mpi::Process& p, core::GpuDatatypeEngine::Dir dir,
                           void* typed, std::int64_t count,
                           const mpi::DatatypePtr& dt,
                           std::span<std::byte> packed,
                           std::int64_t* position);
  /// Receive completion shared by every mode: finish the unpack `op` (if
  /// any), free the staging this rank allocated for `req`, count its
  /// payload and block until `last`, the final unpack's completion.
  void finish_recv(mpi::Process& p, mpi::RecvRequest& req,
                   core::GpuDatatypeEngine::Op* op, vt::Time last);

  /// Pack and publish fragments while the staging window has room
  /// (kIpcRdma sender side).
  void pump_rdma_send(mpi::Process& p, mpi::SendRequest& req);
  /// kStreamTriggered sender side: enqueue the ENTIRE per-fragment
  /// pack -> RDMA GET -> unpack -> credit chain at CTS time as
  /// stream/event dependencies, resolved by one forward pass - no
  /// FragReady/FragFree AMs, no per-fragment host wakeups on either rank.
  void drive_stream_chain(mpi::Process& p, mpi::SendRequest& req,
                          const mpi::CtsHeader& cts);
  /// Receiver-driven GET transfer from a contiguous exposed source
  /// (kRdmaRecvDriven).
  void drive_recv_from_contiguous(mpi::Process& p, mpi::RecvRequest& req,
                                  vt::Time arrival);
  /// Stage-and-ship loop for the copy-in/out sender.
  void pump_host_send(mpi::Process& p, mpi::SendRequest& req);
  void maybe_complete_rdma_send(mpi::Process& p, mpi::SendRequest& req);

  // AM handlers (protocol-private messages).
  void on_frag_ready(mpi::Process& p, mpi::AmMessage& m);
  void on_frag_free(mpi::Process& p, mpi::AmMessage& m);

  int h_frag_ready_ = -1;
  int h_frag_free_ = -1;

  std::mutex mu_;
  std::unordered_map<int, std::unique_ptr<PerRank>> ranks_;
};

}  // namespace gpuddt::proto
