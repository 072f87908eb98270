// The simulated heterogeneous node: host memory plus a set of GPU devices.
//
// Machine owns the device arenas, the pointer registry (what address space
// does a pointer live in?) and the timed resources of every device. It is
// shared by all simulated MPI ranks of a run.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "simgpu/access.h"
#include "simgpu/arena.h"
#include "simgpu/cost_model.h"
#include "vtime/resource.h"

namespace gpuddt::sg {

enum class MemorySpace {
  kUnregisteredHost,  // ordinary host memory
  kPinnedHost,        // page-locked host memory (HostAlloc)
  kMappedHost,        // page-locked and mapped into device space (zero-copy)
  kDevice,            // GPU memory
};

struct PtrAttributes {
  MemorySpace space = MemorySpace::kUnregisteredHost;
  int device = -1;  // owning device for kDevice pointers
};

/// Multi-node topology model (docs/simulator.md). Every default models
/// the degenerate flat topology the simulator always assumed - no NVLink,
/// one full-bisection IB switch - so configurations that never touch
/// these fields produce byte-identical virtual timelines with history.
struct TopologyConfig {
  // --- NVLink domains within a node --------------------------------------
  /// Devices [k*n, (k+1)*n) share an NVLink domain: peer copies between
  /// them ride the devices' NVLink ports instead of their PCI-E links.
  /// 0 disables NVLink modeling (every peer copy crosses the PCI-E
  /// switch, the K40-era default).
  int nvlink_domain_size = 0;
  /// Per-direction NVLink bandwidth (P100-era NVLink 1.0: 4 bonded
  /// links ~ 40 GB/s each way after protocol overhead, versus ~12 GB/s
  /// over the PCI-E switch).
  double nvlink_gbps = 40.0;
  /// DMA start latency over NVLink (no root-complex traversal).
  vt::Time nvlink_latency_ns = vt::usec(1.9);

  // --- Fat-tree InfiniBand between nodes ---------------------------------
  /// Nodes [k*n, (k+1)*n) hang off leaf switch k; traffic between nodes
  /// under different leaves additionally crosses both leaves' shared
  /// spine uplinks. 0 models one full-bisection switch (the default:
  /// node-pair links only, no shared uplink contention).
  int fat_tree_leaf_nodes = 0;
  /// Spine uplinks per leaf switch. Large cross-leaf transfers
  /// round-robin across them (the ib_rails idiom one level up);
  /// small/control traffic stays on uplink 0.
  int fat_tree_uplinks = 1;
  /// Bandwidth of one uplink. A leaf with fewer uplinks than nodes is
  /// oversubscribed: concurrent cross-leaf flows queue here even when
  /// their node-pair links are idle.
  double fat_tree_uplink_gbps = 5.8;
  /// Extra store-and-forward latency of the leaf -> spine -> leaf detour.
  vt::Time fat_tree_hop_ns = vt::usec(0.7);
};

struct MachineConfig {
  int num_devices = 2;
  /// SMs per device (K40: 15 SMX).
  int sms_per_device = 15;
  /// Bytes of simulated device memory per device.
  std::size_t device_memory_bytes = std::size_t{1} << 30;
  CostModel cost;
  /// Intra-node NVLink domains and inter-node fat-tree shape.
  TopologyConfig topo;
  /// Device-access checking (src/check/): -1 follows the GPUDDT_CHECK
  /// env var (off when unset), 0 forces it off, 1 forces it on for this
  /// machine.
  int check = -1;
};

/// One simulated GPU.
class Device {
 public:
  Device(int id, const MachineConfig& cfg)
      : id_(id), arena_(cfg.device_memory_bytes), sm_(cfg.sms_per_device) {}

  int id() const { return id_; }
  Arena& arena() { return arena_; }
  const Arena& arena() const { return arena_; }

  /// The SM array executing kernels.
  vt::CapacityResource& sm() { return sm_; }
  /// The DMA copy engine serving cudaMemcpy-style operations.
  vt::TimedResource& copy_engine() { return copy_engine_; }
  /// The PCI-E link between this device and the host / switch.
  vt::TimedResource& pcie() { return pcie_; }
  /// This device's NVLink port; reserved (instead of pcie) by peer
  /// copies whose endpoints share an NVLink domain.
  vt::TimedResource& nvlink() { return nvlink_; }

  void reset_timing() {
    sm_.reset();
    copy_engine_.reset();
    pcie_.reset();
    nvlink_.reset();
  }

 private:
  int id_;
  Arena arena_;
  vt::CapacityResource sm_;
  vt::TimedResource copy_engine_;
  vt::TimedResource pcie_;
  vt::TimedResource nvlink_;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& cfg = {}) : cfg_(cfg) {
    if (cfg.num_devices < 1)
      throw std::invalid_argument("Machine: need at least one device");
    devices_.reserve(cfg.num_devices);
    for (int d = 0; d < cfg.num_devices; ++d)
      devices_.push_back(std::make_unique<Device>(d, cfg));
    observer_ = make_default_observer(*this);  // null when checking is off
  }

  const MachineConfig& config() const { return cfg_; }
  const CostModel& cost() const { return cfg_.cost; }
  CostModel& mutable_cost() { return cfg_.cost; }

  int num_devices() const { return static_cast<int>(devices_.size()); }
  Device& device(int d) { return *devices_.at(d); }

  /// NVLink domain of a device, or -1 when NVLink is not modeled.
  int nvlink_domain(int device) const {
    return cfg_.topo.nvlink_domain_size > 0
               ? device / cfg_.topo.nvlink_domain_size
               : -1;
  }
  /// True when a peer copy between these (distinct) devices rides NVLink.
  bool nvlink_connected(int a, int b) const {
    return a != b && a >= 0 && b >= 0 && nvlink_domain(a) >= 0 &&
           nvlink_domain(a) == nvlink_domain(b);
  }

  // --- Host allocations -----------------------------------------------------

  /// Page-locked host memory, optionally mapped into device space.
  void* host_alloc(std::size_t bytes, bool mapped) {
    auto block =
        std::make_unique_for_overwrite<std::byte[]>(bytes == 0 ? 1 : bytes);
    std::byte* p = block.get();
    std::lock_guard<std::mutex> lock(mu_);
    host_blocks_[p] = HostBlock{std::move(block), bytes, mapped};
    return p;
  }

  void host_free(void* p) {
    if (p == nullptr) return;
    std::size_t bytes = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = host_blocks_.find(static_cast<std::byte*>(p));
      if (it == host_blocks_.end())
        throw std::invalid_argument("Machine::host_free: unknown pointer");
      bytes = it->second.size;
      host_blocks_.erase(it);
    }
    if (observer_) observer_->on_release(p, bytes);
  }

  /// Make an externally-owned host range (protocol staging, AM payload
  /// bytes) visible to pointer queries and the access checker. Non-owning:
  /// the caller keeps the memory alive until unregister_host_range. Copy
  /// costs do not distinguish pinned from pageable host memory, so
  /// registration never changes timing - only checker visibility.
  void register_host_range(void* p, std::size_t bytes, bool mapped = false) {
    if (p == nullptr || bytes == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    host_blocks_[static_cast<std::byte*>(p)] =
        HostBlock{nullptr, bytes, mapped};
  }

  /// Drop a register_host_range registration; releases the checker's
  /// access history for the range, so a later allocation reusing these
  /// addresses is not compared against this buffer's accesses.
  void unregister_host_range(void* p) {
    if (p == nullptr) return;
    std::size_t bytes = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = host_blocks_.find(static_cast<std::byte*>(p));
      if (it == host_blocks_.end())
        throw std::invalid_argument(
            "Machine::unregister_host_range: unknown pointer");
      bytes = it->second.size;
      host_blocks_.erase(it);
    }
    if (observer_) observer_->on_release(p, bytes);
  }

  /// Base and size of the registered host block containing p, or
  /// {nullptr, 0} for unregistered host memory.
  std::pair<const void*, std::size_t> host_block_span(const void* p) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = host_blocks_.upper_bound(
        const_cast<std::byte*>(static_cast<const std::byte*>(p)));
    if (it != host_blocks_.begin()) {
      --it;
      const auto* base = it->first;
      if (p >= base && p < base + it->second.size)
        return {base, it->second.size};
    }
    return {nullptr, 0};
  }

  // --- Pointer queries --------------------------------------------------------

  PtrAttributes query(const void* p) const {
    for (const auto& dev : devices_) {
      if (dev->arena().contains(p)) return {MemorySpace::kDevice, dev->id()};
    }
    std::lock_guard<std::mutex> lock(mu_);
    auto it = host_blocks_.upper_bound(
        const_cast<std::byte*>(static_cast<const std::byte*>(p)));
    if (it != host_blocks_.begin()) {
      --it;
      const auto* base = it->first;
      if (p >= base && p < base + it->second.size) {
        return {it->second.mapped ? MemorySpace::kMappedHost
                                  : MemorySpace::kPinnedHost,
                -1};
      }
    }
    return {MemorySpace::kUnregisteredHost, -1};
  }

  bool is_device_ptr(const void* p) const {
    return query(p).space == MemorySpace::kDevice;
  }

  /// Reset all timing state (between benchmark repetitions). Also drops
  /// the access checker's history: restarted timelines are not comparable
  /// with pre-reset access windows.
  void reset_timing() {
    for (auto& d : devices_) d->reset_timing();
    if (observer_) observer_->on_reset();
  }

  /// The attached access observer; null when checking is disabled.
  AccessObserver* observer() const { return observer_.get(); }

  /// Replace the access observer (tests install byte-accounting sinks;
  /// null detaches). Swap only while no device work is in flight - the
  /// new observer starts with no access history.
  void set_observer(std::unique_ptr<AccessObserver> obs) {
    observer_ = std::move(obs);
  }

 private:
  struct HostBlock {
    std::unique_ptr<std::byte[]> storage;
    std::size_t size = 0;
    bool mapped = false;
  };

  MachineConfig cfg_;
  std::vector<std::unique_ptr<Device>> devices_;
  std::unique_ptr<AccessObserver> observer_;
  mutable std::mutex mu_;
  // det-lint: allow(pointer_order) - address-interval lookup, never emitted
  std::map<std::byte*, HostBlock> host_blocks_;
};

}  // namespace gpuddt::sg
