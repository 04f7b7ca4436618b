// FabricCoordinator: the host-driver brain of the multi-GPU fabric — the
// concrete FabricPort the per-device UvmDrivers talk to (docs/fabric.md).
//
// It owns the fabric-wide state no single device can see:
//   * the page directory — which device (or the host) holds each page;
//   * per-page remote-access counters driving the remote-vs-migrate
//     decision (--remote-threshold);
//   * per-chunk homes for the placement policy (--placement);
//   * the spilled-page set enabling eviction spill second chances;
//   * the FabricTopology whose BandwidthLinks time every peer transfer.
//
// All coordination runs synchronously inside the calling driver's event —
// determinism comes from the shared EventQueue's (cycle, seq) order, and
// every loop over devices iterates in fixed device order.
#pragma once

#include <cassert>
#include <functional>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "fabric/topology.hpp"
#include "sim/event_queue.hpp"
#include "uvm/driver.hpp"
#include "uvm/fabric_port.hpp"

namespace uvmsim {

class FabricCoordinator final : public FabricPort {
 public:
  /// Devices the page directory can name: owners and homes are stored as
  /// u8 ids below kNone8, the host's id.
  static constexpr u32 kMaxDevices = 0xFF;

  FabricCoordinator(EventQueue& eq, const SystemConfig& sys,
                    const FabricConfig& cfg, u64 footprint_pages);

  FabricCoordinator(const FabricCoordinator&) = delete;
  FabricCoordinator& operator=(const FabricCoordinator&) = delete;

  /// Register device `dev`'s driver. Call for every device before launch.
  void attach_device(u32 dev, UvmDriver* driver);
  /// Register the remote-TLB/cache invalidation hook for `dev` (normally
  /// Gpu::remote_shootdown), fired when another device unmaps a page `dev`
  /// may have accessed remotely.
  void set_invalidator(u32 dev, std::function<void(PageId)> inv);

  // --- FabricPort ------------------------------------------------------------
  FabricDecision route_fault(u32 dev, PageId p) override;
  Cycle charge_remote(u32 dev, u32 owner, PageId p) override;
  void forward_fault(u32 from, u32 home, PageId p, WakeCallback wake) override;
  Cycle reserve_transfer(u32 src, u32 dst, u64 pages, Cycle earliest) override;
  void note_page_mapped(u32 dev, PageId p) override;
  void note_page_unmapped(u32 dev, PageId p) override;
  void surrender_at(u32 src, PageId p) override;
  u32 spill_target(u32 from, u64 pages) override;
  void spill_chunk(u32 from, u32 dst, ChunkId c,
                   const TouchBits& resident) override;
  [[nodiscard]] bool host_fetchable(u32 dev, PageId p) const override;

  // --- Introspection ---------------------------------------------------------
  [[nodiscard]] FabricTopology& topology() noexcept { return topo_; }
  [[nodiscard]] const FabricTopology& topology() const noexcept { return topo_; }
  /// Device currently holding `p`, kHostDevice if none.
  [[nodiscard]] u32 owner_of(PageId p) const noexcept { return widen(owner_[p]); }
  /// Placement home of chunk `c`, kHostDevice while unassigned.
  [[nodiscard]] u32 home_of(ChunkId c) const noexcept { return widen(home_[c]); }

 private:
  static constexpr u8 kNone8 = kMaxDevices;
  [[nodiscard]] static u32 widen(u8 v) noexcept {
    return v == kNone8 ? kHostDevice : v;
  }

  EventQueue& eq_;
  FabricConfig cfg_;
  FabricTopology topo_;
  Cycle hop_latency_cycles_;
  u32 lines_per_page_;
  std::vector<UvmDriver*> drivers_;
  std::vector<std::function<void(PageId)>> invalidators_;

  std::vector<u8> owner_;         ///< per page: holding device, kNone8 = host
  std::vector<u16> remote_count_; ///< per page: remote accesses since landing
  std::vector<u8> spilled_;       ///< per page: reached its owner by spill
  std::vector<u8> home_;          ///< per chunk: placement home, kNone8 = open
};

}  // namespace uvmsim
