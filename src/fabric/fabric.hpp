// Fabric: the multi-GPU fabric's two protocols on one base, and the
// sequential one, FabricCoordinator (docs/fabric.md).
//
// Fabric is the FabricPort each device's UvmDriver is built with. It owns
// what both protocols share: the device drivers, the per-chunk placement
// homes (--placement) and the hop latency. Fabric::make picks the protocol
// from the engine: the coordinator when every device shares one queue, the
// message-passing ShardedFabric (fabric/sharded_fabric.hpp) when each owns
// a shard.
//
// The coordinator is the host-driver brain of the sequential fabric. It
// adds what no single device can see: the page directory (which device, or
// the host, holds each page), per-page remote-access counters driving the
// remote-vs-migrate decision (--remote-threshold), the spilled-page set
// behind spill second chances, and the FabricTopology whose BandwidthLinks
// time every peer transfer. It runs synchronously inside the calling
// driver's event: determinism comes from the shared EventQueue's (cycle,
// seq) order, and every loop over devices iterates in fixed device order.
#pragma once

#include <cassert>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "fabric/topology.hpp"
#include "sim/event_queue.hpp"
#include "sim/sharded_engine.hpp"
#include "uvm/driver.hpp"
#include "uvm/fabric_port.hpp"

namespace uvmsim {

class Fabric : public FabricPort {
 public:
  /// The protocol for `engine`'s shape: ShardedFabric when each device owns
  /// a shard, else the FabricCoordinator on the one shared queue. Throws
  /// std::invalid_argument where ShardedFabric does.
  [[nodiscard]] static std::unique_ptr<Fabric> make(ShardedEngine& engine,
                                                    const SystemConfig& sys,
                                                    const FabricConfig& cfg,
                                                    u64 footprint_pages);
  /// One link hop's latency in core cycles; also the sharded engine's
  /// lookahead, since every cross-device message crosses at least one hop.
  [[nodiscard]] static Cycle hop_latency(const SystemConfig& sys,
                                         const FabricConfig& cfg) noexcept {
    return static_cast<Cycle>(cfg.nvlink_latency_us * sys.core_ghz * 1000.0);
  }

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Register device `dev`'s driver, built with this fabric in its links.
  /// Call for every device before launch.
  void attach_device(u32 dev, UvmDriver* driver);
  /// May evictions spill to a peer (--spill)? Each driver is built with it.
  [[nodiscard]] bool spill_enabled() const noexcept { return cfg_.spill; }

  /// Placement home of chunk `c`, kHostDevice while unassigned.
  [[nodiscard]] u32 home_of(ChunkId c) const noexcept { return widen(home_[c]); }

  /// The topologies whose links the run reports: the coordinator's one, or
  /// each device's private copy under the sharded engine, in device order.
  /// They share link ordering, so per-link totals are index-wise sums.
  [[nodiscard]] virtual std::vector<const FabricTopology*> topologies() const = 0;

 protected:
  /// Homes chunks by `placement`: round-robin and affinity now, first-touch
  /// left open for the coordinator to assign as pages land.
  Fabric(const SystemConfig& sys, const FabricConfig& cfg, u64 footprint_pages,
         PlacementKind placement);

  /// Device ids are stored as u8; this one is the host (or an open home).
  static constexpr u8 kNone8 = 0xFF;
  [[nodiscard]] static u32 widen(u8 v) noexcept {
    return v == kNone8 ? kHostDevice : v;
  }

  FabricConfig cfg_;
  Cycle hop_latency_cycles_;
  std::vector<UvmDriver*> drivers_;
  std::vector<u8> home_;  ///< per chunk: placement home, kNone8 = open
};

class FabricCoordinator final : public Fabric {
 public:
  /// Devices the page directory can name: owners and homes are stored as
  /// u8 ids below kNone8, the host's id.
  static constexpr u32 kMaxDevices = kNone8;

  FabricCoordinator(EventQueue& eq, const SystemConfig& sys,
                    const FabricConfig& cfg, u64 footprint_pages);

  // --- FabricPort ------------------------------------------------------------
  FabricDecision route_fault(u32 dev, PageId p) override;
  void forward_fault(u32 from, u32 to, PageId p, WakeCallback wake) override;
  Cycle reserve_transfer(u32 src, u32 dst, u64 pages, Cycle earliest) override;
  void note_page_mapped(u32 dev, PageId p) override;
  void note_page_unmapped(u32 dev, PageId p) override;
  u32 spill(u32 from, ChunkId c, const TouchBits& resident) override;
  [[nodiscard]] bool host_fetchable(u32 dev, PageId p) const override;

  [[nodiscard]] std::vector<const FabricTopology*> topologies() const override {
    return {&topo_};
  }

 private:
  /// Device currently holding `p`, kHostDevice if none.
  [[nodiscard]] u32 owner_of(PageId p) const noexcept { return widen(owner_[p]); }
  /// Charge one remote access from `dev` to the copy on `owner`; returns the
  /// cycle its round trip ends.
  Cycle charge_remote(u32 dev, u32 owner);

  EventQueue& eq_;
  FabricTopology topo_;
  u32 lines_per_page_;

  std::vector<u8> owner_;         ///< per page: holding device, kNone8 = host
  std::vector<u16> remote_count_; ///< per page: remote accesses since landing
  std::vector<u8> spilled_;       ///< per page: reached its owner by spill
};

}  // namespace uvmsim
