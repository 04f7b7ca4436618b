// ShardedFabric: the multi-GPU fabric under the sharded engine — the
// message-passing sibling of FabricCoordinator (docs/performance.md).
//
// The synchronous coordinator mutates cross-device state inside the calling
// driver's event, which a parallel engine cannot allow. The sharded fabric
// replaces that protocol with a *forward-only, home-pinned* one whose every
// cross-device interaction is a timestamped ShardMessage:
//
//   * every chunk has a static home device (the placement map, fixed at
//     construction — first-touch maps to affinity, see below);
//   * a fault on a page homed elsewhere is forwarded to the home device as
//     a message (one request hop), serviced there by the home's own driver/
//     policy/prefetcher, and answered with a reply message timed like the
//     coordinator's remote access (latency hops + one line of occupancy);
//   * pages never migrate between devices (no peer fetch, no spill), so the
//     page directory degenerates to the static home map — shards share only
//     immutable state plus messages;
//   * evicting a remotely-accessed page broadcasts shootdown messages to
//     the devices that actually touched it (physical hop latency); each
//     runs on the reader's shard as its driver's remote_shootdown;
//   * every port call names its device, so one object serves them all, and
//     the only mutating calls (forward_fault, note_page_unmapped) become
//     messages. Peer fetch, remote access, spill and surrender never happen,
//     so reserve_transfer and spill are the port's only stubs.
//
// First-touch placement needs a lazily-written shared home directory, which
// is exactly the cross-shard mutation this protocol removes — the sharded
// engine resolves --placement first-touch to the affinity map (contiguous
// chunk slices), and documents the substitution.
//
// Timing: lookahead = one NVLink/PCIe hop (every message crosses >= 1 hop).
// Each device charges link occupancy on a PRIVATE copy of the topology —
// cross-initiator link contention is not modelled (a documented
// approximation); per-link totals are summed across copies for RunResult.
#pragma once

#include <limits>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "fabric/fabric.hpp"
#include "fabric/topology.hpp"
#include "sim/sharded_engine.hpp"

namespace uvmsim {

class ShardedFabric final : public Fabric {
 public:
  /// Devices remote_readers_ can name: one bit each in a u32.
  static constexpr u32 kMaxDevices = std::numeric_limits<u32>::digits;

  /// Throws std::invalid_argument for `cfg.spill`: chunks may not change
  /// device.
  ShardedFabric(ShardedEngine& engine, const SystemConfig& sys,
                const FabricConfig& cfg, u64 footprint_pages);

  // --- FabricPort ------------------------------------------------------------
  FabricDecision route_fault(u32 dev, PageId p) override;
  void forward_fault(u32 from, u32 home, PageId p, WakeCallback wake) override;
  Cycle reserve_transfer(u32 src, u32 dst, u64 pages, Cycle earliest) override;
  void note_page_mapped(u32 dev, PageId p) override;
  void note_page_unmapped(u32 dev, PageId p) override;
  u32 spill(u32 from, ChunkId c, const TouchBits& resident) override;
  [[nodiscard]] bool host_fetchable(u32 dev, PageId p) const override;

  [[nodiscard]] std::vector<const FabricTopology*> topologies() const override;

 private:
  ShardedEngine& engine_;
  std::vector<FabricTopology> topos_;  ///< per device: its private copy
  /// Per page: bitmask of devices that consumed it remotely since it last
  /// became resident — written and read only on the page's home shard, so
  /// no synchronisation is needed. Bounds the shootdown broadcast.
  std::vector<u32> remote_readers_;
};

}  // namespace uvmsim
