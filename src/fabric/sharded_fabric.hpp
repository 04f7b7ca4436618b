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
//     runs on the reader's shard as its driver's remote_shootdown.
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

#include <cassert>
#include <limits>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "fabric/topology.hpp"
#include "sim/sharded_engine.hpp"
#include "uvm/driver.hpp"
#include "uvm/fabric_port.hpp"

namespace uvmsim {

class ShardedFabric {
 public:
  /// Devices remote_readers_ can name: one bit each in a u32.
  static constexpr u32 kMaxDevices = std::numeric_limits<u32>::digits;

  ShardedFabric(ShardedEngine& engine, const SystemConfig& sys,
                const FabricConfig& cfg, u64 footprint_pages);
  ~ShardedFabric();

  ShardedFabric(const ShardedFabric&) = delete;
  ShardedFabric& operator=(const ShardedFabric&) = delete;

  /// Register device `dev`'s driver. Call for every device before launch.
  void attach_device(u32 dev, UvmDriver* driver);

  /// The FabricPort device `dev`'s driver attaches to.
  [[nodiscard]] FabricPort* port(u32 dev) noexcept;

  /// Device `dev`'s private topology copy (link stats aggregation).
  [[nodiscard]] const FabricTopology& topology(u32 dev) const noexcept {
    return *topos_[dev];
  }
  [[nodiscard]] u32 home_of(ChunkId c) const noexcept { return home_[c]; }
  [[nodiscard]] Cycle hop_latency_cycles() const noexcept {
    return hop_latency_cycles_;
  }

 private:
  class Port;

  ShardedEngine& engine_;
  FabricConfig cfg_;
  Cycle hop_latency_cycles_;
  u32 lines_per_page_;
  std::vector<UvmDriver*> drivers_;
  std::vector<std::unique_ptr<FabricTopology>> topos_;
  std::vector<std::unique_ptr<Port>> ports_;
  /// Per chunk: the (static) home device.
  std::vector<u8> home_;
  /// Per page: bitmask of devices that consumed it remotely since it last
  /// became resident — written and read only on the page's home shard, so
  /// no synchronisation is needed. Bounds the shootdown broadcast.
  std::vector<u32> remote_readers_;

  void forward_fault(u32 from, u32 home, PageId p, WakeCallback wake);
  void page_unmapped(u32 dev, PageId p);
};

}  // namespace uvmsim
