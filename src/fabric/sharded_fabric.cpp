#include "fabric/sharded_fabric.hpp"

#include <cassert>
#include <memory>
#include <stdexcept>
#include <utility>

namespace uvmsim {

ShardedFabric::ShardedFabric(ShardedEngine& engine, const SystemConfig& sys,
                             const FabricConfig& cfg, u64 footprint_pages)
    // Static homes. First-touch needs a lazily-written shared directory —
    // the one cross-shard mutation this protocol removes — so it resolves
    // to the affinity slices (documented in docs/performance.md).
    : Fabric(sys, cfg, footprint_pages,
             cfg.placement == PlacementKind::kFirstTouch ? PlacementKind::kAffinity
                                                         : cfg.placement),
      engine_(engine),
      topos_(cfg.gpus, FabricTopology(sys, cfg)),
      remote_readers_(footprint_pages, 0) {
  assert(cfg.gpus >= 2 && cfg.gpus <= kMaxDevices);
  if (cfg.spill)
    throw std::invalid_argument(
        "the sharded engine does not support spill (chunks may not change "
        "device; sharded_fabric.hpp)");
}

FabricDecision ShardedFabric::route_fault(u32 dev, PageId p) {
  const u32 home = home_of(chunk_of_page(p));
  if (home == dev) return {};
  return {FabricRoute::kForward, home, false};
}

void ShardedFabric::forward_fault(u32 from, u32 home, PageId p,
                                  WakeCallback wake) {
  // Request: one message crossing the fabric to the home shard (latency
  // only — a fault packet's occupancy is negligible next to page data).
  // There the home driver services the fault as its own; the reply is timed
  // like the coordinator's remote access: latency hops back plus one line
  // of occupancy on the home->from path, charged on the home's topology.
  const Cycle req = engine_.queue(from).now() +
                    topos_[from].hops(from, home) * hop_latency_cycles_;
  auto w = std::make_shared<WakeCallback>(std::move(wake));
  engine_.post(from, home, req, [this, from, home, p, w] {
    remote_readers_[p] |= u32{1} << from;
    drivers_[home]->fault(p, [this, from, home, w] {
      FabricTopology& topo = topos_[home];
      const Cycle back = engine_.queue(home).now() +
                         topo.hops(home, from) * hop_latency_cycles_;
      const Cycle done = topo.reserve_path(home, from, 1, back);
      engine_.post(home, from, done, [w] { (*w)(); });
    });
  });
}

Cycle ShardedFabric::reserve_transfer(u32 src, u32 dst, u64 pages,
                                      Cycle earliest) {
  // Unreachable: the driver only calls this for peer-sourced
  // migrations, which the forward-only protocol never creates.
  assert(src == kHostDevice || dst == kHostDevice || !"peer transfer");
  (void)src;
  (void)dst;
  (void)pages;
  return earliest;
}

void ShardedFabric::note_page_mapped(u32 dev, PageId p) {
  // The home map is static and pages only ever map on their home device,
  // so there is no directory to update. A page becoming resident again
  // clears its remote-reader set (new copies start shootdown-clean).
  (void)dev;
  remote_readers_[p] = 0;
}

void ShardedFabric::note_page_unmapped(u32 dev, PageId p) {
  // Only devices that actually consumed the page remotely can hold TLB
  // entries or remote cache lines for it; message them the shootdown at
  // physical hop latency. It runs on the reader's shard, which owns that
  // reader's driver.
  const u32 readers = remote_readers_[p];
  if (readers == 0) return;
  remote_readers_[p] = 0;
  const Cycle now = engine_.queue(dev).now();
  for (u32 d = 0; d < static_cast<u32>(drivers_.size()); ++d) {
    if (d == dev || (readers & (u32{1} << d)) == 0) continue;
    const Cycle arrive = now + topos_[dev].hops(dev, d) * hop_latency_cycles_;
    engine_.post(dev, d, arrive, [this, d, p] { drivers_[d]->remote_shootdown(p); });
  }
}

u32 ShardedFabric::spill(u32, ChunkId, const TouchBits&) {
  // Spill is refused when the fabric is built (chunks may not change
  // device); evictions write back to host as usual.
  return kHostDevice;
}

bool ShardedFabric::host_fetchable(u32 dev, PageId p) const {
  // A non-home device must never host-fetch the page (its faults forward
  // instead, and its prefetcher treats the page as not-fetchable).
  return home_of(chunk_of_page(p)) == dev;
}

std::vector<const FabricTopology*> ShardedFabric::topologies() const {
  std::vector<const FabricTopology*> out;
  for (const FabricTopology& t : topos_) out.push_back(&t);
  return out;
}

}  // namespace uvmsim
