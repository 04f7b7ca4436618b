#include "fabric/fabric.hpp"

#include <algorithm>

#include "fabric/sharded_fabric.hpp"

namespace uvmsim {

std::unique_ptr<Fabric> Fabric::make(ShardedEngine& engine,
                                     const SystemConfig& sys,
                                     const FabricConfig& cfg,
                                     u64 footprint_pages) {
  if (engine.num_shards() > 1)
    return std::make_unique<ShardedFabric>(engine, sys, cfg, footprint_pages);
  return std::make_unique<FabricCoordinator>(engine.queue(0), sys, cfg,
                                             footprint_pages);
}

Fabric::Fabric(const SystemConfig& sys, const FabricConfig& cfg,
               u64 footprint_pages, PlacementKind placement)
    : cfg_(cfg),
      hop_latency_cycles_(hop_latency(sys, cfg)),
      drivers_(cfg.gpus, nullptr) {
  const u64 chunks = (footprint_pages + kChunkPages - 1) / kChunkPages;
  home_.assign(chunks, kNone8);
  switch (placement) {
    case PlacementKind::kFirstTouch:
      break;  // the coordinator assigns them in note_page_mapped
    case PlacementKind::kRoundRobin:
      for (u64 c = 0; c < chunks; ++c)
        home_[c] = static_cast<u8>(c % cfg.gpus);
      break;
    case PlacementKind::kAffinity: {
      // Contiguous chunk ranges, one slice per device (Mosaic-style
      // affinity hinting: neighbouring chunks share a home).
      const u64 per = (chunks + cfg.gpus - 1) / cfg.gpus;
      for (u64 c = 0; c < chunks; ++c)
        home_[c] = static_cast<u8>(std::min<u64>(c / per, cfg.gpus - 1));
      break;
    }
  }
}

void Fabric::attach_device(u32 dev, UvmDriver* driver) {
  assert(dev < drivers_.size() && driver != nullptr);
  drivers_[dev] = driver;
}

FabricCoordinator::FabricCoordinator(EventQueue& eq, const SystemConfig& sys,
                                     const FabricConfig& cfg,
                                     u64 footprint_pages)
    : Fabric(sys, cfg, footprint_pages, cfg.placement),
      eq_(eq),
      topo_(sys, cfg),
      lines_per_page_(static_cast<u32>(kPageBytes) / sys.cache_line_bytes),
      owner_(footprint_pages, kNone8),
      remote_count_(footprint_pages, 0),
      spilled_(footprint_pages, 0) {}

FabricDecision FabricCoordinator::route_fault(u32 dev, PageId p) {
  // Another device is already fetching this page, its fault queued or its
  // migration in flight: forward the fault there, where it joins that fault
  // as one more waiter and reads the page remotely once it lands. Under
  // first-touch a queued fault has not homed the chunk yet, so without this
  // both devices would fetch the page from the host.
  for (u32 d = 0; d < drivers_.size(); ++d)
    if (d != dev && drivers_[d]->fault_outstanding(p))
      return {FabricRoute::kForward, d, false};

  const u32 owner = owner_of(p);
  if (owner != kHostDevice) {
    assert(owner != dev);  // locally-resident faults never reach the fabric
    // Spilled pages hop back on first re-fault (the spill's second chance);
    // otherwise the per-page counter arbitrates remote-vs-migrate. Without
    // peer links (pcie preset) remote mapping is meaningless, so migrate.
    const bool hopback = spilled_[p] != 0;
    const bool migrate = hopback || !topo_.peer_capable() ||
                         cfg_.remote_threshold == 0 ||
                         remote_count_[p] >= cfg_.remote_threshold;
    if (migrate) {
      // Pin the source chunk so the copy survives until it is surrendered.
      drivers_[owner]->pin_for_transfer(chunk_of_page(p));
      return {FabricRoute::kPeerFetch, owner, hopback};
    }
    if (remote_count_[p] < 0xFFFF) ++remote_count_[p];
    return {FabricRoute::kRemoteAccess, owner, false, charge_remote(dev, owner)};
  }

  // Host-resident: respect the placement homing — a page homed elsewhere is
  // faulted in by its home device, not by us.
  const u32 home = home_of(chunk_of_page(p));
  if (home != kHostDevice && home != dev)
    return {FabricRoute::kForward, home, false};
  return {};
}

Cycle FabricCoordinator::charge_remote(u32 dev, u32 owner) {
  // Request out, one line of data back: two latency traversals plus the
  // line's occupancy on the owner -> accessor path.
  const Cycle latency = 2 * topo_.hops(owner, dev) * hop_latency_cycles_;
  return topo_.reserve_path(owner, dev, 1, eq_.now() + latency);
}

void FabricCoordinator::forward_fault(u32 from, u32 to, PageId p,
                                      WakeCallback wake) {
  // The home device services the fault as its own (its chain, its policy,
  // its prefetcher), or a peer already fetching the page coalesces it; the
  // faulting warp then consumes the page with one remote access, which also
  // starts the remote-vs-migrate counter.
  drivers_[to]->fault(p, [this, from, to, p, w = std::move(wake)]() mutable {
    if (remote_count_[p] < 0xFFFF) ++remote_count_[p];
    eq_.schedule_at(charge_remote(from, to), std::move(w));
  });
}

Cycle FabricCoordinator::reserve_transfer(u32 src, u32 dst, u64 pages,
                                          Cycle earliest) {
  return topo_.reserve_path(src, dst, pages * lines_per_page_,
                            earliest + topo_.hops(src, dst) * hop_latency_cycles_);
}

void FabricCoordinator::note_page_mapped(u32 dev, PageId p) {
  const u32 prev = owner_of(p);
  owner_[p] = static_cast<u8>(dev);
  remote_count_[p] = 0;
  spilled_[p] = 0;
  if (cfg_.placement == PlacementKind::kFirstTouch) {
    const ChunkId c = chunk_of_page(p);
    if (home_[c] == kNone8) home_[c] = static_cast<u8>(dev);
  }
  // A previous holder means a peer fetch landed: the route pinned the
  // source's chunk and every other fault on the page joined the fetcher's,
  // so the directory still names the source. It surrenders its copy now,
  // after the directory has moved on, so the unmap keeps the new entry.
  assert(prev != dev);
  if (prev != kHostDevice) drivers_[prev]->surrender_page(p);
}

void FabricCoordinator::note_page_unmapped(u32 dev, PageId p) {
  // A peer fetch's surrender arrives after the fetcher mapped the page, so
  // the directory has already moved on; it keeps the fetcher's entry.
  if (owner_[p] == static_cast<u8>(dev)) {
    owner_[p] = kNone8;
    remote_count_[p] = 0;
    spilled_[p] = 0;
  }
  // Remote accessors, a fetcher included, may hold TLB entries and remote
  // cache lines for the departing copy: broadcast the shootdown through
  // each peer's driver.
  for (u32 d = 0; d < drivers_.size(); ++d)
    if (d != dev) drivers_[d]->remote_shootdown(p);
}

u32 FabricCoordinator::spill(u32 from, ChunkId c, const TouchBits& resident) {
  // Spilling over the pcie preset would ride the same host link it is meant
  // to relieve; write back to host instead.
  if (!topo_.peer_capable()) return kHostDevice;
  // Nearest peer (fewest hops) that can absorb the chunk without dipping
  // into its own pre-eviction headroom; ties go to the lowest device id.
  const u64 pages = resident.count();
  u32 dst = kHostDevice;
  u32 best_hops = ~u32{0};
  for (u32 d = 0; d < drivers_.size(); ++d) {
    if (d == from) continue;
    const FramePool& fp = drivers_[d]->frame_pool();
    if (fp.free_frames() < pages + fp.watermark_pages()) continue;
    const u32 h = topo_.hops(from, d);
    if (h < best_hops) {
      dst = d;
      best_hops = h;
    }
  }
  if (dst == kHostDevice) return kHostDevice;

  // The victim's pages cross the fabric (occupancy only — the spill happens
  // off the fault critical path) and the peer adopts the chunk.
  topo_.reserve_path(from, dst, pages * lines_per_page_,
                     eq_.now() + topo_.hops(from, dst) * hop_latency_cycles_);
  drivers_[dst]->adopt_spilled_chunk(c, resident);
  const PageId base = first_page_of_chunk(c);
  for (u32 i = 0; i < kChunkPages; ++i) {
    if (!resident.test(i)) continue;
    const PageId p = base + i;
    owner_[p] = static_cast<u8>(dst);
    remote_count_[p] = 0;
    spilled_[p] = 1;  // re-fault anywhere hops it back (second chance)
  }
  return dst;
}

bool FabricCoordinator::host_fetchable(u32 dev, PageId p) const {
  const u32 owner = owner_of(p);
  if (owner != kHostDevice && owner != dev) return false;
  for (u32 d = 0; d < drivers_.size(); ++d)
    if (d != dev && drivers_[d]->fault_outstanding(p)) return false;
  const u32 home = home_of(chunk_of_page(p));
  return home == kHostDevice || home == dev;
}

}  // namespace uvmsim
