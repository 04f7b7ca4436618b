#include "uvm/eviction_engine.hpp"

#include <algorithm>
#include <cassert>

#include "uvm/large_frames.hpp"

namespace uvmsim {

EvictionEngine::RoomResult EvictionEngine::make_room(u64 target_free_pages,
                                                     TenantId initiator) {
  assert(prefetcher_ != nullptr);
  RoomResult r;
  while (frames_.admissible_frames(initiator) < target_free_pages) {
    const u64 before = frames_.admissible_frames(initiator);
    const u64 deficit = target_free_pages - before;
    const std::vector<ChunkId> victims =
        select_round((deficit + kChunkPages - 1) / kChunkPages, initiator);
    if (victims.empty()) {
      r.starved = true;
      return r;
    }
    for (const ChunkId v : victims) {
      if (frames_.admissible_frames(initiator) >= target_free_pages) break;
      // A whole-frame eviction earlier in this round may have taken `v`
      // out with its 31 siblings; a selected-then-gone victim is skipped,
      // not re-evicted. Never true when large-pages mode is off.
      if (chains_.chain_of_chunk(v).find(v) == nullptr) continue;
      evict_chunk(v, initiator);
      ++r.evicted;
    }
    // Non-progress guard: a round whose evictions freed nothing the
    // initiator may actually use (e.g. an at-quota initiator while the
    // victims came from a fallback domain, or victims with no resident
    // pages) would otherwise loop here, draining chunk after chunk without
    // ever closing the deficit. Treat it as starvation instead — the caller
    // already handles a starved pool (retry/trim), and the victims that
    // *did* free admissible frames still count.
    if (frames_.admissible_frames(initiator) <= before) {
      r.starved = true;
      return r;
    }
  }
  return r;
}

std::vector<ChunkId> EvictionEngine::select_round(u64 max_victims,
                                                  TenantId initiator) {
  // Single domain: the global policy. Scoped (shared + self) selection
  // filters to the initiator's own chunks first and falls back to the
  // unrestricted policy when it has none to give.
  if (!chains_.per_tenant()) {
    EvictionPolicy* policy = chains_.policy(0);
    assert(policy != nullptr);
    if (tenants_ != nullptr && initiator != kNoTenant &&
        scope_ == EvictionScope::kSelf) {
      std::vector<ChunkId> own = policy->select_victims(
          max_victims, [this, initiator](const ChunkEntry& e) {
            return tenants_->tenant_of_chunk(e.id) == initiator;
          });
      if (!own.empty()) return own;
    }
    return policy->select_victims(max_victims);
  }

  // Per-tenant chains (partitioned/quota): walk the mode's source order and
  // take the first domain that yields victims.
  for (const TenantId source : source_order(initiator)) {
    EvictionPolicy* policy = chains_.policy_for(source);
    assert(policy != nullptr);
    if (chains_.chain_for(source).size() == 0) continue;
    std::vector<ChunkId> v = policy->select_victims(max_victims);
    if (!v.empty()) return v;
  }
  return {};
}

std::vector<TenantId> EvictionEngine::source_order(TenantId initiator) const {
  assert(tenants_ != nullptr);
  const u64 n = tenants_->size();
  std::vector<TenantId> order;

  if (mode_ == TenantMode::kPartitioned) {
    // Hard isolation: only the initiator's own chunks free frames it may
    // use. Room-making with no initiator (global pre-eviction fallback)
    // drains the largest holder first.
    if (initiator != kNoTenant) {
      order.push_back(initiator);
      return order;
    }
  }

  // Quota mode (and tenant-less fallbacks): over-quota tenants first,
  // largest overage first (ties: lowest id), then the initiator itself,
  // then the remaining tenants by used frames (largest first, lowest id).
  std::vector<TenantId> over, rest;
  for (TenantId t = 0; t < n; ++t) {
    if (t == initiator) continue;
    (tenants_->over_quota_by(t) > 0 ? over : rest).push_back(t);
  }
  std::sort(over.begin(), over.end(), [this](TenantId a, TenantId b) {
    const u64 oa = tenants_->over_quota_by(a), ob = tenants_->over_quota_by(b);
    return oa != ob ? oa > ob : a < b;
  });
  std::sort(rest.begin(), rest.end(), [this](TenantId a, TenantId b) {
    const u64 ua = tenants_->used_frames(a), ub = tenants_->used_frames(b);
    return ua != ub ? ua > ub : a < b;
  });
  order.insert(order.end(), over.begin(), over.end());
  if (initiator != kNoTenant) order.push_back(initiator);
  order.insert(order.end(), rest.begin(), rest.end());
  return order;
}

void EvictionEngine::evict_chunk(ChunkId victim, TenantId initiator) {
  // Large-pages mode: a victim inside a coalesced 2 MB frame drags the
  // whole frame into the decision. If every sibling is as evictable as the
  // victim, the frame leaves as ONE eviction operation (one bulk DMA);
  // otherwise the frame splinters — hot siblings stay, and the cold victim
  // falls through to the ordinary per-chunk path (which may then spill).
  if (lfm_ != nullptr) {
    const LargeId region = large_of_chunk(victim);
    if (lfm_->coalesced(region)) {
      if (whole_frame_evictable(region)) {
        evict_large_frame(region, initiator);
        return;
      }
      const bool spillable =
          fabric_ != nullptr && spill_ &&
          !chains_.chain_of_chunk(victim).entry(victim).spilled;
      lfm_->splinter(region, spillable ? SplinterReason::kSpill
                                       : SplinterReason::kEvictionPressure);
    }
  }

  ChunkChain& chain = chains_.chain_of_chunk(victim);
  ChunkEntry& e = chain.entry(victim);
  assert(!e.pinned());

  EvictionPolicy* policy = chains_.policy(chains_.domain_of_chunk(victim));
  policy->on_chunk_evicted(e);
  // CPPE coordination point: the evicted chunk's demand-touch pattern flows
  // to the prefetcher (pattern buffer) — §IV-A's fine-grained interplay.
  // Chunks that arrived by spill are skipped: their touch state restarted
  // empty at adoption and would poison the pattern buffer.
  if (!e.spilled) prefetcher_->on_chunk_evicted(victim, e.touched);

  const TenantId owner =
      tenants_ != nullptr ? tenants_->tenant_of_chunk(victim) : kNoTenant;
  u64 pages_out = 0;
  const PageId base = first_page_of_chunk(victim);
  for (u32 i = 0; i < kChunkPages; ++i) {
    if (!e.resident.test(i)) continue;
    release(base + i, pt_.unmap(base + i), owner);
    ++pages_out;
  }
  // Spill-to-peer (docs/fabric.md): if a peer has room, the victim's pages
  // move over NVLink instead of writing back to host over PCIe. Spilled
  // chunks never re-spill — their second eviction is a host write-back.
  const u32 spill_dst = fabric_ != nullptr && spill_ && !e.spilled && pages_out > 0
                            ? fabric_->spill(device_, victim, e.resident)
                            : kHostDevice;
  if (spill_dst != kHostDevice) {
    record_event(rec_, EventType::kPageSpilled, victim, spill_dst, pages_out);
    ++stats_.chunks_spilled;
    stats_.pages_spilled += pages_out;
  } else {
    record_event(rec_, EventType::kEvictionChosen, victim, e.untouch_level(),
                 pages_out);
    d2h_.reserve(eq_.now(), pages_out);  // write-back occupancy (full duplex)
  }
  chain.erase(victim);
  account_eviction(owner, initiator, 1, pages_out);
}

void EvictionEngine::release(PageId p, FrameId f, TenantId owner) {
  frames_.release(f, owner);
  record_event(rec_, EventType::kShootdownIssued, p, f);
  shootdowns_.page(p, f);
  if (fabric_ != nullptr) fabric_->note_page_unmapped(device_, p);
}

void EvictionEngine::account_eviction(TenantId owner, TenantId initiator,
                                      u64 chunks, u64 pages) {
  stats_.chunks_evicted += chunks;
  stats_.pages_evicted += pages;
  if (tenants_ == nullptr || owner == kNoTenant) return;
  TenantStats& os = tenants_->stats(owner);
  os.chunks_evicted += chunks;
  os.pages_evicted += pages;
  if (initiator == owner) {
    os.evicted_by_self += chunks;
  } else if (initiator != kNoTenant) {
    os.evicted_by_others += chunks;
    tenants_->stats(initiator).evictions_of_others += chunks;
  }
}

bool EvictionEngine::whole_frame_evictable(LargeId l) const {
  // Spill-to-peer stays a per-chunk decision: a spillable frame splinters
  // so each chunk can take its own spill/write-back route.
  if (fabric_ != nullptr && spill_) return false;
  const ChunkId c0 = first_chunk_of_large(l);
  const ChunkChain& chain = chains_.chain_of_chunk(c0);
  for (u32 k = 0; k < kLargeChunks; ++k) {
    const ChunkEntry& e = chain.entry(c0 + k);
    if (e.pinned()) return false;
    // Cold = no demand touch in the current or previous interval; one warm
    // sibling keeps the frame intact and forces splinter-then-evict.
    if (e.last_touch_interval + 1 >= chain.current_interval()) return false;
  }
  return true;
}

void EvictionEngine::evict_large_frame(LargeId l, TenantId initiator) {
  const ChunkId c0 = first_chunk_of_large(l);
  ChunkChain& chain = chains_.chain_of_chunk(c0);
  // Alignment makes the whole region one tenant's (namespaces are 2 MB
  // aligned), so one owner covers all 32 chunks.
  const TenantId owner =
      tenants_ != nullptr ? tenants_->tenant_of_chunk(c0) : kNoTenant;

  u64 untouch = 0;
  for (u32 k = 0; k < kLargeChunks; ++k) {
    ChunkEntry& e = chain.entry(c0 + k);
    assert(!e.pinned() && e.resident.full());
    untouch += e.untouch_level();
    EvictionPolicy* policy = chains_.policy(chains_.domain_of_chunk(c0 + k));
    policy->on_chunk_evicted(e);
    // CPPE coordination is per chunk: each chunk's demand-touch pattern
    // feeds the pattern buffer exactly as a small eviction would.
    if (!e.spilled) prefetcher_->on_chunk_evicted(c0 + k, e.touched);
  }

  const FrameId base = pt_.unmap_large(l);
  const PageId p0 = first_page_of_large(l);
  for (u32 i = 0; i < kLargePages; ++i) release(p0 + i, base + i, owner);
  shootdowns_.large(l);

  // ONE eviction operation: one service op on the critical path and one
  // bulk DMA whose per-page occupancy is discounted (setup amortised over
  // the contiguous 2 MB write-back).
  record_event(rec_, EventType::kLargeFrameEvicted, c0, untouch, kLargePages);
  d2h_.reserve_bulk(eq_.now(), kLargePages, bulk_dma_percent_);
  for (u32 k = 0; k < kLargeChunks; ++k) chain.erase(c0 + k);
  ++stats_.large_frames_evicted;
  account_eviction(owner, initiator, kLargeChunks, kLargePages);
}

}  // namespace uvmsim
