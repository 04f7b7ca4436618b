#include "uvm/driver.hpp"

#include <algorithm>

namespace uvmsim {

namespace {

/// Chain domains: one per tenant in the partitioned and quota modes, else
/// one.
u64 chain_domains(const DriverLinks& links) {
  return links.tenants != nullptr && links.mode != TenantMode::kShared
             ? links.tenants->size()
             : 1;
}

}  // namespace

UvmDriver::UvmDriver(EventQueue& eq, const SystemConfig& sys,
                     const PolicyConfig& pol, u64 footprint_pages,
                     u64 capacity_pages, const DriverLinks& links)
    : eq_(eq),
      sys_(sys),
      pol_(pol),
      footprint_pages_(footprint_pages),
      rec_(links.recorder),
      table_(links.tenants),
      mode_(links.mode),
      fabric_(links.fabric),
      device_(links.device),
      chains_(pol.interval_faults, capacity_pages / kChunkPages + 1, links.tenants,
              chain_domains(links)),
      frames_(capacity_pages, u64{pol.pre_evict_watermark_chunks} * kChunkPages,
              links.tenants, links.mode, pol.large_pages),
      backend_(make_fault_backend(sys, pol, faults_, rec_)),
      lfm_(pol.large_pages ? std::make_unique<LargeFrameManager>(
                                 eq, sys, pt_, chains_, shootdowns_, stats_, rec_)
                           : nullptr),
      evictor_(eq, chains_, pt_, frames_, shootdowns_, sys.pcie_page_cycles(), stats_,
               links, lfm_.get(), sys.bulk_dma_percent),
      h2d_(sys.pcie_page_cycles()) {
  // Mapped pages never exceed the frames backing them: size the page table
  // (and, above, every chain) once so the fault path never rehashes mid-run.
  pt_.reserve(capacity_pages);
  if (table_ != nullptr) table_->compute_quotas(frames_.capacity());
}

UvmDriver::~UvmDriver() = default;

void UvmDriver::set_domain_policy(u64 domain,
                                  std::unique_ptr<EvictionPolicy> policy) {
  if (policy) policy->set_recorder(rec_);
  chains_.set_policy(domain, std::move(policy));
}
void UvmDriver::set_prefetcher(std::unique_ptr<Prefetcher> prefetcher) {
  prefetcher_ = std::move(prefetcher);
  evictor_.set_prefetcher(prefetcher_.get());
  if (prefetcher_) prefetcher_->set_recorder(rec_);
}

u64 UvmDriver::detach_tenant(TenantId t) {
  assert(table_ != nullptr && table_->active(t));
  const PageId base = table_->info(t).base;
  const u64 span = table_->namespace_pages(t);
  ChunkChain& chain = chains_.chain_for(t);
  u64 reclaimed = 0;
  const ChunkId first = chunk_of_page(base);
  const ChunkId last = chunk_of_page(base + span - 1);
  for (ChunkId c = first; c <= last; ++c) {
    ChunkEntry* e = chain.find(c);
    if (e == nullptr) continue;
    assert(e->pin_count == 0 && "detach only after the tenant's warps finish");
    if (lfm_ != nullptr && lfm_->coalesced(large_of_chunk(c)))
      lfm_->splinter(large_of_chunk(c), SplinterReason::kSurrender);
    const PageId chunk_base = first_page_of_chunk(c);
    for (u32 i = 0; i < kChunkPages; ++i) {
      if (!e->resident.test(i)) continue;
      e->resident.clear(i);
      e->touched.clear(i);
      evictor_.release(chunk_base + i, pt_.unmap(chunk_base + i), t);
      ++reclaimed;
    }
    // Teardown is not an eviction: no policy notification (a recycled
    // namespace must not seed the next job's wrong-eviction buffer) and no
    // pattern recording or D2H write-back — the job is done, its data dies.
    chain.erase(c);
  }
  if (prefetcher_) prefetcher_->forget_range(base, span);
  return reclaimed;
}

void UvmDriver::note_touch(PageId p) {
  const ChunkId c = chunk_of_page(p);
  const u64 domain = chains_.domain_of_chunk(c);
  ChunkChain& chain = chains_.chain(domain);
  ChunkEntry* e = chain.find(c);
  if (e == nullptr) return;  // resident page always has a chain entry, but be safe
  const u32 idx = page_index_in_chunk(p);
  if (!e->touched.test(idx)) {
    e->touched.set(idx);
    ++e->hpe_counter;
    // Lazy coalescing trigger (large-pages mode): this chunk just became
    // fully demand-touched — its 2 MB region may now qualify. The scan runs
    // deferred, off this access's critical path.
    if (lfm_ != nullptr && e->touched.full())
      lfm_->schedule_scan(large_of_chunk(c));
  }
  e->last_touch_interval = chain.current_interval();
  EvictionPolicy* policy = chains_.policy(domain);
  if (policy->reorder_on_touch()) chain.move_to_tail(e->id);
  policy->on_page_touched(*e, idx);
}

void UvmDriver::fault(PageId p, u32 sm, WakeCallback wake) {
  assert(p < footprint_pages_);
  if (pt_.resident(p)) {  // raced with a completing migration
    note_touch(p);
    wake();
    return;
  }
  const TenantId t = tenant_of(p);
  if (PendingFault* f = faults_.find(p)) {
    // The page already has an outstanding fault — raised (stage 0) or with
    // its migration in flight (stage 1): the fault coalesces (replayable far
    // faults simply replay once the page lands).
    ++stats_.faults_coalesced;
    if (t != kNoTenant) ++table_->stats(t).faults_coalesced;
    record_event(rec_, EventType::kFaultCoalesced, p, f->in_flight ? 1 : 0);
    f->waiters.push_back(std::move(wake));
    return;
  }
  if (fabric_ != nullptr) {
    const FabricDecision d = fabric_->route_fault(device_, p);
    switch (d.route) {
      case FabricRoute::kHostFetch:
        break;  // fall through to the normal host-migration path
      case FabricRoute::kRemoteAccess:
        // Map the access over NVLink: one cache line crosses the fabric and
        // the warp resumes when it is back; the page stays on its owner.
        ++stats_.remote_accesses;
        record_event(rec_, EventType::kRemoteAccess, p, d.device,
                     d.ready - eq_.now());
        eq_.schedule_at(d.ready, std::move(wake));
        return;
      case FabricRoute::kPeerFetch:
        peer_fetch(p, d.device, d.hopback, std::move(wake));
        return;
      case FabricRoute::kForward:
        // Placement homes the page elsewhere, or a peer is already fetching
        // it: that device services the fault with its own chain/policy, or
        // its outstanding fault absorbs this one; the reply crosses back as
        // one remote access.
        ++stats_.faults_forwarded;
        fabric_->forward_fault(device_, d.device, p, std::move(wake));
        return;
    }
  }
  ++stats_.page_faults;
  if (t != kNoTenant) ++table_->stats(t).page_faults;
  record_event(rec_, EventType::kFaultRaised, p, chunk_of_page(p));
  // Wrong-eviction detection happens per fault event, in the domain that
  // evicted (and may re-admit) the page's chunk.
  chains_.policy_for(t)->on_fault(p);
  faults_.raise(p, std::move(wake), eq_.now());
  backend_->raise(p, sm);
  dispatch_pending();
}

void UvmDriver::service_batch(std::vector<PageId> leads) {
  // Any of the batch's faults may have been absorbed into another plan (or
  // even completed) between formation/retry and now; if none are left,
  // release the slot and move on.
  std::erase_if(leads, [&](PageId p) { return !faults_.pending(p); });
  if (leads.empty()) {
    --active_migrations_;
    dispatch_pending();
    return;
  }
  if (pol_.fault_batch > 1)
    record_event(rec_, EventType::kFaultBatchFormed, leads.front(),
                 leads.size(), backend_->queued());
  const TenantId t = tenant_of(leads.front());

  // 1. Let the prefetcher plan the migration set, one plan per fault in the
  //    batch, merged and deduped. A lead page already swept into an earlier
  //    lead's plan is absorbed intra-batch (its waiters ride along). When
  //    prefetching under oversubscription is disabled (Fig 10's variant), a
  //    full memory demands the faulted pages only. Tenant pressure is
  //    scoped: partitioned tenants gate on their own quota headroom.
  MigrationBatch m;
  m.formed_at = eq_.now();
  m.tenant = t;
  const bool gated = !pol_.prefetch_when_full && frames_.under_pressure(t);
  for (const PageId p : leads) {
    if (std::find(m.pages.begin(), m.pages.end(), p) != m.pages.end()) continue;
    if (gated) {
      m.pages.push_back(p);
      continue;
    }
    std::vector<PageId> plan = prefetcher_->plan(p, *this);
    // Clip the plan to the faulting tenant's namespace: a prefetcher
    // planning near a namespace edge must not migrate another tenant's (or
    // an alignment gap's) pages.
    if (table_ != nullptr)
      std::erase_if(plan,
                    [&](PageId q) { return !table_->owns_page(t, q); });
    // Defensive: guarantee the faulted page is transferred even if a
    // prefetcher mis-plans around it.
    if (std::find(plan.begin(), plan.end(), p) == plan.end())
      plan.push_back(p);
    for (const PageId q : plan)
      if (std::find(m.pages.begin(), m.pages.end(), q) == m.pages.end())
        m.pages.push_back(q);
  }

  // Keep the faulted pages at the front (in batch order) so plan trimming
  // never drops them first, and clamp oversized plans (the tree prefetcher
  // can request up to 2 MB) to the physical capacity — the tenant's quota
  // in partitioned mode.
  for (std::size_t i = 0; i < leads.size(); ++i) {
    auto it = std::find(m.pages.begin() + static_cast<std::ptrdiff_t>(i),
                        m.pages.end(), leads[i]);
    assert(it != m.pages.end());
    std::iter_swap(m.pages.begin() + static_cast<std::ptrdiff_t>(i), it);
  }
  u64 admission_cap = capacity_pages();
  if (table_ != nullptr && mode_ == TenantMode::kPartitioned)
    admission_cap = std::min(admission_cap, table_->quota_frames(t));
  if (m.pages.size() > admission_cap) m.pages.resize(admission_cap);
  while (leads.size() > m.pages.size()) {  // window wider than capacity
    backend_->requeue_front(leads.back());
    leads.pop_back();
  }
  admit(std::move(m), std::move(leads));
}

void UvmDriver::admit(MigrationBatch m, std::vector<PageId> leads) {
  const TenantId t = m.tenant;
  ChunkChain& chain = chains_.chain_for(t);

  // 2. Make room. Chunks touched by this plan are pinned before any eviction
  //    so a victim search can never select what we are about to fill. All
  //    planned pages live in the batch tenant's namespace, hence its chain.
  for (const PageId page : m.pages) {
    if (ChunkEntry* e = chain.find(chunk_of_page(page))) {
      ++e->pin_count;
      m.pinned.push_back(e->id);
    }
  }
  const auto unpin_page = [&](PageId page) {
    if (ChunkEntry* e = chain.find(chunk_of_page(page))) {
      auto it = std::find(m.pinned.begin(), m.pinned.end(), e->id);
      if (it != m.pinned.end()) {
        --e->pin_count;
        m.pinned.erase(it);
      }
    }
  };
  const auto room = evictor_.make_room(m.pages.size(), t);
  if (room.starved) {
    // Every candidate chunk is pinned by concurrent migrations. If even the
    // faulted pages cannot fit, release our pins and form the batch again
    // once a concurrent migration has completed (one must exist — pins come
    // only from active migrations); its pages stay pending or in flight, so
    // later faults keep coalescing onto them. Otherwise shrink the plan to
    // what fits now; a trimmed lead fault goes back to the front of the
    // backlog. A one-page batch is never trimmed.
    if (frames_.admissible_frames(t) == 0) {
      for (const ChunkId c : m.pinned) --chain.entry(c).pin_count;
      eq_.schedule_in(sys_.fault_latency_cycles() / 4 + 1,
                      [this, src = m.src_device, ls = std::move(leads)]() mutable {
                        if (src != kHostDevice)
                          service_peer(ls.front(), src);
                        else
                          service_batch(std::move(ls));
                      });
      return;
    }
    while (m.pages.size() > frames_.admissible_frames(t)) {
      const PageId dropped = m.pages.back();
      unpin_page(dropped);
      m.pages.pop_back();
      if (m.pages.size() < leads.size()) {
        assert(leads.back() == dropped);
        backend_->requeue_front(dropped);
        leads.pop_back();
      }
    }
  }
  assert(frames_.admissible_frames(t) >= m.pages.size());
  frames_.reserve(m.pages.size(), t);

  // 3. Mark every planned page in flight, absorbing pending faults: their
  //    waiters ride this migration and their queue entries will be skipped
  //    at batch formation. A peer fetch's page is in flight already.
  for (const PageId page : m.pages) faults_.start(page);

  // 4. Service happens first — the backend's timing model (the classic
  //    20 us host round trip, or the GPU-driven handler's occupancy),
  //    lengthened by any eviction work that had to run synchronously on
  //    this batch's critical path (pre-eviction exists to keep that at
  //    zero) — then the pages occupy the H2D link, or the fabric for a peer
  //    fetch.
  m.lead = leads.front();
  m.faults = static_cast<u32>(leads.size());
  ++stats_.migration_ops;
  stats_.demand_evictions += room.evicted;
  const Cycle service_done =
      backend_->reserve_service(eq_.now(), m.lead, m.faults, room.evicted);
  const Cycle transfer_done =
      m.src_device != kHostDevice
          ? fabric_->reserve_transfer(m.src_device, device_, m.pages.size(),
                                      service_done)
          : h2d_.reserve(service_done, m.pages.size());
  record_event(rec_, EventType::kMigrationPlanned, m.lead, m.pages.size(),
               transfer_done - service_done);
  eq_.schedule_at(transfer_done, [this, mig = std::move(m)]() mutable {
    complete(std::move(mig));
  });
}

void UvmDriver::peer_fetch(PageId p, u32 src, bool hopback, WakeCallback wake) {
  ++stats_.page_faults;
  ++stats_.peer_fetches;
  if (hopback) ++stats_.spill_hopbacks;
  record_event(rec_, EventType::kFaultRaised, p, chunk_of_page(p));
  record_event(rec_, EventType::kPeerMigration, p, src, hopback ? 1 : 0);
  // Wrong-eviction detection sees hop-backs exactly as the paper intends: a
  // re-fault on a chunk this device evicted (spilled) is a wrong eviction.
  chains_.policy_for(tenant_of(p))->on_fault(p);
  faults_.raise(p, std::move(wake), eq_.now()).in_flight = true;
  service_peer(p, src);
}

void UvmDriver::service_peer(PageId p, u32 src) {
  MigrationBatch m;
  m.formed_at = eq_.now();
  m.tenant = tenant_of(p);
  m.src_device = src;
  m.pages.push_back(p);
  admit(std::move(m), {p});
}

void UvmDriver::surrender_page(PageId p) {
  // A coalesced region cannot lose a single page: splinter first (the 2 MB
  // translation disappears; per-page frames stay put until unmapped below).
  if (lfm_ != nullptr && lfm_->coalesced(large_of_page(p)))
    lfm_->splinter(large_of_page(p), SplinterReason::kSurrender);
  const ChunkId c = chunk_of_page(p);
  ChunkChain& chain = chains_.chain_of_chunk(c);
  ChunkEntry& e = chain.entry(c);
  assert(e.pin_count > 0);  // pinned by route_fault when the fetch was routed
  --e.pin_count;
  const u32 idx = page_index_in_chunk(p);
  if (e.resident.test(idx)) {
    e.resident.clear(idx);
    e.touched.clear(idx);
    ++stats_.pages_surrendered;
    evictor_.release(p, pt_.unmap(p), tenant_of(p));
  }
  // A migration-away is not an eviction: no policy notification, no pattern
  // recording, no D2H write-back. Drop the entry once nothing is left.
  if (e.resident.count() == 0 && e.pin_count == 0) chain.erase(c);
}

void UvmDriver::adopt_spilled_chunk(ChunkId c, const TouchBits& resident) {
  const PageId base = first_page_of_chunk(c);
  const TenantId t = tenant_of(base);
  const u64 domain = chains_.domain_of_chunk(c);
  ChunkChain& chain = chains_.chain(domain);
  ChunkEntry* e = chain.find(c);
  if (e == nullptr) {
    e = &chain.insert(c, /*at_head=*/false);
    chains_.policy(domain)->on_chunk_inserted(*e);
  }
  e->spilled = true;
  for (u32 i = 0; i < kChunkPages; ++i) {
    if (!resident.test(i) || e->resident.test(i)) continue;
    frames_.reserve(1, t);
    pt_.map(base + i, frames_.allocate_for(base + i));
    e->resident.set(i);
  }
  // Touched bits start empty: the spilled copy is a second chance, and only
  // genuine demand touches here should count toward MHPE's untouch levels.
}

void UvmDriver::pin_for_transfer(ChunkId c) {
  ChunkEntry* e = chains_.chain_of_chunk(c).find(c);
  assert(e != nullptr);
  ++e->pin_count;
}

void UvmDriver::complete(MigrationBatch m) {
  // Batches are tenant-homogeneous: every page of the plan lives in the
  // batch tenant's namespace, so one chain/policy domain covers the batch.
  const TenantId t = m.tenant;
  ChunkChain& chain = chains_.chain_for(t);
  EvictionPolicy* policy = chains_.policy_for(t);
  assert(policy != nullptr);
  TenantStats* ts = t != kNoTenant ? &table_->stats(t) : nullptr;
  for (const PageId page : m.pages) {
    // Bind a physical frame (accounting was done at admission); the
    // slot-binding allocator is a plain allocate() outside large mode.
    pt_.map(page, frames_.allocate_for(page));
    // On a fabric a peer fetch's source surrenders its (pinned) copy here.
    if (fabric_ != nullptr) fabric_->note_page_mapped(device_, page);

    const ChunkId c = chunk_of_page(page);
    ChunkEntry* e = chain.find(c);
    if (e == nullptr) {
      const bool at_head = policy->insert_position(c) == InsertPosition::kHead;
      e = &chain.insert(c, at_head);
      policy->on_chunk_inserted(*e);
    }
    const u32 idx = page_index_in_chunk(page);
    e->resident.set(idx);
    ++e->hpe_counter;  // HPE's counter counts *migrated* pages — the
                       // prefetch pollution the paper's Inefficiency 1 describes

    // Wake any warps that faulted on this page; their presence marks the
    // page as demanded (touched) rather than purely prefetched.
    if (PendingFault pf; faults_.take(page, pf) && !pf.waiters.empty()) {
      e->touched.set(idx);
      e->last_touch_interval = chain.current_interval();
      ++stats_.pages_demanded;
      if (ts != nullptr) ++ts->pages_demanded;
      if (pf.faulted) {
        stats_.fault_wait_cycles += eq_.now() - pf.raised_at;
        if (ts != nullptr) ts->fault_wait_cycles += eq_.now() - pf.raised_at;
      }
      policy->on_page_touched(*e, idx);
      // Lazy coalescing trigger: a chunk whose every page has now been
      // demanded may complete its 2 MB region — scan off the critical path.
      if (lfm_ != nullptr && e->touched.full())
        lfm_->schedule_scan(large_of_chunk(c));
      for (auto& wake : pf.waiters) wake();
    } else {
      ++stats_.pages_prefetched;
      if (ts != nullptr) ++ts->pages_prefetched;
    }
  }
  stats_.pages_migrated_in += m.pages.size();
  if (ts != nullptr) ts->pages_migrated_in += m.pages.size();

  // Release admission-time pins.
  for (const ChunkId c : m.pinned) {
    ChunkEntry& e = chain.entry(c);  // pinned chunks cannot have been evicted
    assert(e.pin_count > 0);
    --e.pin_count;
  }

  // Advance the interval clock by migrated pages (64 pages = 4 chunks per
  // interval with whole-chunk prefetch, matching §IV-B). A batch larger than
  // one interval crosses several boundaries at once (a 512-page tree-
  // prefetch plan crosses 8): the policy's per-interval work (threshold
  // checks, accumulator resets) must run once per boundary, not once per
  // batch. Per-tenant domains advance their own interval clocks.
  const u64 crossed = chain.note_pages_migrated(m.pages.size());
  for (u64 i = 0; i < crossed; ++i) {
    record_event_for(rec_, t, EventType::kIntervalBoundary,
                     chain.current_interval() - crossed + i + 1,
                     chain.pages_migrated());
    policy->on_interval_boundary();
  }

  if (pol_.fault_batch > 1)
    record_event(rec_, EventType::kBatchServiced, m.lead, m.faults,
                 (eq_.now() - m.formed_at) / std::max<u64>(1, m.faults));

  // Pre-evict ahead of the next fault: keep the configured watermark of
  // frames free so eviction work stays off fault critical paths. Only
  // meaningful when memory is actually oversubscribed — with the footprint
  // fully cacheable nothing will ever need the headroom. Scoped to the
  // tenant whose batch just completed: its chain (partitioned/quota) or
  // its scope preference (shared) supplies the victims.
  if (frames_.capacity() < footprint_pages_) {
    const u64 watermark = frames_.watermark_pages();
    if (frames_.admissible_frames(t) < watermark)
      record_event_for(rec_, t, EventType::kPreEvictionTriggered,
                       frames_.free_frames(), watermark);
    stats_.pre_evictions += evictor_.make_room(watermark, t).evicted;
  }

  // Admit backlogged faults into the freed driver slot. Peer fetches never
  // held a slot (they bypass the backend), so there is nothing to release.
  if (m.src_device != kHostDevice) return;
  --active_migrations_;
  dispatch_pending();
}

void UvmDriver::dispatch_pending() {
  if (active_migrations_ >= std::max(1u, pol_.driver_concurrency)) return;
  std::vector<PageId> leads = backend_->take_batch(table_);
  if (leads.empty()) return;
  ++active_migrations_;
  service_batch(std::move(leads));
}

}  // namespace uvmsim
