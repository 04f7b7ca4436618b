#include "gpu/gpu.hpp"

#include <bit>

#include "common/rng.hpp"

namespace uvmsim {
namespace {

// The widths of Gpu::Held's SM mask and of each copy's line mask.
constexpr u32 kSmBits = 32;
constexpr u32 kLineBits = 16;

}  // namespace

Gpu::Gpu(EventQueue& eq, const SystemConfig& cfg, UvmDriver& driver,
         const Workload& workload, u64 seed, GpuSlice slice)
    : eq_(eq),
      cfg_(cfg),
      driver_(driver),
      dram_(cfg),
      l2_tlb_(cfg.l2_tlb_entries, cfg.l2_tlb_ways, cfg.l2_tlb_latency, cfg.l2_tlb_ports),
      l2_cache_(cfg.l2_cache_bytes / cfg.cache_line_bytes, cfg.l2_cache_ways),
      // Bind the walker to the member copy, not the ctor argument: callers
      // may pass a temporary config (multi-tenant SM slices do).
      walker_(eq, driver.page_table(), cfg_),
      page_base_(slice.page_base),
      held_(workload.footprint_pages()),
      lines_per_page_(static_cast<u32>(kPageBytes) / cfg.cache_line_bytes) {
  if (slice.total_warps == 0) slice.total_warps = cfg.num_sms * cfg.warps_per_sm;
  SplitMix64 seeder(seed);
  sms_.resize(cfg.num_sms);
  for (u32 s = 0; s < cfg.num_sms; ++s) {
    Sm& sm = sms_[s];
    sm.l1_tlb =
        std::make_unique<Tlb>(cfg.l1_tlb_entries, cfg.l1_tlb_ways, cfg.l1_tlb_latency);
    sm.l1d = std::make_unique<SetAssocCache>(
        cfg.l1_cache_bytes / cfg.cache_line_bytes, cfg.l1_cache_ways);
    sm.warps.resize(cfg.warps_per_sm);
    for (u32 w = 0; w < cfg.warps_per_sm; ++w) {
      const WarpContext ctx{
          .global_index = slice.warp_base + s * cfg.warps_per_sm + w,
          .total_warps = slice.total_warps,
          .seed = seeder.next(),
      };
      sm.warps[w].stream = workload.make_stream(ctx);
      ++live_warps_;
    }
  }
  // Large-pages mode: gated 2 MB sub-arrays beside the small TLBs.
  if (driver_.large_pages_enabled()) {
    l2_tlb_.configure_large(cfg.l2_tlb_large_entries);
    for (auto& sm : sms_) sm.l1_tlb->configure_large(cfg.l1_tlb_large_entries);
  }
  // One registration on the driver's ShootdownList, which every Gpu sharing
  // the driver sees in full. The page handler runs before the frame is
  // recycled, so the frame still names the departing lines. The 2 MB
  // handler drops only the large translation (splinter, whole-frame
  // eviction); per-page entries and lines go through the page handler.
  shootdown_handle_ = driver_.add_shootdown_handler(
      [this](PageId p, FrameId f) { invalidate(p, f); },
      [this](LargeId l) {
        l2_tlb_.invalidate_large(l);
        for (auto& sm : sms_) sm.l1_tlb->invalidate_large(l);
      });
}

Gpu::~Gpu() {
  // Fleet runs destroy a job's Gpu while the shared driver lives on: the
  // handlers above capture `this`, so they must not outlive it.
  driver_.remove_shootdown_handler(shootdown_handle_);
}

void Gpu::launch() {
  for (u32 s = 0; s < sms_.size(); ++s)
    for (u32 w = 0; w < sms_[s].warps.size(); ++w)
      warp_step(s, w);
}

void Gpu::warp_step(u32 sm, u32 warp) {
  Warp& wp = sms_[sm].warps[warp];
  Access a;
  if (!wp.stream->next(a)) {
    warp_finished();
    return;
  }
  assert(a.page < held_.size() && "every access lies inside the slice");
  ++accesses_;
  auto ev = [this, sm, warp, page = a.page + page_base_] {
    do_access(sm, warp, page);
  };
  // One event per access: the capture must stay in the SBO buffer, or the
  // simulator is back to one heap allocation per simulated access.
  static_assert(EventQueue::Callback::fits_inline<decltype(ev)>);
  eq_.schedule_in(a.think, std::move(ev));
}

void Gpu::do_access(u32 sm, u32 warp, PageId page) {
  // (1) per-SM L1 TLB.
  const Tlb::Result l1 = sms_[sm].l1_tlb->lookup(eq_.now(), page);
  if (l1.hit) {
    finish_access(sm, warp, page, l1.ready_at);
    return;
  }
  // (2) shared L2 TLB. A hit anywhere below L1 is a demand touch the driver
  // can observe (PTE access bits).
  const Tlb::Result l2 = l2_tlb_.lookup(l1.ready_at, page);
  if (l2.hit) {
    // A large-entry L2 hit propagates the 2 MB translation to the L1.
    if (l2.large)
      sms_[sm].l1_tlb->fill_large(large_of_page(page));
    else
      sms_[sm].l1_tlb->fill(page);
    driver_.note_touch(page);
    finish_access(sm, warp, page, l2.ready_at);
    return;
  }
  // (3)-(5) page table walk.
  auto done = [this, sm, warp](PageId p, bool resident) {
    if (resident) {
      // A walk that ended on a level-1 large leaf fills 2 MB entries.
      if (l2_tlb_.large_enabled() &&
          driver_.page_table().large_mapped(large_of_page(p))) {
        l2_tlb_.fill_large(large_of_page(p));
        sms_[sm].l1_tlb->fill_large(large_of_page(p));
      } else {
        l2_tlb_.fill(p);
        sms_[sm].l1_tlb->fill(p);
      }
      driver_.note_touch(p);
      finish_access(sm, warp, p, eq_.now());
      return;
    }
    // Replayable far fault: the warp parks until the page is migrated; the
    // SM continues with its other warps (they have their own events).
    ++far_faults_;
    auto wake = [this, sm, warp, p] {
      l2_tlb_.fill(p);
      sms_[sm].l1_tlb->fill(p);
      finish_access(sm, warp, p, eq_.now());
    };
    static_assert(WakeCallback::fits_inline<decltype(wake)>);
    driver_.fault(p, sm, std::move(wake));
  };
  static_assert(PageWalker::WalkDone::fits_inline<decltype(done)>);
  walker_.walk(page, std::move(done));
}

void Gpu::finish_access(u32 sm, u32 warp, PageId page, Cycle ready) {
  // Charge the data access through the cache hierarchy (Table I). The line
  // within the page advances deterministically every second access: a warp
  // issues back-to-back accesses to the same coalesced 128 B transaction
  // (short-range reuse the L1D catches), then moves to another line.
  const FrameId f = driver_.page_table().frame_of(page);
  Warp& wp = sms_[sm].warps[warp];
  const u32 offset = (wp.access_count++ / 2 * 7) % lines_per_page_;
  const u64 line = line_base(page, f) + offset;
  // This SM's L1 TLB may hold the page (every fill is followed by this
  // call), and its L1D and the L2 the line inserted below.
  Held& h = held_[page - page_base_];
  h.sms |= 1u << (sm % kSmBits);
  u16& lines = f == kInvalidFrame ? h.remote : h.local;
  lines |= static_cast<u16>(1u << (offset % kLineBits));

  Cycle done;
  if (sms_[sm].l1d->lookup(line)) {
    ++l1d_hits_;
    done = ready + cfg_.l1_cache_latency;
  } else {
    ++l1d_misses_;
    sms_[sm].l1d->insert(line);
    if (l2_cache_.lookup(line)) {
      ++l2c_hits_;
      done = ready + cfg_.l2_cache_latency;
    } else {
      ++l2c_misses_;
      l2_cache_.insert(line);
      done = dram_.access(ready + cfg_.l2_cache_latency, f == kInvalidFrame ? page : f);
    }
  }
  auto ev = [this, sm, warp] { warp_step(sm, warp); };
  static_assert(EventQueue::Callback::fits_inline<decltype(ev)>);
  eq_.schedule_at(done, std::move(ev));
}

void Gpu::invalidate(PageId p, FrameId f) {
  l2_tlb_.invalidate(p);
  // A page outside the slice (another tenant's or another fleet job's) was
  // never read here.
  if (p - page_base_ >= held_.size()) return;
  Held& h = held_[p - page_base_];
  // Every SM s whose bit s % kSmBits is set, and every line offset o of
  // the departing copy whose bit o % kLineBits is set.
  const auto each_sm = [&](auto&& probe) {
    for (u32 bits = h.sms; bits != 0; bits &= bits - 1)
      for (u32 s = std::countr_zero(bits); s < sms_.size(); s += kSmBits) probe(sms_[s]);
  };
  each_sm([&](Sm& sm) { sm.l1_tlb->invalidate(p); });
  u16& lines = f == kInvalidFrame ? h.remote : h.local;
  const u64 base = line_base(p, f);
  for (u32 bits = lines; bits != 0; bits &= bits - 1) {
    for (u64 o = std::countr_zero(bits); o < lines_per_page_; o += kLineBits) {
      l2_cache_.invalidate(base + o);
      each_sm([&](Sm& sm) { sm.l1d->invalidate(base + o); });
    }
  }
  lines = 0;
  // The SM list serves both copies (a TLB entry is tagged by page, not by
  // copy), so it clears only once neither copy has a line left.
  if (h.local == 0 && h.remote == 0) h.sms = 0;
}

bool Gpu::holds(PageId p, FrameId f) const {
  bool held = l2_tlb_.holds(p);
  for (const auto& sm : sms_) held = held || sm.l1_tlb->holds(p);
  const u64 base = line_base(p, f);
  for (u64 tag = base; tag < base + lines_per_page_; ++tag) {
    held = held || l2_cache_.contains(tag);
    for (const auto& sm : sms_) held = held || sm.l1d->contains(tag);
  }
  return held;
}

void Gpu::warp_finished() {
  assert(live_warps_ > 0);
  if (--live_warps_ == 0) {
    finish_cycle_ = eq_.now();
    if (on_finished_) on_finished_();
  }
}

Gpu::Stats Gpu::stats() const {
  Stats st;
  st.accesses = accesses_;
  st.far_faults = far_faults_;
  st.l2_tlb_hits = l2_tlb_.hits();
  st.l2_tlb_misses = l2_tlb_.misses();
  st.l2_tlb_large_hits = l2_tlb_.large_hits();
  st.l1d_hits = l1d_hits_;
  st.l1d_misses = l1d_misses_;
  st.l2c_hits = l2c_hits_;
  st.l2c_misses = l2c_misses_;
  st.walks_performed = walker_.walks_performed();
  st.walk_cycles = walker_.walk_cycles();
  st.large_walks = walker_.large_walks();
  for (const auto& sm : sms_) {
    st.l1_tlb_hits += sm.l1_tlb->hits();
    st.l1_tlb_misses += sm.l1_tlb->misses();
    st.l1_tlb_large_hits += sm.l1_tlb->large_hits();
  }
  return st;
}

}  // namespace uvmsim
