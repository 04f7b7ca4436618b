// GPU model: translation path, far-fault replay, shootdown wiring, remote
// line tags, a page held locally and remotely at once, workload slices, and
// end-to-end completion on a tiny synthetic workload.
#include "gpu/gpu.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "policy/lru.hpp"
#include "prefetch/prefetcher.hpp"
#include "workloads/segment.hpp"

namespace uvmsim {
namespace {

/// Minimal workload: every warp walks `pages` sequentially, once.
class MiniWorkload final : public Workload {
 public:
  explicit MiniWorkload(u64 pages) : pages_(pages) {}
  [[nodiscard]] std::string name() const override { return "mini"; }
  [[nodiscard]] std::string abbr() const override { return "MINI"; }
  [[nodiscard]] u64 footprint_pages() const override { return pages_; }
  [[nodiscard]] PatternType pattern() const override { return PatternType::kStreaming; }
  [[nodiscard]] std::unique_ptr<AccessStream> make_stream(
      const WarpContext& ctx) const override {
    return std::make_unique<SegmentStream>(
        std::vector<Segment>{Segment::walk(0, pages_, ctx.global_index,
                                           ctx.total_warps, 1.0, 1, 10)},
        ctx.seed);
  }

 private:
  u64 pages_;
};

/// One warp replaying a fixed list of pages.
class PageListWorkload final : public Workload {
 public:
  PageListWorkload(u64 footprint, std::vector<PageId> pages)
      : footprint_(footprint), pages_(std::move(pages)) {}
  [[nodiscard]] std::string name() const override { return "page-list"; }
  [[nodiscard]] std::string abbr() const override { return "LIST"; }
  [[nodiscard]] u64 footprint_pages() const override { return footprint_; }
  [[nodiscard]] PatternType pattern() const override { return PatternType::kStreaming; }
  [[nodiscard]] std::unique_ptr<AccessStream> make_stream(
      const WarpContext&) const override {
    struct Stream final : AccessStream {
      std::vector<PageId> pages;
      std::size_t pos = 0;
      bool next(Access& out) override {
        if (pos == pages.size()) return false;
        out = Access{pages[pos++], 1};
        return true;
      }
    };
    auto st = std::make_unique<Stream>();
    st->pages = pages_;
    return st;
  }

 private:
  u64 footprint_;
  std::vector<PageId> pages_;
};

/// A fabric seen from device 0: device 1 serves chunk 0 remotely, and every
/// other page comes from the host.
class RemoteChunkZero final : public FabricPort {
 public:
  explicit RemoteChunkZero(EventQueue& eq) : eq_(eq) {}
  FabricDecision route_fault(u32, PageId p) override {
    if (chunk_of_page(p) != 0) return {};
    return {FabricRoute::kRemoteAccess, 1, false, eq_.now() + 100};
  }
  void forward_fault(u32, u32, PageId, WakeCallback) override {}
  Cycle reserve_transfer(u32, u32, u64, Cycle earliest) override { return earliest; }
  void note_page_mapped(u32, PageId) override {}
  void note_page_unmapped(u32, PageId) override {}
  u32 spill(u32, ChunkId, const TouchBits&) override { return kHostDevice; }
  [[nodiscard]] bool host_fetchable(u32, PageId p) const override {
    return chunk_of_page(p) != 0;
  }

 private:
  EventQueue& eq_;
};

/// A fabric seen from device 0: device 1 serves the first `remote_reads`
/// faults on page 0 remotely, and every other fault comes from the host.
class RemoteThenHost final : public FabricPort {
 public:
  RemoteThenHost(EventQueue& eq, u32 remote_reads) : eq_(eq), remote_left_(remote_reads) {}
  FabricDecision route_fault(u32, PageId p) override {
    if (p != 0 || remote_left_ == 0) return {};
    --remote_left_;
    return {FabricRoute::kRemoteAccess, 1, false, eq_.now() + 100};
  }
  void forward_fault(u32, u32, PageId, WakeCallback) override {}
  Cycle reserve_transfer(u32, u32, u64, Cycle earliest) override { return earliest; }
  void note_page_mapped(u32, PageId) override {}
  void note_page_unmapped(u32, PageId) override {}
  u32 spill(u32, ChunkId, const TouchBits&) override { return kHostDevice; }
  [[nodiscard]] bool host_fetchable(u32, PageId p) const override {
    return p != 0 || remote_left_ == 0;
  }

 private:
  EventQueue& eq_;
  u32 remote_left_;
};

struct GpuFixture : ::testing::Test {
  EventQueue eq;
  SystemConfig sys;
  PolicyConfig pol;

  void small_gpu() {
    sys.num_sms = 2;
    sys.warps_per_sm = 2;
  }

  std::unique_ptr<UvmDriver> make_driver(u64 footprint, u64 capacity,
                                         const DriverLinks& links = {}) {
    auto d = std::make_unique<UvmDriver>(eq, sys, pol, footprint, capacity, links);
    d->set_policy(std::make_unique<LruPolicy>(d->chain()));
    d->set_prefetcher(std::make_unique<LocalityPrefetcher>());
    return d;
  }
};

TEST_F(GpuFixture, RunsToCompletionWithAmpleMemory) {
  small_gpu();
  MiniWorkload wl(64);
  auto d = make_driver(64, 64);
  Gpu gpu(eq, sys, *d, wl, 1);
  gpu.launch();
  eq.run();
  EXPECT_TRUE(gpu.finished());
  EXPECT_GT(gpu.finish_cycle(), 0u);
  EXPECT_EQ(gpu.stats().accesses, 64u);  // 4 warps split one 64-page pass
}

TEST_F(GpuFixture, AllPagesFaultedInExactlyOnceWithoutOversubscription) {
  small_gpu();
  MiniWorkload wl(64);
  auto d = make_driver(64, 64);
  Gpu gpu(eq, sys, *d, wl, 1);
  gpu.launch();
  eq.run();
  // 64 pages / 16-page chunks: 4 migrations, no evictions.
  EXPECT_EQ(d->stats().pages_migrated_in, 64u);
  EXPECT_EQ(d->stats().pages_evicted, 0u);
  EXPECT_EQ(d->page_table().mapped_pages(), 64u);
}

TEST_F(GpuFixture, TlbsFilterRepeatedAccesses) {
  small_gpu();
  MiniWorkload wl(32);
  auto d = make_driver(32, 32);
  Gpu gpu(eq, sys, *d, wl, 1);
  gpu.launch();
  eq.run();
  const auto st = gpu.stats();
  EXPECT_EQ(st.l1_tlb_hits + st.l1_tlb_misses, st.accesses);
  // Every page is accessed once per warp slice, so L1 mostly misses here,
  // but the far-fault count must not exceed distinct pages.
  EXPECT_LE(st.far_faults, 32u);
}

TEST_F(GpuFixture, OversubscriptionForcesEvictionsAndStillCompletes) {
  small_gpu();
  MiniWorkload wl(128);
  auto d = make_driver(128, 64);  // 50% fits
  Gpu gpu(eq, sys, *d, wl, 1);
  gpu.launch();
  eq.run();
  EXPECT_TRUE(gpu.finished());
  EXPECT_GT(d->stats().pages_evicted, 0u);
  EXPECT_LE(d->page_table().mapped_pages(), 64u);
}

TEST_F(GpuFixture, ShootdownKeepsTlbsCoherent) {
  small_gpu();
  MiniWorkload wl(256);
  auto d = make_driver(256, 64);
  Gpu gpu(eq, sys, *d, wl, 1);
  gpu.launch();
  eq.run();
  EXPECT_TRUE(gpu.finished());
  // Coherence invariant: after the run every evicted page must be absent
  // from the page table; re-faulting works because TLBs were shot down.
  EXPECT_LE(d->page_table().mapped_pages(), 64u);
  EXPECT_EQ(d->stats().pages_migrated_in - d->stats().pages_evicted,
            d->page_table().mapped_pages());
}

// Page 0 is served remotely while local frame 0 holds a page of chunk 1.
// The remote lines must not share tags with frame 0's: evicting chunk 1
// shoots down frame 0 and must leave page 0's remote line cached. One-entry
// TLBs make holds() see only the data caches once page 0's translation has
// been replaced.
TEST_F(GpuFixture, RemoteLinesDoNotAliasLocalFrames) {
  sys.num_sms = 1;
  sys.warps_per_sm = 1;
  sys.l1_tlb_entries = 1;
  sys.l2_tlb_entries = 1;
  sys.l2_tlb_ways = 1;
  pol.pre_evict_watermark_chunks = 0;
  std::vector<PageId> pages{0, 0};  // both accesses touch the same line
  for (PageId p = kChunkPages; p < 4 * kChunkPages; ++p) pages.push_back(p);
  PageListWorkload wl(4 * kChunkPages, pages);
  RemoteChunkZero port(eq);
  auto d = make_driver(4 * kChunkPages, 2 * kChunkPages, {.fabric = &port, .device = 0});
  Gpu gpu(eq, sys, *d, wl, 1);
  int frame0_shootdowns = 0;
  d->add_shootdown_handler([&](PageId p, FrameId f) {
    if (f != 0) return;
    ++frame0_shootdowns;
    EXPECT_GE(chunk_of_page(p), 1u);
    EXPECT_FALSE(gpu.holds(p, f));
    EXPECT_TRUE(gpu.holds(0, kInvalidFrame));
  });
  gpu.launch();
  eq.run();
  EXPECT_TRUE(gpu.finished());
  EXPECT_EQ(d->stats().remote_accesses, 1u);
  EXPECT_EQ(frame0_shootdowns, 1);
  EXPECT_EQ(gpu.stats().l1d_hits, 1u);  // page 0's second access
}

// One page with a local and a remote copy at once: both SMs read page 0
// remotely, then read it again once it has migrated in (one-entry TLBs make
// that read fault), so each SM's L1D holds a line of each copy. Shooting
// down one copy, in either order, must drop every translation of the page
// and every line of that copy while the other copy's lines stay; its own
// shootdown then drops those too.
TEST_F(GpuFixture, EachCopyOfAPageHeldBothWaysIsShotDownAlone) {
  sys.num_sms = 2;
  sys.warps_per_sm = 1;
  sys.l1_tlb_entries = 1;
  sys.l2_tlb_entries = 1;
  sys.l2_tlb_ways = 1;
  pol.pre_evict_watermark_chunks = 0;
  for (const bool remote_first : {false, true}) {
    SCOPED_TRACE(remote_first ? "remote copy first" : "local copy first");
    EventQueue q;
    RemoteThenHost port(q, /*remote_reads=*/2);
    UvmDriver d(q, sys, pol, 2 * kChunkPages, 2 * kChunkPages,
                {.fabric = &port, .device = 0});
    d.set_policy(std::make_unique<LruPolicy>(d.chain()));
    d.set_prefetcher(std::make_unique<LocalityPrefetcher>());
    PageListWorkload wl(2 * kChunkPages, {0, kChunkPages, 0});
    Gpu gpu(q, sys, d, wl, 1);
    gpu.launch();
    q.run();
    ASSERT_TRUE(gpu.finished());
    ASSERT_EQ(d.stats().remote_accesses, 2u);
    ASSERT_TRUE(d.page_resident(0));
    const FrameId local = d.page_table().frame_of(0);
    ASSERT_TRUE(gpu.holds(0, local));
    ASSERT_TRUE(gpu.holds(0, kInvalidFrame));

    const FrameId first = remote_first ? kInvalidFrame : local;
    const FrameId second = remote_first ? local : kInvalidFrame;
    const auto shoot_down = [&](FrameId f) {
      if (f == kInvalidFrame) {
        d.remote_shootdown(0);
      } else {
        d.pin_for_transfer(chunk_of_page(0));
        d.surrender_page(0);
      }
    };
    // holds() reads every TLB as well, so a false answer also says that no
    // TLB holds page 0.
    shoot_down(first);
    EXPECT_FALSE(gpu.holds(0, first));
    EXPECT_TRUE(gpu.holds(0, second));
    shoot_down(second);
    EXPECT_FALSE(gpu.holds(0, second));
    EXPECT_FALSE(gpu.holds(0, first));
  }
}

/// Records the WarpContext of every stream it makes; warp g reads page g.
class ContextRecorder final : public Workload {
 public:
  [[nodiscard]] std::string name() const override { return "recorder"; }
  [[nodiscard]] std::string abbr() const override { return "REC"; }
  [[nodiscard]] u64 footprint_pages() const override { return 64; }
  [[nodiscard]] PatternType pattern() const override { return PatternType::kStreaming; }
  [[nodiscard]] std::unique_ptr<AccessStream> make_stream(
      const WarpContext& ctx) const override {
    seen.push_back(ctx);
    return std::make_unique<SegmentStream>(
        std::vector<Segment>{Segment::walk(ctx.global_index, 1, 0, 1, 1.0, 1, 10)},
        ctx.seed);
  }
  mutable std::vector<WarpContext> seen;
};

// A slice places the Gpu's warps in a larger grid and moves every page up
// by its base; the warp seeds are those of the whole-grid Gpu.
TEST_F(GpuFixture, SlicePlacesWarpsInTheGridAndPagesAtItsBase) {
  small_gpu();
  ContextRecorder whole;
  {
    EventQueue q;
    UvmDriver d0(q, sys, pol, 64, 64);
    Gpu g0(q, sys, d0, whole, 1);
  }
  ContextRecorder sliced;
  auto d = make_driver(64, 64);
  d->set_prefetcher(std::make_unique<NoPrefetcher>());
  Gpu gpu(eq, sys, *d, sliced, 1, GpuSlice{4, 12, 32});
  gpu.launch();
  eq.run();
  ASSERT_TRUE(gpu.finished());
  ASSERT_EQ(sliced.seen.size(), 4u);
  for (u32 w = 0; w < 4; ++w) {
    EXPECT_EQ(whole.seen[w].global_index, w);
    EXPECT_EQ(whole.seen[w].total_warps, 4u);
    EXPECT_EQ(sliced.seen[w].global_index, 4 + w);
    EXPECT_EQ(sliced.seen[w].total_warps, 12u);
    EXPECT_EQ(sliced.seen[w].seed, whole.seen[w].seed);
    EXPECT_TRUE(d->page_resident(32 + 4 + w));
    EXPECT_FALSE(d->page_resident(4 + w));
  }
  EXPECT_EQ(d->page_table().mapped_pages(), 4u);
}

TEST_F(GpuFixture, DeterministicAcrossRuns) {
  small_gpu();
  Cycle first = 0;
  for (int i = 0; i < 2; ++i) {
    EventQueue q;
    PolicyConfig p;
    auto d = std::make_unique<UvmDriver>(q, sys, p, 128, 64);
    d->set_policy(std::make_unique<LruPolicy>(d->chain()));
    d->set_prefetcher(std::make_unique<LocalityPrefetcher>());
    MiniWorkload wl(128);
    Gpu gpu(q, sys, *d, wl, 7);
    gpu.launch();
    q.run();
    if (i == 0)
      first = gpu.finish_cycle();
    else
      EXPECT_EQ(gpu.finish_cycle(), first);
  }
}

}  // namespace
}  // namespace uvmsim
