// Parameterized property suite run against EVERY registered prefetcher:
// whatever the residency state, a plan must stay inside the footprint,
// never include resident pages, never contain duplicates, and (together
// with the driver's guarantee) cover the faulted page when it is plannable.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "common/rng.hpp"
#include "core/policy_factory.hpp"
#include "prefetch/prefetcher.hpp"

namespace uvmsim {
namespace {

class RandomView final : public ResidencyView {
 public:
  RandomView(PageId footprint, double resident_fraction, u64 seed)
      : footprint_(footprint) {
    Xoshiro256 rng(seed);
    for (PageId p = 0; p < footprint; ++p)
      if (rng.chance(resident_fraction)) resident_.insert(p);
  }
  void make_faultable(PageId p) { resident_.erase(p); }
  [[nodiscard]] bool is_resident(PageId p) const override { return resident_.contains(p); }
  [[nodiscard]] PageId footprint_pages() const override { return footprint_; }

 private:
  std::set<PageId> resident_;
  PageId footprint_;
};

// The built-in prefetchers by registered name. A test case is an index into
// this table.
constexpr const char* kBuiltins[] = {"none", "locality", "tree", "pattern"};
struct BuiltinIndex {
  u8 i;
};

class EveryPrefetcher : public ::testing::TestWithParam<BuiltinIndex> {
 protected:
  static std::string name() { return kBuiltins[GetParam().i]; }

  std::unique_ptr<Prefetcher> make() {
    PolicyConfig cfg;
    cfg.prefetch_name = name();
    auto pf = make_prefetcher(cfg);
    // Seed the pattern buffer so the pattern-aware prefetcher's hit path is
    // exercised too, with a stride-2 pattern on every chunk.
    TouchBits stride2;
    for (u32 i = 0; i < kChunkPages; i += 2) stride2.set(i);
    for (ChunkId c = 0; c < 64; ++c) pf->on_chunk_evicted(c, stride2);
    return pf;
  }
};

INSTANTIATE_TEST_SUITE_P(AllKinds, EveryPrefetcher,
                         ::testing::Values(BuiltinIndex{0}, BuiltinIndex{1},
                                           BuiltinIndex{2}, BuiltinIndex{3}),
                         [](const auto& pinfo) {
                           return std::string(kBuiltins[pinfo.param.i]);
                         });

TEST_P(EveryPrefetcher, PlansAreWellFormedAcrossResidencyStates) {
  auto pf = make();
  for (double frac : {0.0, 0.3, 0.9}) {
    RandomView view(1000, frac, 42);
    Xoshiro256 rng(7);
    for (int trial = 0; trial < 50; ++trial) {
      const PageId faulted = rng.below(1000);
      view.make_faultable(faulted);
      const auto plan = pf->plan(faulted, view);
      std::set<PageId> seen;
      for (PageId p : plan) {
        ASSERT_LT(p, 1000u) << "out of footprint";
        ASSERT_FALSE(view.is_resident(p)) << "planned a resident page";
        ASSERT_TRUE(seen.insert(p).second) << "duplicate page in plan";
      }
      ASSERT_FALSE(plan.empty());
    }
  }
}

TEST_P(EveryPrefetcher, FaultedPageIsPlannedWhenNonResident) {
  auto pf = make();
  RandomView view(1000, 0.5, 9);
  Xoshiro256 rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    const PageId faulted = rng.below(1000);
    view.make_faultable(faulted);
    const auto plan = pf->plan(faulted, view);
    // The pattern-aware prefetcher may legitimately omit a mismatching
    // faulted page only when its pattern says so — but our seeded patterns
    // cover even indices, and the driver re-adds the faulted page anyway.
    if (name() != "pattern" ||
        page_index_in_chunk(faulted) % 2 == 0) {
      EXPECT_NE(std::find(plan.begin(), plan.end(), faulted), plan.end());
    }
  }
}

TEST_P(EveryPrefetcher, TinyFootprintNeverOverflows) {
  auto pf = make();
  RandomView view(5, 0.0, 1);  // footprint smaller than one chunk
  const auto plan = pf->plan(2, view);
  for (PageId p : plan) EXPECT_LT(p, 5u);
  EXPECT_LE(plan.size(), 5u);
}

}  // namespace
}  // namespace uvmsim
