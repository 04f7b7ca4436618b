#include "core/policy_factory.hpp"

#include <gtest/gtest.h>

#include "core/policy_registry.hpp"
#include "policy/mhpe.hpp"
#include "prefetch/pattern_aware.hpp"

namespace uvmsim {
namespace {

TEST(PolicyFactory, BuildsEveryEvictionKind) {
  ChunkChain chain;
  for (const std::string& name : PolicyRegistry::instance().eviction_names()) {
    PolicyConfig cfg;
    cfg.eviction_name = name;
    auto pol = make_eviction_policy(cfg, chain);
    ASSERT_NE(pol, nullptr) << name;
    EXPECT_FALSE(pol->name().empty());
  }
}

TEST(PolicyFactory, BuildsEveryPrefetchKind) {
  for (const std::string& name : PolicyRegistry::instance().prefetch_names()) {
    PolicyConfig cfg;
    cfg.prefetch_name = name;
    auto pf = make_prefetcher(cfg);
    ASSERT_NE(pf, nullptr) << name;
  }
}

TEST(Presets, BaselineIsLruPlusLocality) {
  const PolicyConfig c = presets::baseline();
  EXPECT_EQ(c.eviction_name, "lru");
  EXPECT_EQ(c.prefetch_name, "locality");
  EXPECT_TRUE(c.prefetch_when_full);
}

TEST(Presets, CppeIsMhpePlusPatternAwareScheme2) {
  const PolicyConfig c = presets::cppe();
  EXPECT_EQ(c.eviction_name, "mhpe");
  EXPECT_EQ(c.prefetch_name, "pattern");
  EXPECT_EQ(c.deletion, DeletionScheme::kScheme2);
  // Paper thresholds (§VI-A).
  EXPECT_EQ(c.t1_untouch, 32u);
  EXPECT_EQ(c.t2_untouch_first4, 40u);
  EXPECT_EQ(c.t3_forward_limit, 32u);
  EXPECT_EQ(c.interval_faults, 64u);
}

TEST(Presets, Scheme1VariantDiffersOnlyInDeletion) {
  const PolicyConfig a = presets::cppe(), b = presets::cppe_scheme1();
  EXPECT_EQ(b.deletion, DeletionScheme::kScheme1);
  EXPECT_EQ(a.eviction_name, b.eviction_name);
  EXPECT_EQ(a.prefetch_name, b.prefetch_name);
}

TEST(Presets, ReservedLruCarriesFraction) {
  EXPECT_DOUBLE_EQ(presets::reserved_lru(0.1).reserved_fraction, 0.1);
  EXPECT_EQ(presets::reserved_lru(0.2).eviction_name, "reserved");
}

TEST(Presets, DisablePrefetchTogglesGate) {
  EXPECT_FALSE(presets::disable_prefetch_when_full().prefetch_when_full);
}

TEST(Presets, FactoryRoundTripsCppe) {
  ChunkChain chain;
  const PolicyConfig cfg = presets::cppe();
  auto pol = make_eviction_policy(cfg, chain);
  auto pf = make_prefetcher(cfg);
  EXPECT_NE(dynamic_cast<MhpePolicy*>(pol.get()), nullptr);
  EXPECT_NE(dynamic_cast<PatternAwarePrefetcher*>(pf.get()), nullptr);
}

}  // namespace
}  // namespace uvmsim
