// PolicyRegistry: named factories behind make_eviction_policy /
// make_prefetcher. Every built-in name resolves, a config selects only by
// its name fields, unknown and empty names fail loudly, duplicate
// registration is rejected, and out-of-tree registrations resolve through
// a config like any built-in.
#include "core/policy_registry.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/policy_factory.hpp"
#include "core/uvm_system.hpp"
#include "policy/adaptive.hpp"
#include "policy/lru.hpp"
#include "prefetch/adaptive.hpp"
#include "prefetch/pattern_aware.hpp"
#include "workloads/patterns.hpp"

namespace uvmsim {
namespace {

TEST(PolicyRegistry, EveryBuiltInEvictionNameResolves) {
  auto& reg = PolicyRegistry::instance();
  ChunkChain chain;
  PolicyConfig cfg;
  for (const char* name :
       {"lru", "fifo", "random", "reserved", "hpe", "mhpe", "adaptive"}) {
    ASSERT_TRUE(reg.has_eviction(name)) << name;
    auto pol = reg.make_eviction(name, cfg, chain);
    ASSERT_NE(pol, nullptr) << name;
    EXPECT_FALSE(pol->name().empty()) << name;
  }
}

TEST(PolicyRegistry, EveryBuiltInPrefetchNameResolves) {
  auto& reg = PolicyRegistry::instance();
  PolicyConfig cfg;
  for (const char* name : {"none", "locality", "tree", "pattern", "adaptive"}) {
    ASSERT_TRUE(reg.has_prefetch(name)) << name;
    auto pf = reg.make_prefetch(name, cfg);
    ASSERT_NE(pf, nullptr) << name;
  }
}

TEST(PolicyRegistry, BuiltInsListInRegistrationOrder) {
  // Built-ins are seeded before anything else can register, so they lead
  // the listing in seeding order — the order --list-policies prints.
  const auto ev = PolicyRegistry::instance().eviction_names();
  ASSERT_GE(ev.size(), 7u);
  EXPECT_EQ(ev[0], "lru");
  EXPECT_EQ(ev[5], "mhpe");
  EXPECT_EQ(ev[6], "adaptive");
  const auto pf = PolicyRegistry::instance().prefetch_names();
  ASSERT_GE(pf.size(), 5u);
  EXPECT_EQ(pf[0], "none");
  EXPECT_EQ(pf[3], "pattern");
  EXPECT_EQ(pf[4], "adaptive");
}

TEST(PolicyRegistry, ConfigSelectsByItsNameFields) {
  PolicyConfig cfg;
  EXPECT_EQ(eviction_key(cfg), "mhpe");
  EXPECT_EQ(prefetch_key(cfg), "pattern");
  cfg.eviction_name = "lru";
  cfg.prefetch_name = "none";
  EXPECT_EQ(eviction_key(cfg), "lru");
  EXPECT_EQ(prefetch_key(cfg), "none");
}

TEST(PolicyRegistry, UnknownNameThrowsListingRegisteredNames) {
  ChunkChain chain;
  PolicyConfig cfg;
  auto& reg = PolicyRegistry::instance();
  try {
    (void)reg.make_eviction("nosuch", cfg, chain);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("nosuch"), std::string::npos) << msg;
    EXPECT_NE(msg.find("mhpe"), std::string::npos) << msg;
  }
  try {
    (void)reg.make_prefetch("nosuch", cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("pattern"), std::string::npos) << msg;
  }
}

// A config whose name is empty or unregistered fails at construction; no
// name falls back to a default policy.
TEST(PolicyRegistry, EmptyOrUnknownConfigNameThrows) {
  ChunkChain chain;
  for (const char* name : {"", "nosuch"}) {
    PolicyConfig cfg;
    cfg.eviction_name = name;
    EXPECT_THROW((void)make_eviction_policy(cfg, chain), std::invalid_argument)
        << "'" << name << "'";
    PolicyConfig pcfg;
    pcfg.prefetch_name = name;
    EXPECT_THROW((void)make_prefetcher(pcfg), std::invalid_argument)
        << "'" << name << "'";
  }
}

TEST(PolicyRegistry, DuplicateOrEmptyRegistrationThrows) {
  auto& reg = PolicyRegistry::instance();
  EXPECT_THROW(reg.register_eviction(
                   "lru",
                   [](const PolicyConfig&, ChunkChain& chain) {
                     return std::make_unique<LruPolicy>(chain);
                   }),
               std::logic_error);
  EXPECT_THROW(reg.register_eviction(
                   "",
                   [](const PolicyConfig&, ChunkChain& chain) {
                     return std::make_unique<LruPolicy>(chain);
                   }),
               std::logic_error);
  EXPECT_THROW(reg.register_prefetch(
                   "pattern",
                   [](const PolicyConfig& cfg) {
                     return std::make_unique<PatternAwarePrefetcher>(cfg);
                   }),
               std::logic_error);
}

TEST(PolicyRegistry, OutOfTreeRegistrationResolvesThroughConfig) {
  auto& reg = PolicyRegistry::instance();
  ASSERT_FALSE(reg.has_eviction("testonly-lru-twin"));
  reg.register_eviction("testonly-lru-twin",
                        [](const PolicyConfig&, ChunkChain& chain) {
                          return std::make_unique<LruPolicy>(chain);
                        });
  EXPECT_TRUE(reg.has_eviction("testonly-lru-twin"));
  const auto names = reg.eviction_names();
  EXPECT_EQ(names.back(), "testonly-lru-twin");  // appended, built-ins first

  ChunkChain chain;
  PolicyConfig cfg;
  cfg.eviction_name = "testonly-lru-twin";
  auto pol = make_eviction_policy(cfg, chain);
  EXPECT_NE(dynamic_cast<LruPolicy*>(pol.get()), nullptr);
}

TEST(PolicyRegistry, AdaptiveNamesBuildTheAdaptivePair) {
  ChunkChain chain;
  PolicyConfig cfg;
  cfg.eviction_name = "adaptive";
  cfg.prefetch_name = "adaptive";
  auto pol = make_eviction_policy(cfg, chain);
  auto pf = make_prefetcher(cfg);
  EXPECT_NE(dynamic_cast<AdaptiveEvictionPolicy*>(pol.get()), nullptr);
  EXPECT_NE(dynamic_cast<AdaptivePrefetcher*>(pf.get()), nullptr);
}

// End-to-end smoke: an oversubscribed run under the adaptive pair completes
// and surfaces its introspection in RunResult.
TEST(PolicyRegistry, AdaptiveSystemRunCompletes) {
  PolicyConfig cfg;
  cfg.eviction_name = "adaptive";
  cfg.prefetch_name = "adaptive";
  ThrashingWorkload wl("thrash", "TH", 1024, 3.0);
  UvmSystem sys(SystemConfig{}, cfg, wl, 0.5);
  const RunResult r = sys.run();
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.adaptive_used);
  EXPECT_EQ(r.eviction_name, "adaptive");
  EXPECT_EQ(r.prefetcher_name, "adaptive");
  EXPECT_GT(r.driver.page_faults, 0u);
}

}  // namespace
}  // namespace uvmsim
