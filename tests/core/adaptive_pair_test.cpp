// The adaptive pair (policy/adaptive.hpp, prefetch/adaptive.hpp) run through
// UvmSystem: both sides follow the same phase history, read from the one
// classifier their device's flight recorder keeps.
#include <gtest/gtest.h>

#include <vector>

#include "core/uvm_system.hpp"
#include "policy/adaptive.hpp"
#include "prefetch/adaptive.hpp"
#include "workloads/benchmarks.hpp"

namespace uvmsim {
namespace {

PolicyConfig adaptive_pair() {
  PolicyConfig cfg;
  cfg.eviction_name = "adaptive";
  cfg.prefetch_name = "adaptive";
  return cfg;
}

// MLT streams and then thrashes: from the initial Type III both sides switch
// to Type I and then to Type IV, as `uvmsim` reports for this run.
TEST(AdaptivePair, BothSidesFollowOnePhaseHistory) {
  const auto wl = make_benchmark("MLT");
  UvmSystem sys(SystemConfig{}, adaptive_pair(), *wl, 0.5);
  const RunResult r = sys.run();
  EXPECT_EQ(r.adaptive_eviction_switches, 2u);
  EXPECT_EQ(r.adaptive_prefetch_switches, 2u);
  ASSERT_EQ(r.adaptive_phase_history.size(), 2u);
  EXPECT_EQ(r.adaptive_phase_history[0].second, PatternType::kStreaming);
  EXPECT_EQ(r.adaptive_phase_history[1].second, PatternType::kThrashing);

  const auto& policy = dynamic_cast<const AdaptiveEvictionPolicy&>(sys.driver().policy());
  const auto& prefetcher =
      dynamic_cast<const AdaptivePrefetcher&>(sys.driver().prefetcher());
  const auto& evict_side = policy.classifier().history();
  const auto& prefetch_side = prefetcher.classifier().history();
  ASSERT_EQ(evict_side.size(), prefetch_side.size());
  for (std::size_t i = 0; i < evict_side.size(); ++i) {
    EXPECT_EQ(evict_side[i].at, prefetch_side[i].at);
    EXPECT_EQ(evict_side[i].at_fault, prefetch_side[i].at_fault);
    EXPECT_EQ(evict_side[i].phase, prefetch_side[i].phase);
  }
}

// A quota run keeps one eviction policy per tenant's chain domain. Each of
// them and the prefetcher read the device's one classifier.
TEST(AdaptivePair, EveryDomainPolicyAndThePrefetcherShareOneClassifier) {
  const auto nw = make_benchmark("NW");
  const auto bfs = make_benchmark("BFS");
  UvmSystem sys(SystemConfig{}, adaptive_pair(), {nw.get(), bfs.get()}, 0.5,
                TenantMode::kQuota);
  UvmDriver& driver = sys.driver();
  const auto& prefetcher = dynamic_cast<const AdaptivePrefetcher&>(driver.prefetcher());
  ASSERT_EQ(driver.chains().domains(), 2u);
  for (u64 d = 0; d < driver.chains().domains(); ++d) {
    const auto* policy =
        dynamic_cast<const AdaptiveEvictionPolicy*>(driver.chains().policy(d));
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(&policy->classifier(), &prefetcher.classifier()) << "domain " << d;
  }
}

}  // namespace
}  // namespace uvmsim
