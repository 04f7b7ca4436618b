// DeviceStack and the shared result path: the statistic sums the collector
// relies on, the capacity rule, per-domain policy wiring, and the trace
// fan-out every system offers.
#include "core/device_stack.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <sstream>

#include "core/policy_factory.hpp"
#include "core/uvm_system.hpp"
#include "obs/trace_sink.hpp"
#include "workloads/benchmarks.hpp"

namespace uvmsim {
namespace {

// A new counter must join operator+=: these sizes fail to compile until the
// count below (and the sum) are updated with it.
constexpr std::size_t kDriverCounters = 21;
constexpr std::size_t kGpuCounters = 15;
static_assert(sizeof(DriverStats) == kDriverCounters * sizeof(u64),
              "DriverStats changed: update operator+= and this count");
static_assert(sizeof(Gpu::Stats) == kGpuCounters * sizeof(u64),
              "Gpu::Stats changed: update operator+= and this count");

/// Checks every field of a += b, viewing both as arrays of u64 counters.
template <class Stats, std::size_t N>
void expect_fieldwise_sum() {
  using Fields = std::array<u64, N>;
  Fields a{};
  Fields b{};
  for (std::size_t i = 0; i < N; ++i) {
    a[i] = i + 1;
    b[i] = 1000 * (i + 1);
  }
  auto sum = std::bit_cast<Stats>(a);
  sum += std::bit_cast<Stats>(b);
  const Fields got = std::bit_cast<Fields>(sum);
  for (std::size_t i = 0; i < N; ++i)
    EXPECT_EQ(got[i], 1001 * (i + 1)) << "field " << i;
}

TEST(StatSums, DriverStatsAddsEveryField) {
  expect_fieldwise_sum<DriverStats, kDriverCounters>();
}

TEST(StatSums, GpuStatsAddsEveryField) {
  expect_fieldwise_sum<Gpu::Stats, kGpuCounters>();
}

TEST(StatSums, BackendMergeSumsCountersAndMaxesDepth) {
  FaultBackendStats a{1, 2, 3, 4, 9};
  a.merge(FaultBackendStats{10, 20, 30, 40, 5});
  EXPECT_EQ(a.faults_enqueued, 11u);
  EXPECT_EQ(a.queue_full_stalls, 22u);
  EXPECT_EQ(a.handler_pickups, 33u);
  EXPECT_EQ(a.handler_busy_cycles, 44u);
  EXPECT_EQ(a.max_queue_depth, 9u);
  a.merge(FaultBackendStats{0, 0, 0, 0, 12});
  EXPECT_EQ(a.max_queue_depth, 12u);
}

TEST(DeviceCapacity, SharesCapsAndFloors) {
  const u64 floor = 16 * kChunkPages;
  // A plain share of the footprint.
  EXPECT_EQ(device_capacity(2048, 0.5), 1024u);
  EXPECT_EQ(device_capacity(2048, 0.75), 1536u);
  // Rounded up, never past the footprint.
  EXPECT_EQ(device_capacity(1001, 0.5), 501u);
  EXPECT_EQ(device_capacity(2048, 1.5), 2048u);
  // Split across devices.
  EXPECT_EQ(device_capacity(4096, 0.5, 4), 512u);
  // Floored at 16 chunks per tenant, even above a tiny footprint.
  EXPECT_EQ(device_capacity(100, 0.5), floor);
  EXPECT_EQ(device_capacity(2048, 0.1, 1, 3), 3 * floor);
}

TEST(DeviceStack, OnePolicyPerChainDomain) {
  for (const TenantMode mode :
       {TenantMode::kShared, TenantMode::kPartitioned, TenantMode::kQuota}) {
    EventQueue eq;
    StackTenancy tenancy;
    tenancy.table.add("A", 1024);
    tenancy.table.add("B", 1024);
    tenancy.mode = mode;
    const u64 span = tenancy.table.span_pages();
    DeviceStack s(eq, SystemConfig{}, presets::cppe(), span, 1024, kNoTraceDevice,
                  std::move(tenancy));
    ChainSet& chains = s.driver().chains();
    EXPECT_EQ(chains.domains(), mode == TenantMode::kShared ? 1u : 2u)
        << kTenantModeNames.name(mode);
    for (u64 d = 0; d < chains.domains(); ++d)
      EXPECT_NE(chains.policy(d), nullptr) << kTenantModeNames.name(mode) << " domain " << d;
    EXPECT_NE(s.tenants(), nullptr);
    EXPECT_EQ(s.driver().capacity_pages(), 1024u);
  }
}

TEST(DeviceStack, SingleTenantStackHasNoTable) {
  EventQueue eq;
  DeviceStack s(eq, SystemConfig{}, presets::baseline(), 2048, 512);
  EXPECT_EQ(s.tenants(), nullptr);
  EXPECT_EQ(s.driver().chains().domains(), 1u);
  EXPECT_EQ(s.driver().policy().name(), "LRU");
  EXPECT_EQ(&s.queue(), &eq);
}

// Every system offers add_sink; on one shard it is the recorder's own.
TEST(SystemBase, AddSinkMatchesTheRecorderSink) {
  const auto wl = make_benchmark("NW");
  std::ostringstream direct_os;
  std::ostringstream fanout_os;
  JsonlSink direct(direct_os);
  JsonlSink fanout(fanout_os);

  UvmSystem a(SystemConfig{}, presets::cppe(), *wl, 0.5);
  a.recorder().add_sink(&direct);
  const RunResult ra = a.run();

  UvmSystem b(SystemConfig{}, presets::cppe(), *wl, 0.5);
  b.add_sink(&fanout);
  const RunResult rb = b.run();

  EXPECT_FALSE(direct_os.str().empty());
  EXPECT_EQ(direct_os.str(), fanout_os.str());
  EXPECT_EQ(ra.trace_events_recorded, rb.trace_events_recorded);
  EXPECT_EQ(ra.cycles, rb.cycles);
  EXPECT_FALSE(b.sharded());
}

}  // namespace
}  // namespace uvmsim
