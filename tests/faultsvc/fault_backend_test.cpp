#include "faultsvc/fault_backend.hpp"

#include <gtest/gtest.h>

#include "core/policy_factory.hpp"
#include "core/uvm_system.hpp"
#include "faultsvc/gpu_backend.hpp"
#include "faultsvc/host_backend.hpp"
#include "harness/runner.hpp"
#include "workloads/benchmarks.hpp"

namespace uvmsim {
namespace {

SystemConfig gpu_cfg(u32 sms = 4, u32 depth = 32) {
  SystemConfig sys;
  sys.fault_backend = FaultBackendKind::kGpuDriven;
  sys.num_sms = sms;
  sys.gpu_fault_queue_depth = depth;
  return sys;
}

GpuDrivenBackend make_gpu(const FaultTable& t, u32 sms = 4, u32 depth = 32,
                          u32 window = 16) {
  PolicyConfig pol = presets::cppe();
  pol.fault_batch = window;  // the handler window; 1 (the default) drains
                             // one fault per pickup like the classic driver
  return GpuDrivenBackend(gpu_cfg(sms, depth), pol, t);
}

/// What UvmDriver::fault does for a page with no outstanding fault: create
/// its table entry, then queue it with the backend.
void raise(FaultTable& t, FaultServiceBackend& b, PageId p, u32 sm,
           Cycle now = 0) {
  t.raise(p, WakeCallback{}, now);
  b.raise(p, sm);
}

// --- Factory ----------------------------------------------------------------

TEST(FaultBackendFactory, SelectsBackendFromSystemConfig) {
  SystemConfig sys;
  const PolicyConfig pol = presets::cppe();
  const FaultTable t;
  auto host = make_fault_backend(sys, pol, t);
  EXPECT_EQ(host->kind(), FaultBackendKind::kHostDriver);
  EXPECT_STREQ(host->name(), "host");

  sys.fault_backend = FaultBackendKind::kGpuDriven;
  auto gpu = make_fault_backend(sys, pol, t);
  EXPECT_EQ(gpu->kind(), FaultBackendKind::kGpuDriven);
  EXPECT_STREQ(gpu->name(), "gpu-driven");
}

TEST(FaultBackendFactory, ParseRoundTrips) {
  EXPECT_EQ(parse_fault_backend_kind("host"), FaultBackendKind::kHostDriver);
  EXPECT_EQ(parse_fault_backend_kind("host-driver"),
            FaultBackendKind::kHostDriver);
  EXPECT_EQ(parse_fault_backend_kind("gpu-driven"),
            FaultBackendKind::kGpuDriven);
  EXPECT_EQ(parse_fault_backend_kind("gpuvm"), FaultBackendKind::kGpuDriven);
  EXPECT_FALSE(parse_fault_backend_kind("bogus").has_value());
}

// --- The fault table ----------------------------------------------------------

// One entry per page from raise to wake: a second fault attaches to the
// entry, `start` keeps its waiters for the migration, `take` hands them
// over. A page planned purely as a prefetch gets an entry without waiters.
TEST(FaultTable, OneEntryFromRaiseToTake) {
  FaultTable t;
  EXPECT_EQ(t.find(5), nullptr);
  t.raise(5, [] {}, 3);
  ASSERT_NE(t.find(5), nullptr);
  t.find(5)->waiters.push_back([] {});  // a coalesced fault
  EXPECT_TRUE(t.pending(5));
  EXPECT_FALSE(t.in_flight(5));

  t.start(5);
  t.start(6);
  EXPECT_FALSE(t.pending(5));
  EXPECT_TRUE(t.in_flight(5));
  EXPECT_TRUE(t.in_flight(6));

  PendingFault f;
  ASSERT_TRUE(t.take(5, f));
  EXPECT_EQ(f.waiters.size(), 2u);
  EXPECT_EQ(f.raised_at, 3u);
  EXPECT_TRUE(f.faulted);
  ASSERT_TRUE(t.take(6, f));
  EXPECT_TRUE(f.waiters.empty());
  EXPECT_FALSE(f.faulted);
  EXPECT_EQ(t.find(5), nullptr);
  EXPECT_FALSE(t.take(6, f));
}

// --- Both backends: the shared drain ------------------------------------------

// Batches are tenant-homogeneous under both queue disciplines. The host FIFO
// ends a batch at the first fault from another tenant, which then leads the
// next batch; the GPU handler skips that SM queue for the rest of the
// pickup and keeps draining the lead tenant's faults from the others.
TEST(FaultBackendDrain, BatchesAreTenantHomogeneous) {
  TenantTable tenants;
  const PageId a = tenants.info(tenants.add("A", 64)).base;
  const PageId b = tenants.info(tenants.add("B", 64)).base;
  PolicyConfig pol = presets::cppe();
  pol.fault_batch = 8;
  using Batches = std::vector<std::vector<PageId>>;
  for (const FaultBackendKind kind :
       {FaultBackendKind::kHostDriver, FaultBackendKind::kGpuDriven}) {
    SCOPED_TRACE(to_string(kind));
    SystemConfig sys = gpu_cfg(/*sms=*/2);
    sys.fault_backend = kind;
    FaultTable t;
    auto be = make_fault_backend(sys, pol, t);
    raise(t, *be, a, 0);
    raise(t, *be, b, 1);
    raise(t, *be, a + 1, 0);
    raise(t, *be, b + 1, 1);
    Batches batches;
    for (auto batch = be->take_batch(&tenants); !batch.empty();
         batch = be->take_batch(&tenants))
      batches.push_back(batch);
    if (kind == FaultBackendKind::kHostDriver)
      EXPECT_EQ(batches, (Batches{{a}, {b}, {a + 1}, {b + 1}}));
    else
      EXPECT_EQ(batches, (Batches{{a, a + 1}, {b, b + 1}}));
  }
}

// --- Host backend: the byte-identity contract -------------------------------

// The host backend charges exactly the pre-seam formula and emits no events
// and no stats, so every golden artefact stays byte-identical.
TEST(HostDriverBackend, ChargesFixedLatencyAndStaysSilent) {
  SystemConfig sys;
  const FaultTable t;
  HostDriverBackend b(sys, presets::cppe(), t);
  const Cycle done = b.reserve_service(/*now=*/1000, /*lead=*/7, /*faults=*/3,
                                       /*demand_evictions=*/2);
  EXPECT_EQ(done, 1000 + sys.fault_latency_cycles() +
                      2 * sys.evict_service_cycles());
  // A second batch at the same cycle overlaps fully — no occupancy state.
  EXPECT_EQ(b.reserve_service(1000, 9, 8, 0),
            1000 + sys.fault_latency_cycles());
  const FaultBackendStats& s = b.backend_stats();
  EXPECT_EQ(s.faults_enqueued, 0u);
  EXPECT_EQ(s.queue_full_stalls, 0u);
  EXPECT_EQ(s.handler_pickups, 0u);
  EXPECT_EQ(s.handler_busy_cycles, 0u);
  EXPECT_EQ(s.max_queue_depth, 0u);
}

// An explicit --fault-backend host run is indistinguishable from a default
// run: same cycles, same counters, zero backend stats.
TEST(HostDriverBackend, ExplicitHostMatchesDefaultRun) {
  const auto wl = make_benchmark("NW");
  SystemConfig def;
  SystemConfig host;
  host.fault_backend = FaultBackendKind::kHostDriver;

  UvmSystem a(def, presets::cppe(), *wl, 0.5);
  UvmSystem b(host, presets::cppe(), *wl, 0.5);
  const RunResult ra = a.run();
  const RunResult rb = b.run();
  EXPECT_EQ(ra.cycles, rb.cycles);
  EXPECT_EQ(ra.driver.page_faults, rb.driver.page_faults);
  EXPECT_EQ(ra.driver.fault_wait_cycles, rb.driver.fault_wait_cycles);
  EXPECT_EQ(ra.h2d_pages, rb.h2d_pages);
  EXPECT_EQ(rb.fault_backend, "host");
  EXPECT_FALSE(rb.gpu_fault_backend);
  EXPECT_EQ(rb.faultsvc.handler_pickups, 0u);
}

// The host FIFO skips entries absorbed into another plan, and a requeued
// lead drains ahead of newer faults.
TEST(HostDriverBackend, SkipsAbsorbedEntriesAndHonoursRequeue) {
  PolicyConfig pol = presets::cppe();
  pol.fault_batch = 2;
  FaultTable t;
  HostDriverBackend b(SystemConfig{}, pol, t);
  raise(t, b, 10, 0);
  raise(t, b, 11, 0);
  raise(t, b, 12, 0);
  t.start(11);  // swept into another fault's plan
  EXPECT_FALSE(t.pending(11));
  EXPECT_EQ(b.queued(), 3u);  // absorbed entries still count until drained
  // Window 2, one entry absorbed: the batch skips it and drains 10 and 12.
  EXPECT_EQ(b.take_batch(nullptr), (std::vector<PageId>{10, 12}));
  // 12 was trimmed back out of the admitted plan: it drains ahead of newer
  // faults at the next wakeup.
  b.requeue_front(12);
  raise(t, b, 13, 0, 1);
  EXPECT_EQ(b.take_batch(nullptr), (std::vector<PageId>{12, 13}));
  EXPECT_TRUE(b.take_batch(nullptr).empty());
}

// --- GPU-driven backend: queues, overflow, drain order ----------------------

TEST(GpuDrivenBackend, RoundRobinDrainInterleavesSmQueues) {
  FaultTable t;
  GpuDrivenBackend b = make_gpu(t, /*sms=*/2, /*depth=*/8);
  // SM 0 raises pages 10, 11; SM 1 raises 20, 21.
  raise(t, b, 10, 0);
  raise(t, b, 11, 0);
  raise(t, b, 20, 1);
  raise(t, b, 21, 1);
  EXPECT_EQ(b.queued(), 4u);
  // One fault per queue visit, starting at the cursor (queue 0).
  const std::vector<PageId> batch = b.take_batch(nullptr);
  EXPECT_EQ(batch, (std::vector<PageId>{10, 20, 11, 21}));
  EXPECT_EQ(b.queued(), 0u);
}

TEST(GpuDrivenBackend, WindowBoundsTheBatch) {
  SystemConfig sys = gpu_cfg(/*sms=*/1, /*depth=*/16);
  PolicyConfig pol = presets::cppe();
  pol.fault_batch = 2;
  FaultTable t;
  GpuDrivenBackend b(sys, pol, t);
  for (PageId p = 0; p < 5; ++p) raise(t, b, p, 0);
  EXPECT_EQ(b.take_batch(nullptr), (std::vector<PageId>{0, 1}));
  EXPECT_EQ(b.take_batch(nullptr), (std::vector<PageId>{2, 3}));
  EXPECT_EQ(b.take_batch(nullptr), (std::vector<PageId>{4}));
}

TEST(GpuDrivenBackend, RequeuedLeadDrainsFirst) {
  FaultTable t;
  GpuDrivenBackend b = make_gpu(t, /*sms=*/1, /*depth=*/8);
  raise(t, b, 1, 0);
  raise(t, b, 2, 0);
  auto first = b.take_batch(nullptr);
  ASSERT_EQ(first.size(), 2u);
  // Page 2 was trimmed out of the plan: it must lead the next batch even
  // though newer faults have arrived since.
  b.requeue_front(2);
  raise(t, b, 3, 0);
  const auto next = b.take_batch(nullptr);
  ASSERT_FALSE(next.empty());
  EXPECT_EQ(next.front(), 2u);
}

TEST(GpuDrivenBackend, FullQueueOverflowsAndRefills) {
  FaultTable t;
  GpuDrivenBackend b = make_gpu(t, /*sms=*/1, /*depth=*/2);
  raise(t, b, 1, 0);
  raise(t, b, 2, 0);
  raise(t, b, 3, 0);  // queue full -> overflow
  raise(t, b, 4, 0);
  const FaultBackendStats& s = b.backend_stats();
  EXPECT_EQ(s.queue_full_stalls, 2u);
  EXPECT_EQ(s.faults_enqueued, 2u);
  EXPECT_EQ(s.max_queue_depth, 2u);
  // All four faults are still pending and queued (the spill list counts).
  EXPECT_EQ(b.queued(), 4u);
  EXPECT_TRUE(t.pending(3));
  // The first pickup drains the queue; the freed slots absorb the spill
  // list in FIFO order, so the overflowed faults are serviced on the next
  // pickup and nothing is lost.
  EXPECT_EQ(b.take_batch(nullptr), (std::vector<PageId>{1, 2}));
  EXPECT_EQ(b.queued(), 2u);
  EXPECT_EQ(b.take_batch(nullptr), (std::vector<PageId>{3, 4}));
  EXPECT_EQ(b.queued(), 0u);
}

TEST(GpuDrivenBackend, AbsorbedEntriesAreDiscardedOnDrain) {
  FaultTable t;
  GpuDrivenBackend b = make_gpu(t, /*sms=*/1, /*depth=*/8);
  raise(t, b, 1, 0);
  raise(t, b, 2, 0);
  raise(t, b, 3, 0);
  // Page 2 is absorbed into another plan before the handler picks it up.
  t.start(2);
  EXPECT_FALSE(t.pending(2));
  EXPECT_TRUE(t.find(2)->faulted);
  EXPECT_EQ(b.take_batch(nullptr), (std::vector<PageId>{1, 3}));
}

// A second fault on a queued page joins its table entry and never takes a
// second SM-queue slot.
TEST(GpuDrivenBackend, CoalesceAttachesToPendingFaultOnly) {
  FaultTable t;
  GpuDrivenBackend b = make_gpu(t);
  raise(t, b, 5, 2, 10);
  t.find(5)->waiters.push_back(WakeCallback{});
  EXPECT_EQ(b.queued(), 1u);
  EXPECT_EQ(b.backend_stats().faults_enqueued, 1u);
  EXPECT_EQ(b.take_batch(nullptr), (std::vector<PageId>{5}));
  PendingFault pf;
  ASSERT_TRUE(t.take(5, pf));
  EXPECT_EQ(pf.raised_at, 10u);
  EXPECT_EQ(pf.waiters.size(), 2u);
}

// --- GPU-driven backend: handler occupancy ----------------------------------

TEST(GpuDrivenBackend, HandlerOccupancySerializesBursts) {
  SystemConfig sys = gpu_cfg();
  const FaultTable t;
  GpuDrivenBackend b(sys, presets::cppe(), t);
  const Cycle doorbell = sys.gpu_doorbell_cycles();
  const Cycle per_fault = sys.gpu_fault_service_cycles();

  const Cycle first = b.reserve_service(100, 1, 2, 0);
  EXPECT_EQ(first, 100 + doorbell + 2 * per_fault);
  // A second pickup at the same instant queues behind the busy handler.
  const Cycle second = b.reserve_service(100, 2, 1, 0);
  EXPECT_EQ(second, first + doorbell + per_fault);
  EXPECT_EQ(b.handler_free_at(), second);
  // Once the handler is idle again, service starts at `now`.
  const Cycle third = b.reserve_service(second + 500, 3, 1, 1);
  EXPECT_EQ(third, second + 500 + doorbell + per_fault +
                       sys.evict_service_cycles());

  const FaultBackendStats& s = b.backend_stats();
  EXPECT_EQ(s.handler_pickups, 3u);
  EXPECT_EQ(s.handler_busy_cycles,
            (third - (second + 500)) + (second - first) + (first - 100));
}

TEST(GpuDrivenBackend, PerFaultCostIsWellBelowHostRoundTrip) {
  const SystemConfig sys;
  // GPUVM's core premise, pinned so a config change cannot silently invert
  // the ablation's meaning.
  EXPECT_LT(sys.gpu_fault_service_cycles() * 4, sys.fault_latency_cycles());
  EXPECT_LT(sys.gpu_doorbell_cycles(), sys.gpu_fault_service_cycles());
}

// --- Full-system determinism ------------------------------------------------

// A threaded sweep under the GPU-driven backend is deterministic and
// thread-count independent, like every other configuration.
TEST(GpuDrivenBackend, ThreadedSweepIsDeterministic) {
  std::vector<ExperimentSpec> specs;
  for (const char* w : {"BFS", "NW"})
    for (const u32 depth : {32u, 1u}) {
      ExperimentSpec s;
      s.workload = w;
      s.label = std::string(w) + "@" + std::to_string(depth);
      s.policy = presets::cppe();
      s.oversub = 0.5;
      s.system = gpu_cfg(/*sms=*/4, depth);
      specs.push_back(std::move(s));
    }
  const auto serial = run_sweep(specs, 1);
  const auto parallel = run_sweep(specs, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i].result.completed) << i;
    EXPECT_EQ(serial[i].result.cycles, parallel[i].result.cycles) << i;
    EXPECT_EQ(serial[i].result.driver.page_faults,
              parallel[i].result.driver.page_faults)
        << i;
    EXPECT_EQ(serial[i].result.faultsvc.handler_pickups,
              parallel[i].result.faultsvc.handler_pickups)
        << i;
    EXPECT_EQ(serial[i].result.faultsvc.queue_full_stalls,
              parallel[i].result.faultsvc.queue_full_stalls)
        << i;
    EXPECT_EQ(serial[i].result.fault_backend, "gpu-driven") << i;
    EXPECT_TRUE(serial[i].result.gpu_fault_backend) << i;
  }
}

}  // namespace
}  // namespace uvmsim
