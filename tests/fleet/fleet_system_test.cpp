// FleetSystem end-to-end: job lifecycle invariants, rejection paths, SLA
// accounting, and the acceptance-scale serving scenario.
#include "fleet/fleet_system.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "common/config.hpp"

namespace uvmsim {
namespace {

SystemConfig small_system() {
  SystemConfig sys;
  sys.num_sms = 8;
  sys.warps_per_sm = 4;
  return sys;
}

FleetConfig small_fleet() {
  FleetConfig fl;
  fl.enabled = true;
  fl.devices = 2;
  fl.jobs = 40;
  fl.arrival_rate = 30.0;
  fl.job_sms = 4;
  fl.oversub = 0.5;
  return fl;
}

TEST(FleetSystem, EveryJobReachesATerminalState) {
  const SystemConfig sys = small_system();
  PolicyConfig pol;
  FleetSystem system(sys, pol, small_fleet());
  const RunResult r = system.run();

  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.fleet.enabled);
  EXPECT_EQ(r.fleet.jobs_submitted, 40u);
  EXPECT_EQ(r.fleet.jobs_completed + r.fleet.jobs_rejected, 40u);
  EXPECT_EQ(r.fleet.rejected_queue_full + r.fleet.rejected_never_fits +
                r.fleet.rejected_policy,
            r.fleet.jobs_rejected);
  ASSERT_EQ(system.jobs().size(), 40u);
  for (const Job& j : system.jobs()) {
    ASSERT_TRUE(j.state == JobState::kCompleted ||
                j.state == JobState::kRejected);
    if (j.state == JobState::kCompleted) {
      EXPECT_GE(j.admit, j.arrival);
      EXPECT_GT(j.finish, j.admit);
      EXPECT_LT(j.device, 2u);
    }
  }
}

TEST(FleetSystem, DevicesEndEmptyAndResultsCarrySlices) {
  const SystemConfig sys = small_system();
  PolicyConfig pol;
  FleetSystem system(sys, pol, small_fleet());
  const RunResult r = system.run();

  ASSERT_EQ(r.devices.size(), 2u);
  u64 pages_in = 0;
  for (const DeviceRunResult& d : r.devices) {
    EXPECT_TRUE(d.completed);
    pages_in += d.driver.pages_migrated_in;
  }
  EXPECT_GT(pages_in, 0u);
  EXPECT_EQ(r.workload, "fleet");
  EXPECT_EQ(r.fleet.devices, 2u);
  EXPECT_EQ(r.fleet.admission, "always");
  EXPECT_EQ(r.fleet.scheduler, "first-fit");
}

TEST(FleetSystem, SlaMetricsAreCoherent) {
  const SystemConfig sys = small_system();
  PolicyConfig pol;
  FleetSystem system(sys, pol, small_fleet());
  const RunResult r = system.run();

  ASSERT_GT(r.fleet.jobs_completed, 0u);
  EXPECT_GT(r.fleet.goodput, 0.0);
  EXPECT_GE(r.fleet.mean_queue_wait, 0.0);
  EXPECT_GE(r.fleet.p95_queue_wait, 0.0);
  // Nearest-rank percentiles are monotone in p.
  EXPECT_GE(r.fleet.slowdown_p95, r.fleet.slowdown_p50);
  EXPECT_GE(r.fleet.slowdown_p99, r.fleet.slowdown_p95);
  EXPECT_GT(r.fleet.slowdown_p50, 0.0);
  EXPECT_GT(r.fleet.fairness_min, 0.0);
  EXPECT_LE(r.fleet.fairness_min, 1.0 + 1e-9);
  EXPECT_GE(r.fleet.fairness_mean, r.fleet.fairness_min);
  EXPECT_LE(r.fleet.fairness_mean, 1.0 + 1e-9);
}

TEST(FleetSystem, SoloCalibrationCoversEveryTemplate) {
  const SystemConfig sys = small_system();
  PolicyConfig pol;
  FleetConfig fl = small_fleet();
  fl.jobs = 1;
  FleetSystem system(sys, pol, fl);
  for (u32 t = 0; t < 12; ++t)
    EXPECT_GE(system.solo_cycles(t), 1u) << "template " << t;
}

TEST(FleetSystem, OversizedJobsRejectedAsNeverFits) {
  const SystemConfig sys = small_system();
  PolicyConfig pol;
  FleetConfig fl = small_fleet();
  fl.jobs = 100;
  // One 512-page namespace region: any template whose aligned footprint
  // exceeds it (the 640-page streaming jobs) can never attach.
  fl.arena_pages = 512;
  FleetSystem system(sys, pol, fl);
  const RunResult r = system.run();

  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.fleet.rejected_never_fits, 0u);
  EXPECT_GT(r.fleet.jobs_completed, 0u);
  for (const Job& j : system.jobs()) {
    if (j.state == JobState::kRejected &&
        j.reject_reason == JobRejectReason::kNeverFits) {
      EXPECT_GT(j.footprint_pages, 512u);
    }
  }
}

TEST(FleetSystem, QuotaRejectsLargeJobsAsPolicy) {
  const SystemConfig sys = small_system();
  PolicyConfig pol;
  FleetConfig fl = small_fleet();
  fl.jobs = 100;
  fl.admission = AdmissionKind::kQuota;
  fl.quota_frac = 0.05;  // cap ~= 204 pages: most templates are over it
  FleetSystem system(sys, pol, fl);
  const RunResult r = system.run();

  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.fleet.rejected_policy, 0u);
  EXPECT_GT(r.fleet.jobs_completed, 0u);
  EXPECT_EQ(r.fleet.admission, "quota");
}

TEST(FleetSystem, BoundedQueueOverflowsToQueueFull) {
  const SystemConfig sys = small_system();
  PolicyConfig pol;
  FleetConfig fl = small_fleet();
  fl.devices = 1;
  fl.jobs = 30;
  fl.job_sms = 8;       // one SM slot: jobs serialise
  fl.queue_cap = 2;
  fl.arrival_rate = 2000.0;  // gap ~500 cycles: arrivals swamp the queue
  FleetSystem system(sys, pol, fl);
  const RunResult r = system.run();

  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.fleet.rejected_queue_full, 0u);
  EXPECT_LE(r.fleet.peak_queue_depth, 2u);
  EXPECT_GT(r.fleet.jobs_completed, 0u);
}

TEST(FleetSystem, TenantSlotsRecycleAcrossManyJobs) {
  // Far more jobs than concurrent slots: attach/detach must recycle
  // namespaces and tenant ids, or the arena runs out.
  const SystemConfig sys = small_system();
  PolicyConfig pol;
  FleetConfig fl = small_fleet();
  fl.devices = 1;
  fl.jobs = 60;
  fl.arrival_rate = 50.0;
  FleetSystem system(sys, pol, fl);
  const RunResult r = system.run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.fleet.jobs_completed + r.fleet.jobs_rejected, 60u);
  EXPECT_GT(r.fleet.jobs_completed, 30u);
}

// Acceptance scenario (ISSUE): >= 1000 jobs over 4 devices, reporting
// goodput, rejection rate, queue wait and percentile slowdowns.
TEST(FleetSystem, AcceptanceThousandJobsFourDevices) {
  SystemConfig sys;
  sys.num_sms = 16;
  sys.warps_per_sm = 4;
  PolicyConfig pol;
  FleetConfig fl;
  fl.enabled = true;
  fl.devices = 4;
  fl.jobs = 1000;
  fl.arrival_rate = 40.0;
  fl.job_sms = 4;
  fl.oversub = 0.5;
  FleetSystem system(sys, pol, fl);
  const RunResult r = system.run();

  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.fleet.jobs_submitted, 1000u);
  EXPECT_EQ(r.fleet.jobs_completed + r.fleet.jobs_rejected, 1000u);
  EXPECT_EQ(r.devices.size(), 4u);
  EXPECT_GT(r.fleet.goodput, 0.0);
  EXPECT_GE(r.fleet.rejection_rate, 0.0);
  EXPECT_GE(r.fleet.mean_queue_wait, 0.0);
  EXPECT_GE(r.fleet.slowdown_p99, r.fleet.slowdown_p50);
  EXPECT_GT(r.fleet.slowdown_p50, 0.5);
}

// Bad fleet shapes must fail loudly in every build type, not only where
// asserts run: run() reads device 0, and arena regions are carved in
// namespace-aligned units.
TEST(FleetSystem, RejectsZeroDevices) {
  FleetConfig fl = small_fleet();
  fl.devices = 0;
  EXPECT_THROW(FleetSystem(small_system(), PolicyConfig{}, fl), std::invalid_argument);
}

TEST(FleetSystem, RejectsMisalignedArena) {
  FleetConfig fl = small_fleet();
  fl.arena_pages = TenantTable::kNamespaceAlignPages + kChunkPages;
  EXPECT_THROW(FleetSystem(small_system(), PolicyConfig{}, fl), std::invalid_argument);
  fl.arena_pages = 0;
  EXPECT_THROW(FleetSystem(small_system(), PolicyConfig{}, fl), std::invalid_argument);
}

// Poisson arrivals need a positive rate; a trace-driven fleet needs a trace
// it can read and that holds at least one gap. Neither falls back silently.
TEST(FleetSystem, RejectsNonPositiveArrivalRate) {
  FleetConfig fl = small_fleet();
  for (const double rate : {0.0, -1.0}) {
    fl.arrival_rate = rate;
    EXPECT_THROW(FleetSystem(small_system(), PolicyConfig{}, fl), std::invalid_argument);
  }
}

TEST(FleetSystem, RejectsUnusableArrivalTrace) {
  const std::string no_gaps = ::testing::TempDir() + "uvmsim_no_gaps.txt";
  {
    std::ofstream out(no_gaps);
    out << "# comments only\n\n";
  }
  FleetConfig fl = small_fleet();
  for (const std::string& path : {std::string("/nonexistent-dir-uvmsim/arrivals.txt"),
                                  no_gaps}) {
    fl.arrival_trace = path;
    EXPECT_THROW(FleetSystem(small_system(), PolicyConfig{}, fl), std::invalid_argument)
        << path;
  }
  std::remove(no_gaps.c_str());
}

}  // namespace
}  // namespace uvmsim
