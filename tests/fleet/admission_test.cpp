// AdmissionController policies and FleetScheduler placement strategies:
// pure decision logic over DeviceLoad snapshots.
#include "fleet/admission.hpp"

#include <gtest/gtest.h>

#include "fleet/scheduler.hpp"

namespace uvmsim {
namespace {

DeviceLoad load(u32 id, u64 capacity, u64 promised, u64 active, u64 slots,
                bool fits = true, u64 same_pattern = 0) {
  DeviceLoad d;
  d.id = id;
  d.capacity_frames = capacity;
  d.promised_frames = promised;
  d.active_jobs = active;
  d.job_slots = slots;
  d.namespace_fits = fits;
  d.same_pattern_jobs = same_pattern;
  return d;
}

TEST(Admission, StructuralRoomGatesEveryPolicy) {
  const AdmissionController always(AdmissionKind::kAlways, 0.9, 0.5);
  EXPECT_TRUE(always.admissible(load(0, 4096, 4096, 0, 7), 256));
  // No namespace region left.
  EXPECT_FALSE(always.admissible(load(0, 4096, 0, 0, 7, /*fits=*/false), 256));
  // All SM slots busy.
  EXPECT_FALSE(always.admissible(load(0, 4096, 0, 7, 7), 256));
}

TEST(Admission, AlwaysIgnoresMemoryPressure) {
  const AdmissionController c(AdmissionKind::kAlways, 0.9, 0.5);
  EXPECT_TRUE(c.admissible(load(0, 1024, 1024 * 10, 1, 7), 4096));
  EXPECT_FALSE(c.rejects_outright(1 << 20, 1024));
}

TEST(Admission, HeadroomBoundsPromisedFrames) {
  const AdmissionController c(AdmissionKind::kHeadroom, 0.9, 0.5);
  // 0.9 * 4096 = 3686.4; promised 3000 + promise 686 = 3686 fits,
  // + 687 does not.
  EXPECT_TRUE(c.admissible(load(0, 4096, 3000, 1, 7), 686));
  EXPECT_FALSE(c.admissible(load(0, 4096, 3000, 1, 7), 687));
}

TEST(Admission, HeadroomRejectsOutrightAboveFraction) {
  const AdmissionController c(AdmissionKind::kHeadroom, 0.9, 0.5);
  // Promise is clamped to capacity, so only > 0.9 * capacity rejects.
  EXPECT_FALSE(c.rejects_outright(3686, 4096));
  EXPECT_TRUE(c.rejects_outright(3687, 4096));
  // A footprint above capacity promises exactly capacity: still outright.
  EXPECT_TRUE(c.rejects_outright(1 << 20, 4096));
}

TEST(Admission, QuotaCapsSingleJobAndTotal) {
  const AdmissionController c(AdmissionKind::kQuota, 0.9, 0.5);
  // Per-job cap: 0.5 * 4096 = 2048.
  EXPECT_TRUE(c.admissible(load(0, 4096, 0, 0, 7), 2048));
  EXPECT_FALSE(c.admissible(load(0, 4096, 0, 0, 7), 2049));
  EXPECT_TRUE(c.rejects_outright(2049, 4096));
  EXPECT_FALSE(c.rejects_outright(2048, 4096));
  // Total promises never exceed capacity.
  EXPECT_TRUE(c.admissible(load(0, 4096, 2048, 1, 7), 2048));
  EXPECT_FALSE(c.admissible(load(0, 4096, 2049, 1, 7), 2048));
}

TEST(Scheduler, FirstFitTakesLowestId) {
  const FleetScheduler s(FleetSchedKind::kFirstFit);
  EXPECT_EQ(s.pick({load(1, 4096, 4000, 3, 7), load(3, 4096, 0, 0, 7)}), 1u);
}

TEST(Scheduler, LeastLoadedMinimisesPromisedFrames) {
  const FleetScheduler s(FleetSchedKind::kLeastLoaded);
  EXPECT_EQ(s.pick({load(0, 4096, 3000, 3, 7), load(1, 4096, 1000, 2, 7),
                    load(2, 4096, 2000, 1, 7)}),
            1u);
  // Tie breaks to the lowest id.
  EXPECT_EQ(s.pick({load(0, 4096, 1000, 3, 7), load(2, 4096, 1000, 1, 7)}),
            0u);
}

TEST(Scheduler, PatternAffinityPrefersCoLocation) {
  const FleetScheduler s(FleetSchedKind::kPatternAffinity);
  EXPECT_EQ(s.pick({load(0, 4096, 100, 1, 7, true, 0),
                    load(1, 4096, 3000, 3, 7, true, 2),
                    load(2, 4096, 200, 1, 7, true, 1)}),
            1u);
  // Affinity tie breaks to least loaded, then lowest id.
  EXPECT_EQ(s.pick({load(0, 4096, 300, 1, 7, true, 1),
                    load(1, 4096, 100, 1, 7, true, 1)}),
            1u);
  EXPECT_EQ(s.pick({load(0, 4096, 100, 1, 7, true, 1),
                    load(1, 4096, 100, 1, 7, true, 1)}),
            0u);
}

TEST(FleetConfigNames, RoundTrip) {
  EXPECT_EQ(kAdmissionNames.name(AdmissionKind::kAlways), "always");
  EXPECT_EQ(kAdmissionNames.name(AdmissionKind::kHeadroom), "headroom");
  EXPECT_EQ(kAdmissionNames.name(AdmissionKind::kQuota), "quota");
  EXPECT_EQ(kAdmissionNames.value("headroom"), AdmissionKind::kHeadroom);
  EXPECT_FALSE(kAdmissionNames.value("bogus").has_value());

  EXPECT_EQ(kFleetSchedNames.name(FleetSchedKind::kFirstFit), "first-fit");
  EXPECT_EQ(kFleetSchedNames.name(FleetSchedKind::kLeastLoaded), "least-loaded");
  EXPECT_EQ(kFleetSchedNames.name(FleetSchedKind::kPatternAffinity),
            "pattern-affinity");
  EXPECT_EQ(kFleetSchedNames.value("least-loaded"), FleetSchedKind::kLeastLoaded);
  EXPECT_EQ(kFleetSchedNames.value("pattern-affinity"),
            FleetSchedKind::kPatternAffinity);
  // Only the full name selects pattern-affinity.
  EXPECT_FALSE(kFleetSchedNames.value("affinity").has_value());
  EXPECT_FALSE(kFleetSchedNames.value("bogus").has_value());
}

}  // namespace
}  // namespace uvmsim
