// Fleet-serving configuration: open-loop job arrivals with admission
// control, placement scheduling and SLA accounting (docs/fleet.md).
//
// A fleet run replaces the fixed-N tenant set of a UvmSystem tenant run with
// thousands of short-lived jobs arriving open-loop (arrival times are
// independent of completions), each attached into a per-device arena
// TenantTable for its lifetime and detached when its warps finish. All
// fleet behaviour is gated on `enabled`, so fixed-N artefacts stay
// byte-identical.
#pragma once

#include <string>

#include "common/names.hpp"
#include "common/types.hpp"

namespace uvmsim {

/// Admission policy deciding whether an arriving (or queued) job may be
/// placed on a device now, queued, or rejected.
enum class AdmissionKind : u8 {
  kAlways = 0,  ///< admit whenever a device has structural room
  kHeadroom,    ///< also require promised memory below a capacity fraction
  kQuota,       ///< per-job memory cap + promised never above capacity
};
inline constexpr auto kAdmissionNames = name_table<AdmissionKind>({
    {"always", AdmissionKind::kAlways},
    {"headroom", AdmissionKind::kHeadroom},
    {"quota", AdmissionKind::kQuota},
});

/// Placement policy choosing among the admissible devices.
enum class FleetSchedKind : u8 {
  kFirstFit = 0,     ///< lowest admissible device id
  kLeastLoaded,      ///< minimum promised frames (tie: lowest id)
  kPatternAffinity,  ///< most co-located same-pattern jobs (tie: least loaded)
};
inline constexpr auto kFleetSchedNames = name_table<FleetSchedKind>({
    {"first-fit", FleetSchedKind::kFirstFit},
    {"least-loaded", FleetSchedKind::kLeastLoaded},
    {"pattern-affinity", FleetSchedKind::kPatternAffinity},
});

struct FleetConfig {
  /// Master switch: false keeps every fixed-N code path untouched.
  bool enabled = false;
  u32 devices = 4;             ///< GPUs the fleet schedules across
  u64 jobs = 1000;             ///< total jobs the arrival stream submits
  /// Offered load, in jobs per million cycles. The Poisson interarrival
  /// mean gap is 1e6 / arrival_rate cycles.
  double arrival_rate = 20.0;
  AdmissionKind admission = AdmissionKind::kAlways;
  FleetSchedKind scheduler = FleetSchedKind::kFirstFit;
  /// Per-device page-address arena (TenantTable::enable_arena); namespaces
  /// are carved from and recycled into this fixed span. 8192 pages = 32 MB.
  u64 arena_pages = 8192;
  /// Device frame capacity as a fraction of the arena — below 1.0 the
  /// resident jobs genuinely oversubscribe device memory.
  double oversub = 0.75;
  u32 job_sms = 4;             ///< SM slice each job's Gpu runs on
  u64 queue_cap = 256;         ///< bounded admission queue (FIFO with bypass)
  /// kHeadroom: admit while promised + incoming <= headroom * capacity.
  double headroom = 0.9;
  /// kQuota: reject jobs promising more than this fraction of one device.
  double quota_frac = 0.5;
  /// Optional interarrival trace: one gap (cycles, decimal) per line,
  /// '#' comments ignored, cycled when jobs outnumber lines. Empty =
  /// seeded Poisson arrivals.
  std::string arrival_trace;
};

}  // namespace uvmsim
