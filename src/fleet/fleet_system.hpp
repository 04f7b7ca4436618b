// FleetSystem: fleet-scale serving of an open-loop job stream over a
// multi-device fabric of independent memory systems (docs/fleet.md).
//
// A ShardedEngine (sim/sharded_engine.hpp) drives everything. Each device
// is a DeviceStack owning an arena TenantTable (dynamic attach/detach with
// namespace and slot recycling) and a UvmDriver over the fixed arena span
// with capacity = oversub * arena (so resident jobs genuinely oversubscribe
// device memory). Jobs arrive open-loop (ArrivalStream), pass
// admission control (AdmissionController), are placed by the FleetScheduler,
// run as a SM-sliced Gpu over an OffsetWorkload at their attached namespace
// base, and on completion detach — returning their namespace region, tenant
// slot and frames for reuse — before the admission queue is re-drained.
//
// Under the default --engine seq the engine holds ONE shard and every
// component shares its queue — byte-identical to the historical build.
// Under --engine sharded, shard 0 is the CONTROL plane (arrivals, admission,
// placement, job bookkeeping, per-device shadow tables) and shard 1+d is
// device d (its stack and running Gpus); admission and completion
// cross shards as messages delayed by the fault-service round trip (the
// lookahead), and the control shard's shadow table attaches earlier /
// detaches later than the device table, so the region it prescribes is
// always free on arrival (the subset invariant, docs/performance.md).
//
// SLA accounting: per-job slowdown against a solo-calibrated baseline (one
// UvmSystem run per job template, cached in the constructor), nearest-rank
// p50/p95/p99, goodput, queue wait, rejection rate and windowed Jain
// fairness, all assembled into RunResult::fleet.
//
// Lifecycle trace events (kJobArrived/Admitted/Rejected/Completed) go to a
// fleet-level recorder with no device stamp; per-device fault traffic goes
// to that device's recorder (device-stamped when devices > 1). Runs are
// deterministic for a fixed seed: arrivals, template draws and job seeds
// all derive from PolicyConfig::seed — under the sharded engine, also
// independent of the worker-thread count.
#pragma once

#include <array>
#include <limits>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "core/run_result.hpp"
#include "core/system_base.hpp"
#include "fleet/admission.hpp"
#include "fleet/arrival.hpp"
#include "fleet/fleet_config.hpp"
#include "fleet/job.hpp"
#include "fleet/scheduler.hpp"
#include "gpu/gpu.hpp"
#include "obs/flight_recorder.hpp"
#include "tenancy/offset_workload.hpp"
#include "tenancy/tenant.hpp"
#include "uvm/driver.hpp"

namespace uvmsim {

class FleetSystem : public SystemBase {
 public:
  /// Throws std::invalid_argument when `fleet` has no devices or jobs, an
  /// arena that is not a positive multiple of the namespace alignment, an
  /// arrival rate <= 0, or an arrival trace that cannot be read or holds no
  /// gap.
  FleetSystem(const SystemConfig& sys, const PolicyConfig& pol,
              const FleetConfig& fleet, const EngineConfig& engine = {});
  ~FleetSystem();

  /// Drive the whole job stream to completion (or `max_cycles`) and return
  /// the aggregate result: fleet SLA slice in `result.fleet`, per-device
  /// driver slices in `result.devices`. add_sink reaches the fleet-level
  /// recorder and every device recorder: one JSONL stream carries job
  /// lifecycle and fault traffic interleaved. queue() is the control shard's.
  [[nodiscard]] RunResult run(
      Cycle max_cycles = std::numeric_limits<Cycle>::max());

  [[nodiscard]] const std::vector<Job>& jobs() const noexcept { return jobs_; }
  [[nodiscard]] u32 devices() const noexcept {
    return static_cast<u32>(devices_.size());
  }
  /// Solo-calibrated cycles of job template `tpl` (the slowdown denominator).
  [[nodiscard]] Cycle solo_cycles(u32 tpl) const { return solo_cycles_[tpl]; }

 private:
  /// The load counters admission and placement consult for one device,
  /// whose memory system is device stack d (with its arena table). Under
  /// --engine sharded, the stack belongs to the device shard and these
  /// counters are written only by the control shard.
  struct Device {
    u64 promised_frames = 0;  ///< Σ min(footprint, capacity) of resident jobs
    u64 active_jobs = 0;
    /// Resident jobs per PatternType (indexed by enum value, 1..6).
    std::array<u64, 8> pattern_active{};
  };

  /// A running job's simulation objects, destroyed at teardown. Owned by
  /// the job's device shard when the engine is sharded.
  struct Running {
    std::unique_ptr<OffsetWorkload> workload;
    std::unique_ptr<Gpu> gpu;
    TenantId tenant = kNoTenant;  ///< slot in the DEVICE table
    u32 device = ~u32{0};
  };

  void schedule_next_arrival();
  void on_arrival(u64 id);
  /// Admit `id` somewhere if a device passes admission; false = no device.
  bool try_admit(u64 id);
  /// Admission bookkeeping; sharded, the device shard starts the job one
  /// admission round trip later at the base the shadow table chose.
  void admit(u64 id, u32 device);
  void reject(u64 id, JobRejectReason reason);
  /// Build and launch the job's Gpu as tenant `t` of its device.
  void start_job(u64 id, u32 device, TenantId t);
  /// Device-side teardown, scheduled onto the device queue by the Gpu's
  /// on_finished hook (destroying the Gpu inside its own last warp event
  /// would free the running callback's owner).
  void retire_job(u64 id);
  /// Control-side bookkeeping and queue re-drain once the job has finished.
  void finish_job(u64 id, Cycle finish);
  void drain_queue();
  /// The table admission consults: the device table itself (sequential) or
  /// the control shard's shadow of it (sharded).
  [[nodiscard]] TenantTable& view(u32 device) noexcept {
    return sharded() ? *shadow_tables_[device] : *stack(device).tenants();
  }
  [[nodiscard]] DeviceLoad load_of(u32 device, const Job& j) const;
  [[nodiscard]] u64 job_seed(u64 id) const;
  [[nodiscard]] u64 promise_of(const Job& j) const;

  SystemConfig sys_cfg_;
  SystemConfig job_cfg_;  ///< sys_cfg_ with the per-job SM slice
  PolicyConfig pol_cfg_;
  FleetConfig fleet_;
  u64 capacity_frames_ = 0;  ///< per device
  u64 job_slots_ = 0;        ///< concurrent SM-slice slots per device

  std::unique_ptr<FlightRecorder> job_recorder_;
  std::vector<std::unique_ptr<Workload>> mix_;
  std::vector<Cycle> solo_cycles_;  ///< per template
  std::unique_ptr<ArrivalStream> arrivals_;
  AdmissionController admission_;
  FleetScheduler scheduler_;
  std::vector<Device> devices_;
  /// Sharded only: the control shard's per-device shadow arena tables.
  std::vector<std::unique_ptr<TenantTable>> shadow_tables_;

  std::vector<Job> jobs_;
  std::vector<Running> running_;  ///< indexed by job id
  std::vector<u64> queue_;        ///< FIFO of queued job ids (drain bypasses)
  std::vector<u64> completion_order_;  ///< job ids, in completion order
  u64 submitted_ = 0;
  u64 completed_ = 0;
  u64 rejected_ = 0;
  u64 peak_queue_depth_ = 0;
};

}  // namespace uvmsim
