// FleetSystem: fleet-scale serving of an open-loop job stream over a
// multi-device fabric of independent memory systems (docs/fleet.md).
//
// A ShardedEngine (sim/sharded_engine.hpp) drives everything. Each device
// is a DeviceStack owning an arena TenantTable (dynamic attach/detach with
// namespace and slot recycling) and a UvmDriver over the fixed arena span
// with capacity = oversub * arena (so resident jobs genuinely oversubscribe
// device memory). Jobs arrive open-loop (ArrivalStream), pass
// admission control (AdmissionController), are placed by the FleetScheduler,
// run as a SM-sliced Gpu reading at their attached namespace base
// (GpuSlice), and on completion detach — returning their namespace region,
// tenant slot and frames for reuse — before the admission queue is
// re-drained.
//
// The CONTROL plane (arrivals, admission, placement, job bookkeeping) keeps
// its own arena table per device; admission attaches there, and the device
// attaches at the base that table chose. Admission and completion cross
// between them through send(). Under the default --engine seq the engine
// holds ONE shard, send() runs at once and both tables see the same
// attaches and detaches in the same order. Under --engine sharded, shard 0
// is the control plane and shard 1+d is device d (its stack and running
// Gpus); send() posts a message delayed by the fault-service round trip
// (the lookahead), and the control table attaches earlier / detaches later
// than the device table, so the region it prescribes is always free on
// arrival (the subset invariant, docs/performance.md).
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
#include <functional>
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
  /// whose memory system is device stack d (with its arena table). Only
  /// the control plane writes them.
  struct Device {
    u64 promised_frames = 0;  ///< Σ min(footprint, capacity) of resident jobs
    u64 active_jobs = 0;
    /// Resident jobs per PatternType (indexed by enum value, 1..6).
    std::array<u64, 8> pattern_active{};
  };

  /// A running job's simulation objects, destroyed at teardown. Owned by
  /// the job's device shard when the engine is sharded.
  struct Running {
    std::unique_ptr<Gpu> gpu;
    TenantId tenant = kNoTenant;  ///< slot in the DEVICE table
    u32 device = ~u32{0};
  };

  void schedule_next_arrival();
  void on_arrival(u64 id);
  /// Admit `id` somewhere if a device passes admission; false = no device.
  bool try_admit(u64 id);
  /// Admission bookkeeping on the control table; the device starts the job
  /// at the base that table chose (one admission round trip later when
  /// sharded).
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
  /// Device `device`'s shard: 1 + device under the sharded engine (shard 0
  /// is the control plane), else the one shard every component shares.
  [[nodiscard]] u32 shard_of(u32 device) const noexcept {
    return sharded() ? 1 + device : 0;
  }
  /// Run `fn` on shard `dst`: a message from shard `src` delivered at `at`
  /// under the sharded engine, at once on one shard.
  void send(u32 src, u32 dst, Cycle at, std::function<void()> fn);
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
  /// The control plane's arena table per device, which admission consults.
  std::vector<TenantTable> control_tables_;

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
