// UvmSystem: the one-call public API. Bundles an event queue, the UVM
// driver (with the configured eviction policy + prefetcher), and the GPU
// model running one workload at one oversubscription rate; `run()` simulates
// to completion and returns every metric the evaluation needs.
//
// Typical use (see examples/quickstart.cpp):
//
//   auto wl = make_benchmark("NW");
//   UvmSystem sys(SystemConfig{}, presets::cppe(), *wl, /*oversub=*/0.5);
//   RunResult r = sys.run();
//   std::cout << r.cycles << " cycles, " << r.driver.page_faults << " faults\n";
#pragma once

#include <limits>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "core/run_result.hpp"
#include "core/system_base.hpp"
#include "gpu/gpu.hpp"
#include "obs/flight_recorder.hpp"
#include "uvm/driver.hpp"
#include "workloads/workload.hpp"

namespace uvmsim {

/// One workload on one GPU: a single device stack on a single shard.
class UvmSystem : public SystemBase {
 public:
  /// `oversub` is the fraction of the workload footprint that fits in GPU
  /// memory (the paper's "75% / 50% oversubscribed" settings are 0.75/0.5;
  /// >= 1.0 disables oversubscription).
  UvmSystem(const SystemConfig& sys, const PolicyConfig& pol,
            const Workload& workload, double oversub);

  /// Simulate until all warps finish (or `max_cycles`, as a safety net).
  [[nodiscard]] RunResult run(
      Cycle max_cycles = std::numeric_limits<Cycle>::max());

  [[nodiscard]] UvmDriver& driver() noexcept { return stack(0).driver(); }
  [[nodiscard]] Gpu& gpu() noexcept { return *gpus_[0]; }
  /// The run's flight recorder. Attach sinks (JsonlSink, RingSink,
  /// IntervalMetricsSink) before run(); sinks outlive the system.
  [[nodiscard]] FlightRecorder& recorder() noexcept { return stack(0).recorder(); }

 private:
  const Workload& workload_;
  double oversub_;
  std::vector<std::unique_ptr<Gpu>> gpus_;  ///< exactly one
};

}  // namespace uvmsim
