// Layer probes for the ledger's traced run: they time calls into each
// layer's public functions from outside the simulator, so the simulator's
// own code stays untouched and untraced runs pay nothing.
//
//   policy     TimedEvictionPolicy — a registry decorator around every
//              EvictionPolicy virtual ("probe:<name>" for each registered
//              eviction policy)
//   prefetch   TimedPrefetcher — the same around every Prefetcher virtual
//   workloads  TimedWorkload — wraps every AccessStream::next of a Workload
//   shootdown  CountingSink::bracket_shootdowns — the shootdown_issued event
//              opens the span, a UvmDriver shootdown handler registered after
//              the Gpus' own handlers closes it
//   obs        CountingSink — a TraceSink that counts and classifies events
//
// Each probe opens a Span. Spans nest per thread: a span opened inside
// another (a trace event emitted from inside a policy call) charges its
// duration to the parent's child time, so self time = time - child time and
// the layers' self times never overlap.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "obs/trace_sink.hpp"
#include "policy/eviction_policy.hpp"
#include "prefetch/prefetcher.hpp"
#include "uvm/driver.hpp"
#include "workloads/workload.hpp"

namespace uvmsim::ledger {

enum class Layer : u8 { kPolicy, kPrefetch, kWorkloads, kShootdown, kObs };
inline constexpr std::size_t kNumLayers = 5;

/// Span names, as they appear in the trace file.
[[nodiscard]] const char* layer_name(Layer l) noexcept;

struct LayerTotals {
  std::array<u64, kNumLayers> ns{};        ///< inclusive time
  std::array<u64, kNumLayers> child_ns{};  ///< time of spans nested inside
  std::array<u64, kNumLayers> calls{};

  [[nodiscard]] u64 self_ns(Layer l) const noexcept {
    const auto i = static_cast<std::size_t>(l);
    return ns[i] - child_ns[i];
  }
  [[nodiscard]] u64 count(Layer l) const noexcept {
    return calls[static_cast<std::size_t>(l)];
  }
  LayerTotals& operator+=(const LayerTotals& o) noexcept;
};

/// Clear / sum every thread's totals. Call only while no simulation thread
/// runs (a sharded system's workers are joined when it is destroyed).
void reset_layer_totals();
[[nodiscard]] LayerTotals collect_layer_totals();

/// Times one call into `layer` on the calling thread.
class Span {
 public:
  explicit Span(Layer layer) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Layer layer_;
  Span* parent_;
  u64 child_ns_ = 0;
  u64 start_ns_;
};

/// Register "probe:<name>" decorators for every eviction policy and
/// prefetcher registered so far. Call once.
void register_probes();

/// `pol` with its eviction policy and prefetcher resolved through the
/// decorators: every system that builds policies through the registry
/// (single-GPU, multi-tenant, fabric, fleet) then runs them probed.
[[nodiscard]] PolicyConfig probed(PolicyConfig pol);

class TimedWorkload final : public Workload {
 public:
  explicit TimedWorkload(std::unique_ptr<Workload> inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::string abbr() const override { return inner_->abbr(); }
  [[nodiscard]] u64 footprint_pages() const override {
    return inner_->footprint_pages();
  }
  [[nodiscard]] PatternType pattern() const override { return inner_->pattern(); }
  [[nodiscard]] std::unique_ptr<AccessStream> make_stream(
      const WarpContext& ctx) const override;

 private:
  std::unique_ptr<Workload> inner_;
};

/// Counts every event by type, plus the untouched/evicted page totals of
/// eviction_chosen and large_frame_evicted events.
class CountingSink final : public TraceSink {
 public:
  void emit(const TraceEvent& e) override;

  /// Time the shootdown fan-out of every Gpu already built on `driver`,
  /// whose recorder this sink must be attached to. The driver records
  /// shootdown_issued just before it calls its handlers in registration
  /// order, so that event opens a Layer::kShootdown span and a handler
  /// registered now, after the Gpus' own, closes it and counts the page.
  void bracket_shootdowns(UvmDriver& driver);

  [[nodiscard]] u64 count(EventType t) const noexcept {
    return by_type_[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] u64 total() const noexcept;
  [[nodiscard]] u64 untouched_pages() const noexcept { return untouched_; }
  [[nodiscard]] u64 evicted_pages() const noexcept { return evicted_; }
  [[nodiscard]] u64 shootdown_pages() const noexcept { return shootdown_pages_; }

 private:
  std::array<u64, kNumEventTypes> by_type_{};
  u64 untouched_ = 0;
  u64 evicted_ = 0;
  bool bracketed_ = false;
  u64 shootdown_pages_ = 0;
};

}  // namespace uvmsim::ledger
