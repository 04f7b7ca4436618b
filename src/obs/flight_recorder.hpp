// FlightRecorder: the one emit point every subsystem shares.
//
// The recorder stamps events with the owning EventQueue's simulation time
// and fans out to the attached sinks; every sink sees every event (a sink
// filters for itself, as JsonlSink does for --trace-events). It is
// zero-overhead-when-off in two tiers:
//   * components hold a `FlightRecorder*` that is nullptr until observability
//     is requested — the hot path then pays one pointer test (see emit());
//   * a recorder with no sinks short-circuits before building the event.
// Sinks are borrowed, never owned: the CLI/harness owns file streams and
// their lifetimes. The one exception is the device's phase classifier,
// which the recorder builds for the adaptive policies that read it.
#pragma once

#include <optional>
#include <vector>

#include "obs/phase_classifier.hpp"
#include "obs/trace_sink.hpp"
#include "sim/event_queue.hpp"
#include "tenancy/tenant.hpp"

namespace uvmsim {

class FlightRecorder {
 public:
  /// Every event is stamped with `device`: the multi-GPU fabric gives each
  /// device its own recorder over shared sinks. With `tenants` set, events
  /// whose payload carries a page or chunk are stamped with the owning
  /// tenant; global events (no page/chunk key) only via the explicit
  /// `tenant` argument. Single-GPU, single-tenant recorders keep both
  /// sentinels, so the JSONL carries neither field.
  explicit FlightRecorder(const EventQueue& eq, u32 device = kNoTraceDevice,
                          const TenantTable* tenants = nullptr)
      : eq_(&eq), tenants_(tenants), device_(device) {}

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void add_sink(TraceSink* sink) {
    if (sink != nullptr) sinks_.push_back(sink);
  }
  [[nodiscard]] bool active() const noexcept { return !sinks_.empty(); }

  /// The device's one phase classifier (docs/policies.md), built and added
  /// to the sinks on the first call. The adaptive policy and prefetcher ask
  /// for it when their driver hands them this recorder, before any event,
  /// so every reader of one device sees the same phases.
  [[nodiscard]] const PhaseClassifier& phases() {
    if (!phases_) add_sink(&phases_.emplace());
    return *phases_;
  }

  void record(EventType t, u64 a = 0, u64 b = 0, u64 c = 0,
              TenantId tenant = kNoTenant) {
    if (!active()) return;
    TraceEvent e{eq_->now(), t, a, b, c, tenant, device_};
    if (tenants_ != nullptr && e.tenant == kNoTenant) {
      switch (tenant_key_kind(t)) {
        case TenantKeyKind::kPage: e.tenant = tenants_->tenant_of_page(a); break;
        case TenantKeyKind::kChunk: e.tenant = tenants_->tenant_of_chunk(a); break;
        case TenantKeyKind::kNone: break;
      }
    }
    for (TraceSink* s : sinks_) s->emit(e);
    ++recorded_;
  }

  [[nodiscard]] u64 events_recorded() const noexcept { return recorded_; }

 private:
  const EventQueue* eq_;
  std::vector<TraceSink*> sinks_;
  const TenantTable* tenants_;
  u32 device_;
  u64 recorded_ = 0;
  std::optional<PhaseClassifier> phases_;
};

/// Null-tolerant emit: instrumented components keep a possibly-null recorder
/// pointer and pay one branch when tracing is off.
inline void record_event(FlightRecorder* rec, EventType t, u64 a = 0, u64 b = 0,
                         u64 c = 0) {
  if (rec != nullptr) rec->record(t, a, b, c);
}

/// Explicit-tenant emit for global events (interval boundaries,
/// pre-eviction) whose payload carries no page/chunk to derive it from.
inline void record_event_for(FlightRecorder* rec, TenantId tenant, EventType t,
                             u64 a = 0, u64 b = 0, u64 c = 0) {
  if (rec != nullptr) rec->record(t, a, b, c, tenant);
}

}  // namespace uvmsim
