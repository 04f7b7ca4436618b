// Flight-recorder event taxonomy: the typed, fixed-size records that trace
// the full far-fault lifecycle (docs/observability.md has the schema).
//
// Every event carries the simulation time of the EventQueue that produced
// it, so two identical runs emit byte-identical streams — the trace doubles
// as a determinism checker. Payload fields a/b/c are u64s whose meaning is
// per-type (see field_names / docs/observability.md); keeping the record
// POD keeps the ring sink a memcpy and the hot path branch-cheap.
#pragma once

#include <iterator>
#include <string_view>

#include "common/types.hpp"

namespace uvmsim {

/// Bump when an event's field meaning or the JSONL framing changes.
inline constexpr u32 kTraceSchemaVersion = 1;

enum class EventType : u8 {
  kFaultRaised = 0,        ///< a: page, b: chunk
  kFaultCoalesced,         ///< a: page, b: 0 = joined pending, 1 = joined inflight
  kMigrationPlanned,       ///< a: faulted page, b: plan pages, c: H2D busy cycles
  kEvictionChosen,         ///< a: chunk, b: untouch level, c: pages written back
  kWrongEvictionDetected,  ///< a: chunk, b: cumulative wrong evictions
  kPatternHit,             ///< a: chunk, b: planned pages, c: pattern popcount
  kPatternMiss,            ///< a: chunk, b: 1 = first lookup of this entry
  kPatternDeleted,         ///< a: chunk, b: reason (see PatternDeleteReason)
  kIntervalBoundary,       ///< a: interval just entered, b: total pages migrated
  kPreEvictionTriggered,   ///< a: free frames, b: watermark frames
  kShootdownIssued,        ///< a: page, b: physical frame
  // Batched fault service (emitted only when fault_batch > 1, so classic
  // window=1 traces stay byte-identical across schema revisions).
  kFaultBatchFormed,       ///< a: lead page, b: faults in batch, c: backlog left
  kBatchServiced,          ///< a: lead page, b: faults in batch, c: cycles/fault
  // Multi-GPU fabric (emitted only when --gpus > 1, so single-GPU traces
  // stay byte-identical across schema revisions).
  kPageSpilled,            ///< a: chunk, b: destination device, c: pages spilled
  kRemoteAccess,           ///< a: page, b: owning device, c: round-trip cycles
  kPeerMigration,          ///< a: page, b: source device, c: 1 = spill hop-back
  // Pattern-buffer lookup whose match planned zero pages (every patterned
  // page already resident). Distinct from kPatternHit so §VI-C match-rate
  // stats count only lookups that actually narrowed a migration; reachable
  // only through direct Prefetcher::plan calls on resident pages, so
  // integrated-run traces are unchanged.
  kPatternHitEmpty,        ///< a: chunk, b: pattern popcount
  // Large-pages mode (emitted only when --large-pages is on, so default
  // traces stay byte-identical across schema revisions; docs/memory.md).
  kCoalesce,               ///< a: first chunk, b: base frame, c: region
  kSplinter,               ///< a: first chunk, b: region, c: reason (SplinterReason)
  kLargeFrameEvicted,      ///< a: first chunk, b: aggregated untouch, c: pages
  // Fleet serving (emitted only in --fleet runs, so fixed-N traces stay
  // byte-identical across schema revisions; docs/fleet.md). The job events
  // come from the fleet-level recorder; `b` carries the placement device
  // because one stream covers the whole fabric.
  kJobArrived,             ///< a: job id, b: footprint pages, c: pattern type
  kJobAdmitted,            ///< a: job id, b: device, c: queue wait cycles
  kJobRejected,            ///< a: job id, b: reason (JobRejectReason), c: queue depth
  kJobCompleted,           ///< a: job id, b: device, c: service cycles
  // GPU-driven fault-service backend (emitted only when --fault-backend
  // gpu-driven, so host-backend traces stay byte-identical across schema
  // revisions; docs/faultsvc.md).
  kFaultEnqueued,          ///< a: page, b: SM queue, c: queue depth after enqueue
  kFaultQueueFull,         ///< a: page, b: SM queue, c: overflow backlog
  kGpuFaultServiced,       ///< a: lead page, b: faults in pickup, c: handler busy cycles
};

/// Reasons carried in kPatternDeleted's `b` field.
enum class PatternDeleteReason : u8 {
  kScheme1Mismatch = 1,     ///< Scheme-1: any mismatch
  kScheme2FirstMiss = 2,    ///< Scheme-2: mismatch on the entry's first lookup
  kCapacityReplaced = 3,    ///< bounded buffer replaced the FIFO-oldest entry
};

/// Reasons carried in kSplinter's `c` field.
enum class SplinterReason : u8 {
  kEvictionPressure = 1,    ///< part of the frame was chosen for eviction
  kSurrender = 2,           ///< a member page was surrendered to a peer
  kSpill = 3,               ///< a member chunk is spilling to a peer
};

/// Reasons carried in kJobRejected's `b` field (fleet admission).
enum class JobRejectReason : u8 {
  kQueueFull = 1,           ///< bounded admission queue at capacity
  kNeverFits = 2,           ///< footprint can never fit on any device
  kPolicy = 3,              ///< admission policy refused (quota cap)
};

struct TraceEvent {
  Cycle t = 0;
  EventType type = EventType::kFaultRaised;
  u64 a = 0;
  u64 b = 0;
  u64 c = 0;
  /// Owning tenant in multi-tenant runs; kNoTenant in single-tenant runs,
  /// where the JSONL field is omitted entirely (traces stay byte-identical,
  /// so the field is additive within schema v1).
  TenantId tenant = kNoTenant;
  /// Emitting device in multi-GPU runs; kNoTraceDevice in single-GPU runs,
  /// where the JSONL field is omitted entirely (additive within schema v1,
  /// same discipline as `tenant`).
  u32 dev = ~u32{0};

  friend constexpr bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Sentinel `dev` value meaning "not a multi-GPU run" — the JSONL field is
/// suppressed so single-GPU traces stay byte-identical.
inline constexpr u32 kNoTraceDevice = ~u32{0};

/// How a tenant id can be derived from an event's payload: from the page in
/// `a`, from the chunk in `a`, or not at all (global events — the recorder
/// stamps those only when the emitter passes the tenant explicitly).
enum class TenantKeyKind : u8 { kNone, kPage, kChunk };

/// JSONL key names for the a/b/c payload of an event; an empty name means
/// the field is not emitted.
struct EventFieldNames {
  std::string_view a, b, c;
};

struct EventInfo {
  /// Stable snake_case name: the JSONL "ev" value and the --trace-events
  /// vocabulary.
  std::string_view name;
  EventFieldNames fields;
  TenantKeyKind tenant_key;
};

/// One row per EventType, in enum order. Job events carry a job id, not a
/// page or chunk, and the fleet recorder has no tenant table attached, so
/// nothing is ever auto-stamped on them.
inline constexpr EventInfo kEventTable[] = {
    {"fault_raised", {"page", "chunk", {}}, TenantKeyKind::kPage},
    {"fault_coalesced", {"page", "stage", {}}, TenantKeyKind::kPage},
    {"migration_planned", {"page", "pages", "busy"}, TenantKeyKind::kPage},
    {"eviction_chosen", {"chunk", "untouch", "pages"}, TenantKeyKind::kChunk},
    {"wrong_eviction_detected", {"chunk", "total", {}}, TenantKeyKind::kChunk},
    {"pattern_hit", {"chunk", "pages", "popcount"}, TenantKeyKind::kChunk},
    {"pattern_miss", {"chunk", "first", {}}, TenantKeyKind::kChunk},
    {"pattern_deleted", {"chunk", "reason", {}}, TenantKeyKind::kChunk},
    {"interval_boundary", {"interval", "pages_migrated", {}}, TenantKeyKind::kNone},
    {"pre_eviction_triggered", {"free_frames", "watermark", {}}, TenantKeyKind::kNone},
    {"shootdown_issued", {"page", "frame", {}}, TenantKeyKind::kPage},
    {"fault_batch_formed", {"page", "faults", "backlog"}, TenantKeyKind::kPage},
    {"batch_serviced", {"page", "faults", "amortised"}, TenantKeyKind::kPage},
    {"page_spilled", {"chunk", "dst", "pages"}, TenantKeyKind::kChunk},
    {"remote_access", {"page", "owner", "cycles"}, TenantKeyKind::kPage},
    {"peer_migration", {"page", "src", "hopback"}, TenantKeyKind::kPage},
    {"pattern_hit_empty", {"chunk", "popcount", {}}, TenantKeyKind::kChunk},
    {"coalesce", {"chunk", "frame", "region"}, TenantKeyKind::kChunk},
    {"splinter", {"chunk", "region", "reason"}, TenantKeyKind::kChunk},
    {"large_frame_evicted", {"chunk", "untouch", "pages"}, TenantKeyKind::kChunk},
    {"job_arrived", {"job", "pages", "pattern"}, TenantKeyKind::kNone},
    {"job_admitted", {"job", "device", "wait"}, TenantKeyKind::kNone},
    {"job_rejected", {"job", "reason", "queued"}, TenantKeyKind::kNone},
    {"job_completed", {"job", "device", "cycles"}, TenantKeyKind::kNone},
    {"fault_enqueued", {"page", "queue", "depth"}, TenantKeyKind::kPage},
    {"fault_queue_full", {"page", "queue", "backlog"}, TenantKeyKind::kPage},
    {"gpu_fault_serviced", {"page", "faults", "busy"}, TenantKeyKind::kPage},
};

/// A new event appends an enumerator, a row above, and moves this check to
/// the new last enumerator.
inline constexpr u32 kNumEventTypes = static_cast<u32>(std::size(kEventTable));
static_assert(kNumEventTypes == static_cast<u32>(EventType::kGpuFaultServiced) + 1,
              "kEventTable needs exactly one row per EventType");

[[nodiscard]] constexpr const EventInfo& event_info(EventType t) noexcept {
  return kEventTable[static_cast<u32>(t)];
}
[[nodiscard]] constexpr std::string_view to_string(EventType t) noexcept {
  return event_info(t).name;
}
[[nodiscard]] constexpr EventFieldNames field_names(EventType t) noexcept {
  return event_info(t).fields;
}
[[nodiscard]] constexpr TenantKeyKind tenant_key_kind(EventType t) noexcept {
  return event_info(t).tenant_key;
}

/// Bitmask helpers for event filtering (--trace-events).
[[nodiscard]] constexpr u32 event_bit(EventType t) noexcept {
  return 1u << static_cast<u32>(t);
}
inline constexpr u32 kAllEventsMask = (1u << kNumEventTypes) - 1;

}  // namespace uvmsim
