// Phase-adaptive eviction (docs/policies.md).
//
// A composite policy that delegates every EvictionPolicy hook to one of two
// inner strategies — recency (LRU) or MHPE — and switches between them at
// the phase boundaries detected by an online PhaseClassifier. The
// classifier is the driver's flight recorder's own (FlightRecorder::phases,
// taken in set_recorder()): the driver already records every fault,
// eviction and pattern-buffer outcome through that recorder, so the policy
// observes the workload without any new driver plumbing.
//
// Phase -> strategy map (Table II reasoning):
//   LRU    Streaming, Partly Repetitive, Region Moving — forward-moving
//          access where the oldest data is the deadest and MRU-side
//          eviction would shoot the working set in the foot;
//   MHPE   Mostly Repetitive, Thrashing, Repetitive-Thrashing — cyclic
//          reuse beyond memory, where LRU evicts exactly what returns next
//          and MHPE's MRU-then-LRU hierarchy (paper §IV-B) wins.
//
// Switching INTO MHPE constructs a fresh instance: MHPE's MRU->LRU strategy
// switch is deliberately one-way and its interval accumulators (U1/U2/W)
// describe the phase that trained them, so a new phase gets a clean policy
// whose lazy_init re-derives the forward distance from the live chain. LRU
// is stateless over the shared chain, so switching to it needs nothing.
#pragma once

#include <memory>

#include "common/config.hpp"
#include "obs/phase_classifier.hpp"
#include "policy/lru.hpp"
#include "policy/mhpe.hpp"

namespace uvmsim {

class AdaptiveEvictionPolicy final : public EvictionPolicy {
 public:
  AdaptiveEvictionPolicy(ChunkChain& chain, const PolicyConfig& cfg);

  void on_chunk_inserted(ChunkEntry& e) override;
  void on_page_touched(ChunkEntry& e, u32 page_in_chunk) override;
  void on_fault(PageId page) override;
  void on_interval_boundary() override;
  [[nodiscard]] ChunkId select_victim() override;
  [[nodiscard]] std::vector<ChunkId> select_victims(u64 max_victims) override;
  [[nodiscard]] std::vector<ChunkId> select_victims(
      u64 max_victims, const ChunkFilter& allow) override;
  void on_chunk_evicted(const ChunkEntry& e) override;
  [[nodiscard]] InsertPosition insert_position(ChunkId chunk) override;
  /// Live per-touch query (the driver consults it on every demand touch),
  /// so recency maintenance starts/stops with the active strategy.
  [[nodiscard]] bool reorder_on_touch() const override {
    return active().reorder_on_touch();
  }
  [[nodiscard]] std::string name() const override { return "adaptive"; }
  void set_recorder(FlightRecorder* rec) override;

  /// Which phases run MHPE (the rest run LRU). Exposed for tests/bench.
  [[nodiscard]] static bool wants_mhpe(PatternType p) noexcept {
    return p == PatternType::kMostlyRepetitive ||
           p == PatternType::kThrashing ||
           p == PatternType::kRepetitiveThrashing;
  }

  // --- Introspection (abl_adaptive, RunResult) -------------------------------
  /// The recorder's classifier; only after set_recorder() with a recorder.
  [[nodiscard]] const PhaseClassifier& classifier() const noexcept {
    return *phases_;
  }
  /// Strategy switches actually performed (a confirmed phase change between
  /// two LRU phases, say, changes nothing and is not counted here).
  [[nodiscard]] u64 strategy_switches() const noexcept { return switches_; }
  /// The live inner MHPE (nullptr while LRU is active) for stats plumbing.
  [[nodiscard]] const MhpePolicy* inner_mhpe() const noexcept {
    return mhpe_active_ ? mhpe_.get() : nullptr;
  }

 private:
  /// Catch up with the classifier (cheap generation-counter compare) and
  /// swap the active strategy if a confirmed phase change calls for it.
  /// Called on entry to every mutating hook, so a switch can never happen
  /// in the middle of one selection. Without a recorder it does nothing.
  void reconcile();
  [[nodiscard]] EvictionPolicy& active() noexcept {
    return mhpe_active_ ? static_cast<EvictionPolicy&>(*mhpe_) : lru_;
  }
  [[nodiscard]] const EvictionPolicy& active() const noexcept {
    return mhpe_active_ ? static_cast<const EvictionPolicy&>(*mhpe_) : lru_;
  }

  PolicyConfig cfg_;
  const PhaseClassifier* phases_ = nullptr;  ///< the recorder's, if any
  LruPolicy lru_;
  std::unique_ptr<MhpePolicy> mhpe_;
  bool mhpe_active_;
  u64 seen_decisions_ = 0;
  u64 switches_ = 0;
};

}  // namespace uvmsim
