#include "policy/adaptive.hpp"

namespace uvmsim {

AdaptiveEvictionPolicy::AdaptiveEvictionPolicy(ChunkChain& chain,
                                               const PolicyConfig& cfg)
    : EvictionPolicy(chain),
      cfg_(cfg),
      lru_(chain),
      mhpe_(std::make_unique<MhpePolicy>(chain, cfg)),
      mhpe_active_(wants_mhpe(PhaseClassifierConfig{}.initial)) {}

void AdaptiveEvictionPolicy::set_recorder(FlightRecorder* rec) {
  EvictionPolicy::set_recorder(rec);
  lru_.set_recorder(rec);
  mhpe_->set_recorder(rec);
  phases_ = rec != nullptr ? &rec->phases() : nullptr;
}

void AdaptiveEvictionPolicy::reconcile() {
  if (phases_ == nullptr || phases_->decisions() == seen_decisions_) return;
  seen_decisions_ = phases_->decisions();
  const bool want = wants_mhpe(phases_->phase());
  if (want == mhpe_active_) return;
  if (want) {
    // Fresh instance per MHPE phase: resets the one-way MRU->LRU switch and
    // lets lazy_init re-derive the forward distance from the chain as it
    // stands now, exactly as if the new phase were a new application.
    mhpe_ = std::make_unique<MhpePolicy>(chain(), cfg_);
    mhpe_->set_recorder(recorder());
  }
  mhpe_active_ = want;
  ++switches_;
}

void AdaptiveEvictionPolicy::on_chunk_inserted(ChunkEntry& e) {
  reconcile();
  active().on_chunk_inserted(e);
}

void AdaptiveEvictionPolicy::on_page_touched(ChunkEntry& e, u32 page_in_chunk) {
  reconcile();
  active().on_page_touched(e, page_in_chunk);
}

void AdaptiveEvictionPolicy::on_fault(PageId page) {
  reconcile();
  active().on_fault(page);
}

void AdaptiveEvictionPolicy::on_interval_boundary() {
  reconcile();
  active().on_interval_boundary();
}

ChunkId AdaptiveEvictionPolicy::select_victim() {
  reconcile();
  return active().select_victim();
}

std::vector<ChunkId> AdaptiveEvictionPolicy::select_victims(u64 max_victims) {
  reconcile();
  return active().select_victims(max_victims);
}

std::vector<ChunkId> AdaptiveEvictionPolicy::select_victims(
    u64 max_victims, const ChunkFilter& allow) {
  reconcile();
  return active().select_victims(max_victims, allow);
}

void AdaptiveEvictionPolicy::on_chunk_evicted(const ChunkEntry& e) {
  // No reconcile: the eviction engine pairs this call with the selection
  // that proposed `e`, so the strategy that chose the victim sees its
  // outcome (MHPE's wrong-eviction buffer depends on that pairing).
  active().on_chunk_evicted(e);
}

InsertPosition AdaptiveEvictionPolicy::insert_position(ChunkId chunk) {
  reconcile();
  return active().insert_position(chunk);
}

}  // namespace uvmsim
