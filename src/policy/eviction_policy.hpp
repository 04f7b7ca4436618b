// EvictionPolicy: the strategy layer on top of the shared ChunkChain.
//
// The UVM driver owns one ChunkChain and one EvictionPolicy; the policy
// reads/searches the chain and is notified of the paging events it needs
// (chunk arrivals, demand touches, faults, interval boundaries, evictions).
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/flight_recorder.hpp"
#include "policy/chunk_chain.hpp"

namespace uvmsim {

/// Where a (re-)migrated chunk should enter the chain.
enum class InsertPosition : u8 { kTail, kHead };

/// Victim-candidate predicate for tenant-scoped selection on a shared
/// chain: only entries for which the filter returns true may be proposed.
/// An empty (default-constructed) filter means "no restriction".
using ChunkFilter = std::function<bool(const ChunkEntry&)>;

class EvictionPolicy {
 public:
  explicit EvictionPolicy(ChunkChain& chain) : chain_(chain) {}
  virtual ~EvictionPolicy() = default;

  EvictionPolicy(const EvictionPolicy&) = delete;
  EvictionPolicy& operator=(const EvictionPolicy&) = delete;

  /// A chunk was migrated in and inserted into the chain.
  virtual void on_chunk_inserted(ChunkEntry& /*e*/) {}

  /// A resident page received a demand touch (idx = page within chunk).
  /// Chain metadata (touched bits, counters) is updated by the driver before
  /// this hook; policies use it for recency reordering only.
  virtual void on_page_touched(ChunkEntry& /*e*/, u32 /*page_in_chunk*/) {}

  /// A far fault occurred for `page` (before migration). MHPE uses this to
  /// detect wrong evictions.
  virtual void on_fault(PageId /*page*/) {}

  /// One or more interval boundaries were crossed (called after the chain's
  /// interval clock advanced).
  virtual void on_interval_boundary() {}

  /// Select the chunk to evict. The chain is guaranteed to contain at least
  /// one unpinned entry. Must not return a pinned chunk.
  [[nodiscard]] virtual ChunkId select_victim() = 0;

  /// Batched victim selection (uvm/eviction_engine): propose up to
  /// `max_victims` distinct unpinned chunks, best victim first. Selection
  /// must be side-effect free — the engine evicts candidates in order,
  /// re-checks its free-frame target after each one and discards the rest,
  /// then calls on_chunk_evicted per chunk actually evicted. The default
  /// forwards to select_victim(): policies whose choice depends on
  /// per-eviction state (Random's RNG draw, MHPE's forwarded MRU search)
  /// keep exact single-step semantics; stateless chain scans (LRU, FIFO)
  /// override to return a run of victims in one pass.
  [[nodiscard]] virtual std::vector<ChunkId> select_victims(u64 max_victims) {
    if (max_victims == 0) return {};
    const ChunkId v = select_victim();
    if (v == kInvalidChunk) return {};
    return {v};
  }

  /// Scoped batched selection (multi-tenant, shared chain with evict-own
  /// scoping): propose up to `max_victims` unpinned chunks satisfying
  /// `allow`, best first; empty filter delegates to the unscoped overload.
  /// The default is an oldest-first (LRU-order) scan of the admissible
  /// entries — policies whose unscoped choice is also a chain scan (LRU,
  /// FIFO, Random) override it to keep their exact semantics under a
  /// filter; the stateful policies (HPE/MHPE/reserved) intentionally fall
  /// back to this scan, since their per-tenant semantics are provided by
  /// per-tenant chains in the partitioned/quota modes instead
  /// (docs/multitenancy.md).
  [[nodiscard]] virtual std::vector<ChunkId> select_victims(
      u64 max_victims, const ChunkFilter& allow) {
    if (!allow) return select_victims(max_victims);
    std::vector<ChunkId> out;
    for (const auto& e : chain_) {
      if (out.size() == max_victims) break;
      if (!e.pinned() && allow(e)) out.push_back(e.id);
    }
    return out;
  }

  /// The selected chunk is about to be evicted; final metadata available.
  virtual void on_chunk_evicted(const ChunkEntry& /*e*/) {}

  /// Where should `chunk` be inserted when (re-)migrated?
  [[nodiscard]] virtual InsertPosition insert_position(ChunkId /*chunk*/) {
    return InsertPosition::kTail;
  }

  /// True if demand touches should refresh the chunk's position/recency in
  /// the chain (HPE/LRU-style). MHPE deliberately leaves the chain in pure
  /// arrival order — one chain update per chunk (paper §VI-C).
  [[nodiscard]] virtual bool reorder_on_touch() const { return false; }

  [[nodiscard]] virtual std::string name() const = 0;

  /// Attach the flight recorder (nullptr = tracing off). Policies emit the
  /// decision events only they can see (e.g. MHPE's wrong-eviction hits).
  /// Virtual so composite policies can forward it to their inner policies
  /// (and, for the adaptive policy, take the recorder's phase classifier).
  virtual void set_recorder(FlightRecorder* rec) { recorder_ = rec; }

 protected:
  [[nodiscard]] FlightRecorder* recorder() const noexcept { return recorder_; }
  [[nodiscard]] ChunkChain& chain() noexcept { return chain_; }
  [[nodiscard]] const ChunkChain& chain() const noexcept { return chain_; }

  /// First unpinned chunk from the LRU end; kInvalidChunk if none.
  [[nodiscard]] ChunkId lru_unpinned() const {
    for (const auto& e : chain_)
      if (!e.pinned()) return e.id;
    return kInvalidChunk;
  }

  /// First `n` unpinned chunks from the LRU end, head first (the batched
  /// form of lru_unpinned, shared by the LRU and FIFO select_victims
  /// overrides — both evict in chain order, so one scan yields the same
  /// victim sequence as n single selections).
  [[nodiscard]] std::vector<ChunkId> lru_unpinned_batch(u64 n) const {
    std::vector<ChunkId> out;
    if (n == 0) return out;
    out.reserve(static_cast<std::size_t>(std::min<u64>(n, chain_.size())));
    for (const auto& e : chain_) {
      if (e.pinned()) continue;
      out.push_back(e.id);
      if (out.size() == n) break;
    }
    return out;
  }

 private:
  ChunkChain& chain_;
  FlightRecorder* recorder_ = nullptr;
};

}  // namespace uvmsim
