// ChainSet: the driver's one-or-many (ChunkChain, EvictionPolicy) domains.
//
// Single-tenant runs and the multi-tenant *shared* mode use exactly one
// domain — one global chain, one policy instance — which reproduces the
// legacy driver bit-for-bit. The partitioned and quota modes split into one
// domain per tenant: each tenant gets its own chain (its own interval
// clock, arrival order and touch metadata) and its own policy instance, so
// the stateful policies (MHPE's MRU/LRU phase switch, HPE's counters,
// reserved-LRU's depth) run with per-tenant state instead of being polluted
// by interleaved arrivals from other tenants.
//
// Chunk ownership is unambiguous (tenant namespaces are chunk-aligned), so
// every chunk maps to exactly one domain via the TenantTable.
#pragma once

#include <cassert>
#include <memory>
#include <vector>

#include "policy/chunk_chain.hpp"
#include "policy/eviction_policy.hpp"
#include "tenancy/tenant.hpp"

namespace uvmsim {

class ChainSet {
 public:
  /// `domains` chains (one per tenant in the partitioned and quota modes,
  /// else one), each pre-sized for `reserve_chunks` resident chunks
  /// (normally the device capacity in chunks). `table` resolves a chunk's
  /// owner, in the shared mode's one domain too (scoped selection, stats).
  explicit ChainSet(u64 interval_faults, std::size_t reserve_chunks = 0,
                    const TenantTable* table = nullptr, u64 domains = 1)
      : policies_(domains), table_(table) {
    assert(domains >= 1 && (domains == 1 || table != nullptr));
    for (u64 d = 0; d < domains; ++d) {
      chains_.push_back(std::make_unique<ChunkChain>(interval_faults));
      if (reserve_chunks > 0) chains_.back()->reserve(reserve_chunks);
    }
  }

  ChainSet(const ChainSet&) = delete;
  ChainSet& operator=(const ChainSet&) = delete;

  [[nodiscard]] u64 domains() const noexcept { return chains_.size(); }
  [[nodiscard]] bool per_tenant() const noexcept { return chains_.size() > 1; }

  [[nodiscard]] u64 domain_of(TenantId t) const noexcept {
    return per_tenant() && t != kNoTenant ? t : 0;
  }
  [[nodiscard]] u64 domain_of_chunk(ChunkId c) const noexcept {
    if (!per_tenant()) return 0;
    assert(table_ != nullptr);
    return domain_of(table_->tenant_of_chunk(c));
  }

  [[nodiscard]] ChunkChain& chain(u64 domain) { return *chains_[domain]; }
  [[nodiscard]] const ChunkChain& chain(u64 domain) const { return *chains_[domain]; }
  [[nodiscard]] ChunkChain& chain_for(TenantId t) { return *chains_[domain_of(t)]; }
  [[nodiscard]] ChunkChain& chain_of_chunk(ChunkId c) {
    return *chains_[domain_of_chunk(c)];
  }

  void set_policy(u64 domain, std::unique_ptr<EvictionPolicy> p) {
    policies_[domain] = std::move(p);
  }
  [[nodiscard]] EvictionPolicy* policy(u64 domain) const {
    return policies_[domain].get();
  }
  [[nodiscard]] EvictionPolicy* policy_for(TenantId t) const {
    return policies_[domain_of(t)].get();
  }

  /// Find a chunk's entry in its owning domain; nullptr when not resident.
  [[nodiscard]] ChunkEntry* find(ChunkId c) {
    return chains_[domain_of_chunk(c)]->find(c);
  }

  // --- Simulator-perf observability (RunResult.sim / --sim-stats) ----------
  /// Slab slots allocated across all domains (live + free-listed).
  [[nodiscard]] u64 total_slab_capacity() const noexcept {
    u64 n = 0;
    for (const auto& c : chains_) n += c->slab_capacity();
    return n;
  }

 private:
  std::vector<std::unique_ptr<ChunkChain>> chains_;
  std::vector<std::unique_ptr<EvictionPolicy>> policies_;
  const TenantTable* table_;
};

}  // namespace uvmsim
