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
  explicit ChainSet(u64 interval_faults) : interval_faults_(interval_faults) {
    chains_.push_back(std::make_unique<ChunkChain>(interval_faults_));
    policies_.resize(1);
  }

  ChainSet(const ChainSet&) = delete;
  ChainSet& operator=(const ChainSet&) = delete;

  /// Split into one domain per tenant (partitioned/quota modes). Discards
  /// all chains and installed policies — call before the run starts, then
  /// install a policy per domain.
  void configure_domains(u64 domains, const TenantTable* table) {
    assert(domains >= 1);
    table_ = table;
    chains_.clear();
    for (u64 d = 0; d < domains; ++d) {
      chains_.push_back(std::make_unique<ChunkChain>(interval_faults_));
      if (reserve_chunks_ > 0) chains_.back()->reserve(reserve_chunks_);
    }
    policies_.clear();
    policies_.resize(domains);
  }

  /// Attach the table without splitting (shared mode: one chain, but chunk
  /// ownership still resolvable for scoped selection and stats).
  void set_tenant_table(const TenantTable* table) noexcept { table_ = table; }

  /// Pre-size every domain's slab/index for `chunks` resident chunks
  /// (normally the device capacity in chunks). Also applied to domains
  /// created by a later configure_domains().
  void reserve_chunks(std::size_t chunks) {
    reserve_chunks_ = chunks;
    for (auto& c : chains_) c->reserve(chunks);
  }

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

  void set_recorder(FlightRecorder* rec) {
    for (auto& p : policies_)
      if (p) p->set_recorder(rec);
  }

  // --- Simulator-perf observability (RunResult.sim / --sim-stats) ----------
  /// Slab slots allocated across all domains (live + free-listed).
  [[nodiscard]] u64 total_slab_capacity() const noexcept {
    u64 n = 0;
    for (const auto& c : chains_) n += c->slab_capacity();
    return n;
  }

 private:
  u64 interval_faults_;
  std::size_t reserve_chunks_ = 0;
  std::vector<std::unique_ptr<ChunkChain>> chains_;
  std::vector<std::unique_ptr<EvictionPolicy>> policies_;
  const TenantTable* table_ = nullptr;
};

}  // namespace uvmsim
