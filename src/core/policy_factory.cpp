#include "core/policy_factory.hpp"

#include "core/policy_registry.hpp"

namespace uvmsim {

// Thin registry wrappers: every construction site (UvmSystem, FleetSystem,
// tools, benches) funnels through these two calls, so a name registered with PolicyRegistry participates
// everywhere. Unknown names throw std::invalid_argument listing the
// registered names.

std::unique_ptr<EvictionPolicy> make_eviction_policy(const PolicyConfig& cfg,
                                                     ChunkChain& chain) {
  return PolicyRegistry::instance().make_eviction(cfg.eviction_name, cfg, chain);
}

std::unique_ptr<Prefetcher> make_prefetcher(const PolicyConfig& cfg) {
  return PolicyRegistry::instance().make_prefetch(cfg.prefetch_name, cfg);
}

namespace presets {

PolicyConfig baseline() {
  PolicyConfig c;
  c.eviction_name = "lru";
  c.prefetch_name = "locality";
  c.prefetch_when_full = true;
  return c;
}

PolicyConfig cppe() {
  PolicyConfig c;
  c.eviction_name = "mhpe";
  c.prefetch_name = "pattern";
  c.deletion = DeletionScheme::kScheme2;
  return c;
}

PolicyConfig cppe_scheme1() {
  PolicyConfig c = cppe();
  c.deletion = DeletionScheme::kScheme1;
  return c;
}

PolicyConfig random_evict() {
  PolicyConfig c = baseline();
  c.eviction_name = "random";
  return c;
}

PolicyConfig reserved_lru(double fraction) {
  PolicyConfig c = baseline();
  c.eviction_name = "reserved";
  c.reserved_fraction = fraction;
  return c;
}

PolicyConfig disable_prefetch_when_full() {
  PolicyConfig c = baseline();
  c.prefetch_when_full = false;
  return c;
}

PolicyConfig hpe() {
  PolicyConfig c = baseline();
  c.eviction_name = "hpe";
  return c;
}

PolicyConfig demand_only() {
  PolicyConfig c;
  c.eviction_name = "lru";
  c.prefetch_name = "none";
  return c;
}

PolicyConfig with_fault_batch(PolicyConfig base, u32 window) {
  base.fault_batch = window;
  return base;
}

}  // namespace presets
}  // namespace uvmsim
