// PolicyRegistry: named eviction-policy / prefetcher factories.
//
// Every construction site (CLI, sweep harness, UvmSystem, FleetSystem)
// resolves a PolicyConfig's eviction_name / prefetch_name to a factory, so a policy added out of tree participates everywhere — CLI
// flags, sweeps, multi-tenant and multi-GPU runs — without touching core
// (docs/policies.md has the recipe; examples/custom_policy.cpp a worked
// one).
//
// Failure is loud by design. Lookup of an unknown or empty name throws
// std::invalid_argument naming the offender and every registered name.
// Duplicate registration throws std::logic_error at registration time
// (almost always two translation units claiming one name).
//
// Registration order is preserved and is the listing order (--list-policies,
// error messages). The registry is process-global and is seeded with the
// built-ins on first use; the simulator is single-threaded by design, so
// there is no locking.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "policy/eviction_policy.hpp"
#include "prefetch/prefetcher.hpp"

namespace uvmsim {

class PolicyRegistry {
 public:
  using EvictionFactory = std::function<std::unique_ptr<EvictionPolicy>(
      const PolicyConfig&, ChunkChain&)>;
  using PrefetchFactory =
      std::function<std::unique_ptr<Prefetcher>(const PolicyConfig&)>;

  /// The process-wide registry, seeded with the built-ins on first use.
  [[nodiscard]] static PolicyRegistry& instance();

  /// Register a factory under `name`. Throws std::logic_error when the name
  /// is empty or already taken.
  void register_eviction(const std::string& name, EvictionFactory factory);
  void register_prefetch(const std::string& name, PrefetchFactory factory);

  [[nodiscard]] bool has_eviction(const std::string& name) const;
  [[nodiscard]] bool has_prefetch(const std::string& name) const;

  /// Resolve `name` and construct. Throws std::invalid_argument listing the
  /// registered names when `name` is unknown.
  [[nodiscard]] std::unique_ptr<EvictionPolicy> make_eviction(
      const std::string& name, const PolicyConfig& cfg, ChunkChain& chain) const;
  [[nodiscard]] std::unique_ptr<Prefetcher> make_prefetch(
      const std::string& name, const PolicyConfig& cfg) const;

  /// Registered names in registration order (built-ins first).
  [[nodiscard]] std::vector<std::string> eviction_names() const;
  [[nodiscard]] std::vector<std::string> prefetch_names() const;

 private:
  PolicyRegistry();  ///< seeds the built-in factories

  template <class Factory>
  struct Entry {
    std::string name;
    Factory factory;
  };

  std::vector<Entry<EvictionFactory>> evictions_;
  std::vector<Entry<PrefetchFactory>> prefetches_;
};

/// The lookup keys a PolicyConfig resolves through.
[[nodiscard]] inline const std::string& eviction_key(const PolicyConfig& cfg) {
  return cfg.eviction_name;
}
[[nodiscard]] inline const std::string& prefetch_key(const PolicyConfig& cfg) {
  return cfg.prefetch_name;
}

/// Register-at-static-init helpers for out-of-tree policies: define one at
/// namespace scope in your translation unit and the policy is available to
/// every construction site before main() runs.
///
///   const uvmsim::EvictionRegistrar kClock{"clock",
///       [](const uvmsim::PolicyConfig&, uvmsim::ChunkChain& chain) {
///         return std::make_unique<ClockPolicy>(chain);
///       }};
struct EvictionRegistrar {
  EvictionRegistrar(const std::string& name,
                    PolicyRegistry::EvictionFactory factory) {
    PolicyRegistry::instance().register_eviction(name, std::move(factory));
  }
};
struct PrefetchRegistrar {
  PrefetchRegistrar(const std::string& name,
                    PolicyRegistry::PrefetchFactory factory) {
    PolicyRegistry::instance().register_prefetch(name, std::move(factory));
  }
};

}  // namespace uvmsim
