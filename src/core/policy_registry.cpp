#include "core/policy_registry.hpp"

#include <stdexcept>
#include <utility>

#include "policy/adaptive.hpp"
#include "policy/fifo.hpp"
#include "policy/hpe.hpp"
#include "policy/lru.hpp"
#include "policy/mhpe.hpp"
#include "policy/random.hpp"
#include "policy/reserved_lru.hpp"
#include "prefetch/adaptive.hpp"
#include "prefetch/pattern_aware.hpp"
#include "prefetch/tree_neighborhood.hpp"

namespace uvmsim {
namespace {

template <class Entries>
[[nodiscard]] auto* find_factory(Entries& entries, const std::string& name) {
  for (auto& e : entries)
    if (e.name == name) return &e.factory;
  return static_cast<decltype(&entries.front().factory)>(nullptr);
}

template <class Entries>
[[nodiscard]] std::string joined_names(const Entries& entries) {
  std::string out;
  for (const auto& e : entries) {
    if (!out.empty()) out += ", ";
    out += e.name;
  }
  return out;
}

}  // namespace

PolicyRegistry& PolicyRegistry::instance() {
  static PolicyRegistry registry;
  return registry;
}

PolicyRegistry::PolicyRegistry() {
  // Built-in eviction policies.
  register_eviction("lru", [](const PolicyConfig&, ChunkChain& chain) {
    return std::make_unique<LruPolicy>(chain);
  });
  register_eviction("fifo", [](const PolicyConfig&, ChunkChain& chain) {
    return std::make_unique<FifoPolicy>(chain);
  });
  register_eviction("random", [](const PolicyConfig& cfg, ChunkChain& chain) {
    return std::make_unique<RandomPolicy>(chain, cfg.seed);
  });
  register_eviction("reserved", [](const PolicyConfig& cfg, ChunkChain& chain) {
    return std::make_unique<ReservedLruPolicy>(chain, cfg.reserved_fraction);
  });
  register_eviction("hpe", [](const PolicyConfig& cfg, ChunkChain& chain) {
    return std::make_unique<HpePolicy>(chain, cfg);
  });
  register_eviction("mhpe", [](const PolicyConfig& cfg, ChunkChain& chain) {
    return std::make_unique<MhpePolicy>(chain, cfg);
  });
  register_eviction("adaptive", [](const PolicyConfig& cfg, ChunkChain& chain) {
    return std::make_unique<AdaptiveEvictionPolicy>(chain, cfg);
  });

  // Built-in prefetchers.
  register_prefetch("none", [](const PolicyConfig&) {
    return std::make_unique<NoPrefetcher>();
  });
  register_prefetch("locality", [](const PolicyConfig&) {
    return std::make_unique<LocalityPrefetcher>();
  });
  register_prefetch("tree", [](const PolicyConfig&) {
    return std::make_unique<TreeNeighborhoodPrefetcher>();
  });
  register_prefetch("pattern", [](const PolicyConfig& cfg) {
    return std::make_unique<PatternAwarePrefetcher>(cfg);
  });
  register_prefetch("adaptive", [](const PolicyConfig& cfg) {
    return std::make_unique<AdaptivePrefetcher>(cfg);
  });
}

void PolicyRegistry::register_eviction(const std::string& name,
                                       EvictionFactory factory) {
  if (name.empty())
    throw std::logic_error("eviction policy registration with empty name");
  if (has_eviction(name))
    throw std::logic_error("duplicate eviction policy registration: '" + name +
                           "'");
  evictions_.push_back({name, std::move(factory)});
}

void PolicyRegistry::register_prefetch(const std::string& name,
                                       PrefetchFactory factory) {
  if (name.empty())
    throw std::logic_error("prefetcher registration with empty name");
  if (has_prefetch(name))
    throw std::logic_error("duplicate prefetcher registration: '" + name + "'");
  prefetches_.push_back({name, std::move(factory)});
}

bool PolicyRegistry::has_eviction(const std::string& name) const {
  return find_factory(evictions_, name) != nullptr;
}

bool PolicyRegistry::has_prefetch(const std::string& name) const {
  return find_factory(prefetches_, name) != nullptr;
}

std::unique_ptr<EvictionPolicy> PolicyRegistry::make_eviction(
    const std::string& name, const PolicyConfig& cfg, ChunkChain& chain) const {
  const EvictionFactory* f = find_factory(evictions_, name);
  if (f == nullptr)
    throw std::invalid_argument("unknown eviction policy '" + name +
                                "'; registered: " + joined_names(evictions_));
  return (*f)(cfg, chain);
}

std::unique_ptr<Prefetcher> PolicyRegistry::make_prefetch(
    const std::string& name, const PolicyConfig& cfg) const {
  const PrefetchFactory* f = find_factory(prefetches_, name);
  if (f == nullptr)
    throw std::invalid_argument("unknown prefetcher '" + name +
                                "'; registered: " + joined_names(prefetches_));
  return (*f)(cfg);
}

std::vector<std::string> PolicyRegistry::eviction_names() const {
  std::vector<std::string> out;
  out.reserve(evictions_.size());
  for (const auto& e : evictions_) out.push_back(e.name);
  return out;
}

std::vector<std::string> PolicyRegistry::prefetch_names() const {
  std::vector<std::string> out;
  out.reserve(prefetches_.size());
  for (const auto& e : prefetches_) out.push_back(e.name);
  return out;
}

}  // namespace uvmsim
