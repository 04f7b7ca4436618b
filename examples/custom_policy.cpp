// Example: extending the library with a user-defined eviction policy.
//
// The factory presets cover the paper's policies; research use means writing
// new ones. This example implements CLOCK (second-chance) over the chunk
// chain, registers it with the PolicyRegistry under the name "clock", and
// then runs it through the exact same front door every built-in uses — a
// PolicyConfig whose eviction_name says "clock" — racing it against LRU and
// MHPE. Registration is the whole integration: once the registrar below has
// run, `uvmsim --eviction clock`, `uvmsim_sweep --policies clock/locality`,
// multi-tenant and fabric runs all resolve the name with no core changes
// (docs/policies.md has the recipe).
//
//   ./build/examples/custom_policy
#include <iostream>
#include <memory>
#include <string>
#include <unordered_set>

#include "core/policy_factory.hpp"
#include "core/policy_registry.hpp"
#include "core/uvm_system.hpp"
#include "harness/report.hpp"
#include "policy/eviction_policy.hpp"
#include "workloads/benchmarks.hpp"

using namespace uvmsim;

namespace {

/// CLOCK / second-chance at chunk granularity: sweep from the LRU end; a
/// chunk touched since the last sweep visit gets a second chance (its
/// reference state is consumed), the first chunk without one is evicted.
/// The "reference bit" is derived from the chain's touch-interval stamp.
class ClockPolicy final : public EvictionPolicy {
 public:
  using EvictionPolicy::EvictionPolicy;

  [[nodiscard]] ChunkId select_victim() override {
    ChunkId fallback = kInvalidChunk;
    for (auto& e : chain()) {
      if (e.pinned()) continue;
      if (fallback == kInvalidChunk) fallback = e.id;
      if (referenced_.erase(e.id) > 0) continue;  // second chance consumed
      return e.id;
    }
    return fallback;  // everyone had a second chance: plain LRU order
  }

  void on_page_touched(ChunkEntry& e, u32 /*page*/) override {
    referenced_.insert(e.id);
  }

  void on_chunk_evicted(const ChunkEntry& e) override { referenced_.erase(e.id); }

  // Keep arrival order (like MHPE) — CLOCK's recency lives in the ref bits.
  [[nodiscard]] bool reorder_on_touch() const override { return false; }
  [[nodiscard]] std::string name() const override { return "CLOCK"; }

 private:
  std::unordered_set<ChunkId> referenced_;
};

/// The one line that plugs CLOCK into every construction site: a
/// static-init registrar claims the name before main() runs.
const EvictionRegistrar kClockRegistrar{
    "clock", [](const PolicyConfig&, ChunkChain& chain) {
      return std::make_unique<ClockPolicy>(chain);
    }};

/// Run one workload under a policy config at 0.5x memory and return cycles.
Cycle run_once(const Workload& wl, const PolicyConfig& pol) {
  UvmSystem sys(SystemConfig{}, pol, wl, /*oversubscription=*/0.5);
  return sys.run().cycles;
}

}  // namespace

int main() {
  std::cout << "Custom eviction policy demo: CLOCK vs LRU vs MHPE\n"
            << "(\"clock\" resolved through the PolicyRegistry by name)\n\n";

  // Three configs, one resolution path: the presets and the CLOCK config
  // all name their eviction policy, and the registry resolves each name.
  const PolicyConfig lru_cfg = presets::baseline();
  PolicyConfig clock_cfg = presets::baseline();
  clock_cfg.eviction_name = "clock";
  const PolicyConfig mhpe_cfg = presets::cppe();

  TextTable t({"workload", "LRU", "CLOCK", "MHPE", "CLOCK vs LRU", "MHPE vs LRU"});
  // Note: on purely cyclic patterns (SRD) CLOCK degenerates to LRU — every
  // chunk is referenced between sweep visits — so identical cycle counts
  // there are the correct result, not a wiring bug.
  for (const char* abbr : {"SRD", "KMN", "BKP", "2DC", "B+T"}) {
    const auto wl = make_benchmark(abbr);
    const Cycle lru = run_once(*wl, lru_cfg);
    const Cycle clock = run_once(*wl, clock_cfg);
    const Cycle mhpe = run_once(*wl, mhpe_cfg);
    t.add_row({abbr, std::to_string(lru), std::to_string(clock), std::to_string(mhpe),
               fmt(static_cast<double>(lru) / static_cast<double>(clock)) + "x",
               fmt(static_cast<double>(lru) / static_cast<double>(mhpe)) + "x"});
  }
  std::cout << t.str()
            << "\nWriting a policy = subclassing EvictionPolicy (one virtual for"
               " victim selection,\noptional hooks for touches/faults/intervals),"
               " registering it under a name with\nEvictionRegistrar, and naming"
               " it in PolicyConfig::eviction_name — the CLI,\nsweep harness and"
               " multi-tenant/fabric systems all resolve it from there.\n";
  return 0;
}
