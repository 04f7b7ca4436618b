// Parameterized property suite run against EVERY registered eviction
// policy: victims are always valid unpinned resident chunks, single-entry
// chains work, heavy pinning never produces a pinned victim, and repeated
// select/evict cycles drain a chain completely.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/policy_factory.hpp"
#include "policy/eviction_policy.hpp"

namespace uvmsim {
namespace {

// The built-in policies: display label and registered name. A test case is
// an index into this table.
struct Builtin {
  const char* label;
  const char* name;
};
constexpr Builtin kBuiltins[] = {{"LRU", "lru"},       {"FIFO", "fifo"},
                                 {"Random", "random"}, {"ReservedLRU", "reserved"},
                                 {"HPE", "hpe"},       {"MHPE", "mhpe"}};
struct BuiltinIndex {
  u8 i;
};

class EveryPolicy : public ::testing::TestWithParam<BuiltinIndex> {
 protected:
  void fill(ChunkChain& chain, u32 n) {
    for (ChunkId c = 0; c < n; ++c) {
      ChunkEntry& e = chain.insert(c);
      e.resident = TouchBits::all();
      e.touched = (c % 3 == 0) ? TouchBits(0x000F) : TouchBits::all();
      e.hpe_counter = (c % 3 == 0) ? 4 : 16;
    }
  }

  static const char* label() { return kBuiltins[GetParam().i].label; }

  std::unique_ptr<EvictionPolicy> make(ChunkChain& chain) {
    PolicyConfig cfg;
    cfg.eviction_name = kBuiltins[GetParam().i].name;
    return make_eviction_policy(cfg, chain);
  }
};

INSTANTIATE_TEST_SUITE_P(AllKinds, EveryPolicy,
                         ::testing::Values(BuiltinIndex{0}, BuiltinIndex{1},
                                           BuiltinIndex{2}, BuiltinIndex{3},
                                           BuiltinIndex{4}, BuiltinIndex{5}),
                         [](const auto& pinfo) {
                           return std::string(kBuiltins[pinfo.param.i].label);
                         });

TEST_P(EveryPolicy, VictimIsAlwaysAValidUnpinnedChunk) {
  ChunkChain chain(64);
  fill(chain, 100);
  chain.note_pages_migrated(128);
  auto pol = make(chain);
  for (int i = 0; i < 50; ++i) {
    const ChunkId v = pol->select_victim();
    ASSERT_NE(v, kInvalidChunk);
    ASSERT_TRUE(chain.contains(v));
    ASSERT_FALSE(chain.entry(v).pinned());
    pol->on_chunk_evicted(chain.entry(v));
    chain.erase(v);
  }
}

TEST_P(EveryPolicy, SingleEntryChainSelectsIt) {
  ChunkChain chain(64);
  fill(chain, 1);
  auto pol = make(chain);
  EXPECT_EQ(pol->select_victim(), 0u);
}

TEST_P(EveryPolicy, HeavyPinningNeverYieldsPinnedVictim) {
  ChunkChain chain(64);
  fill(chain, 40);
  chain.note_pages_migrated(128);
  // Pin all but chunks 5 and 23.
  for (auto& e : chain)
    if (e.id != 5 && e.id != 23) ++e.pin_count;
  auto pol = make(chain);
  for (int i = 0; i < 20; ++i) {
    const ChunkId v = pol->select_victim();
    ASSERT_TRUE(v == 5 || v == 23) << label();
  }
}

TEST_P(EveryPolicy, DrainsChainCompletely) {
  ChunkChain chain(64);
  fill(chain, 30);
  chain.note_pages_migrated(128);
  auto pol = make(chain);
  std::set<ChunkId> evicted;
  while (!chain.empty()) {
    const ChunkId v = pol->select_victim();
    ASSERT_NE(v, kInvalidChunk);
    ASSERT_TRUE(evicted.insert(v).second) << "victim repeated: " << v;
    pol->on_chunk_evicted(chain.entry(v));
    chain.erase(v);
    chain.note_pages_migrated(16);
    // Interval boundaries may fire mid-drain; policies must tolerate them.
    pol->on_interval_boundary();
  }
  EXPECT_EQ(evicted.size(), 30u);
}

TEST_P(EveryPolicy, InsertPositionDefaultsToTail) {
  ChunkChain chain(64);
  fill(chain, 10);
  auto pol = make(chain);
  EXPECT_EQ(pol->insert_position(999), InsertPosition::kTail);
}

}  // namespace
}  // namespace uvmsim
