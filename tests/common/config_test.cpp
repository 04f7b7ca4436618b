#include "common/config.hpp"

#include <gtest/gtest.h>

namespace uvmsim {
namespace {

TEST(Config, TableIDefaults) {
  const SystemConfig c;
  EXPECT_EQ(c.num_sms, 28u);
  EXPECT_DOUBLE_EQ(c.core_ghz, 1.4);
  EXPECT_EQ(c.l1_tlb_entries, 128u);
  EXPECT_EQ(c.l2_tlb_entries, 512u);
  EXPECT_EQ(c.l2_tlb_ways, 16u);
  EXPECT_EQ(c.l2_tlb_ports, 2u);
  EXPECT_EQ(c.walker_threads, 64u);
  EXPECT_EQ(c.page_table_levels, 4u);
  EXPECT_EQ(c.walk_cache_bytes, 8u * 1024u);
  EXPECT_EQ(c.dram_channels, 12u);
  EXPECT_DOUBLE_EQ(c.dram_bw_gbps, 528.0);
  EXPECT_DOUBLE_EQ(c.pcie_bw_gbps, 16.0);
  EXPECT_DOUBLE_EQ(c.fault_latency_us, 20.0);
}

TEST(Config, DerivedCycleValues) {
  const SystemConfig c;
  // 20 us at 1.4 GHz = 28,000 cycles.
  EXPECT_EQ(c.fault_latency_cycles(), 28000u);
  // 4 KB over 16 GB/s = 256 ns = 358.4 cycles.
  EXPECT_EQ(c.pcie_page_cycles(), 358u);
  EXPECT_EQ(c.cycles_per_us(), 1400u);
  EXPECT_EQ(c.evict_service_cycles(), 3500u);  // 2.5 us
}

TEST(Config, DerivedValuesScaleWithClock) {
  SystemConfig c;
  c.core_ghz = 2.8;
  EXPECT_EQ(c.fault_latency_cycles(), 56000u);
  EXPECT_EQ(c.pcie_page_cycles(), 716u);
}

TEST(Config, PolicyDefaultsMatchPaper) {
  const PolicyConfig p;
  EXPECT_EQ(p.interval_faults, 64u);
  EXPECT_EQ(p.t1_untouch, 32u);
  EXPECT_EQ(p.t2_untouch_first4, 40u);
  EXPECT_EQ(p.t3_forward_limit, 32u);
  EXPECT_EQ(p.fd_min, 2u);
  EXPECT_EQ(p.fd_max, 8u);
  EXPECT_EQ(p.fd_chain_divisor, 100u);
  EXPECT_EQ(p.wrong_evict_min_entries, 8u);
  EXPECT_EQ(p.wrong_evict_chain_divisor, 64u);
  EXPECT_EQ(p.pattern_min_untouch, 8u);
  EXPECT_EQ(p.deletion, DeletionScheme::kScheme2);
  EXPECT_EQ(p.eviction_name, "mhpe");
  EXPECT_EQ(p.prefetch_name, "pattern");
}

TEST(Config, EnumNames) {
  EXPECT_EQ(kFabricNames.name(FabricKind::kSwitch), "switch");
  EXPECT_EQ(kPlacementNames.name(PlacementKind::kRoundRobin), "round-robin");
  EXPECT_EQ(kFaultBackendNames.name(FaultBackendKind::kGpuDriven), "gpu-driven");
  EXPECT_EQ(kEngineNames.name(EngineKind::kSharded), "sharded");
  EXPECT_EQ(kDeletionNames.value("scheme1"), DeletionScheme::kScheme1);
  EXPECT_EQ(kDeletionNames.value("scheme2"), DeletionScheme::kScheme2);
  EXPECT_EQ(kDeletionNames.value("bogus"), std::nullopt);
}

}  // namespace
}  // namespace uvmsim
