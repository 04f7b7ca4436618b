// Table I: configuration of the simulated system.
#include <iostream>

#include "bench_common.hpp"
#include "common/config.hpp"
#include "tlb/page_table.hpp"

using namespace uvmsim;

int main() {
  bench::print_header("Table I: Configuration of simulated system", "Table I");
  const SystemConfig c;
  TextTable t({"component", "configuration"});
  t.add_row({"GPU Cores", std::to_string(c.num_sms) + " SMs, " + fmt(c.core_ghz, 1) + "GHz, " +
                              std::to_string(c.warps_per_sm) + " warps/SM modelled"});
  t.add_row({"Private L1 TLB", std::to_string(c.l1_tlb_entries) +
                                   "-entry per SM, fully assoc., " +
                                   std::to_string(c.l1_tlb_latency) + "-cycle latency, LRU"});
  t.add_row({"Shared L2 TLB", std::to_string(c.l2_tlb_entries) + "-entry, " +
                                  std::to_string(c.l2_tlb_ways) + "-assoc., " +
                                  std::to_string(c.l2_tlb_latency) + "-cycle latency, " +
                                  std::to_string(c.l2_tlb_ports) + " ports, LRU"});
  t.add_row({"Page Table Walker", std::to_string(c.walker_threads) +
                                      " concurrent walks, " +
                                      std::to_string(PageTable::kLevels) + "-level page table"});
  t.add_row({"Page Walk Cache", std::to_string(c.walk_cache_ways) + "-way " +
                                    std::to_string(c.walk_cache_bytes / 1024) + "KB, " +
                                    std::to_string(c.walk_cache_latency) + "-cycle latency"});
  t.add_row({"DRAM", "GDDR5, " + std::to_string(c.dram_channels) + "-channel, " +
                         fmt(c.dram_bw_gbps, 0) + "GB/s aggregate"});
  t.add_row({"CPU-GPU interconnect", fmt(c.pcie_bw_gbps, 0) + "GB/s, " +
                                         fmt(c.fault_latency_us, 0) +
                                         "us page fault service time"});
  t.add_row({"OS page / chunk", "4KB pages, 16-page (64KB) chunks"});
  t.add_row({"Derived: fault latency", std::to_string(SystemConfig{}.fault_latency_cycles()) + " cycles"});
  t.add_row({"Derived: PCIe per page", std::to_string(SystemConfig{}.pcie_page_cycles()) + " cycles"});
  std::cout << t.str();
  return 0;
}
