// README.md documents every choice flag of uvmsim: its flag-table row gives
// the default ExperimentSpec's value as the default, names every value of
// the flag's table, and none of the spellings the parsers no longer take.
#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>

#include "harness/experiment.hpp"

namespace uvmsim {
namespace {

/// The flag table's rows: flag ("--fabric") -> {default cell, whole row}.
struct FlagRow {
  std::string def;
  std::string row;
};

std::map<std::string, FlagRow> flag_rows(std::istream& in) {
  std::map<std::string, FlagRow> rows;
  std::string line;
  while (std::getline(in, line) && line != "| flag | default | meaning |") {
  }
  std::getline(in, line);  // |---|---|---|
  while (std::getline(in, line) && line.rfind("| `--", 0) == 0) {
    const std::size_t flag_end = line.find('`', 3);
    const std::size_t def = line.find("| ", flag_end) + 2;
    rows[line.substr(3, flag_end - 3)] = {line.substr(def, line.find(" |", def) - def),
                                          line};
  }
  return rows;
}

template <class E, std::size_t N>
void expect_documented(const std::map<std::string, FlagRow>& rows,
                       const std::string& flag, const NameTable<E, N>& table, E def,
                       std::initializer_list<std::string_view> removed = {}) {
  const auto it = rows.find(flag);
  ASSERT_NE(it, rows.end()) << "no row for " << flag;
  const auto quoted = [](std::string_view name) {
    return '`' + std::string(name) + '`';
  };
  EXPECT_EQ(it->second.def, quoted(table.name(def))) << flag;
  for (const NameRow<E>& row : table.rows)
    EXPECT_NE(it->second.row.find(quoted(row.name)), std::string::npos)
        << flag << " row lacks " << row.name;
  for (const std::string_view alias : removed)
    EXPECT_EQ(it->second.row.find(quoted(alias)), std::string::npos)
        << flag << " row names removed alias " << alias;
}

TEST(FlagDoc, ReadmeListsEveryChoiceOfEachChoiceFlag) {
  std::ifstream in(std::string(UVMSIM_SOURCE_DIR) + "/README.md");
  ASSERT_TRUE(in) << "cannot read README.md";
  const auto rows = flag_rows(in);
  const ExperimentSpec def;
  expect_documented(rows, "--deletion", kDeletionNames, def.policy.deletion);
  expect_documented(rows, "--fault-backend", kFaultBackendNames,
                    def.system.fault_backend, {"host-driver", "gpu", "gpuvm"});
  expect_documented(rows, "--tenant-mode", kTenantModeNames, def.tenant_mode);
  expect_documented(rows, "--tenant-evict", kEvictionScopeNames, def.tenant_scope);
  expect_documented(rows, "--fabric", kFabricNames, def.fabric.topology, {"nvswitch"});
  expect_documented(rows, "--placement", kPlacementNames, def.fabric.placement);
  expect_documented(rows, "--admission", kAdmissionNames, def.fleet.admission);
  expect_documented(rows, "--fleet-sched", kFleetSchedNames, def.fleet.scheduler,
                    {"affinity"});
  expect_documented(rows, "--engine", kEngineNames, def.engine.kind,
                    {"sequential", "parallel"});
}

}  // namespace
}  // namespace uvmsim
