// The name tables (common/names.hpp): every table spells each value of its
// enum exactly once, in declaration order, and parses no other spelling,
// including the near-miss ones listed per table.
#include "common/names.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>

#include "common/config.hpp"
#include "fleet/fleet_config.hpp"
#include "tenancy/tenant.hpp"

namespace uvmsim {
namespace {

/// `table` has one row per enumerator up to `last`, row i holding the i-th
/// value under a name no other row has; both lookups round-trip, choices()
/// joins the names in row order, and the `removed` spellings parse to
/// nothing.
template <class E, std::size_t N>
void expect_spelled_once(const NameTable<E, N>& table, E last,
                         const std::string& choices,
                         std::initializer_list<std::string_view> removed = {}) {
  EXPECT_EQ(static_cast<std::size_t>(last) + 1, N) << choices;
  for (std::size_t i = 0; i < N; ++i) {
    const NameRow<E>& row = table.rows[i];
    SCOPED_TRACE(std::string(row.name));
    EXPECT_EQ(static_cast<std::size_t>(row.value), i);
    for (std::size_t j = 0; j < i; ++j) EXPECT_NE(table.rows[j].name, row.name);
    EXPECT_EQ(table.value(row.name), row.value);
    EXPECT_EQ(table.name(row.value), row.name);
  }
  EXPECT_EQ(table.choices(), choices);
  EXPECT_EQ(table.value(""), std::nullopt);
  EXPECT_EQ(table.value("bogus"), std::nullopt);
  for (const std::string_view alias : removed)
    EXPECT_EQ(table.value(alias), std::nullopt) << alias;
}

TEST(Names, EveryTableSpellsEachValueOnce) {
  expect_spelled_once(kFabricNames, FabricKind::kSwitch, "pcie | ring | switch",
                      {"nvswitch"});
  expect_spelled_once(kPlacementNames, PlacementKind::kAffinity,
                      "first-touch | round-robin | affinity");
  expect_spelled_once(kFaultBackendNames, FaultBackendKind::kGpuDriven,
                      "host | gpu-driven", {"host-driver", "gpu", "gpuvm"});
  expect_spelled_once(kEngineNames, EngineKind::kSharded, "seq | sharded",
                      {"sequential", "parallel"});
  expect_spelled_once(kDeletionNames, DeletionScheme::kScheme2, "scheme1 | scheme2");
  expect_spelled_once(kTenantModeNames, TenantMode::kQuota,
                      "shared | partitioned | quota");
  expect_spelled_once(kEvictionScopeNames, EvictionScope::kSelf, "global | self");
  expect_spelled_once(kAdmissionNames, AdmissionKind::kQuota,
                      "always | headroom | quota");
  expect_spelled_once(kFleetSchedNames, FleetSchedKind::kPatternAffinity,
                      "first-fit | least-loaded | pattern-affinity", {"affinity"});
}

}  // namespace
}  // namespace uvmsim
