// Sweep-result export: flat CSV (one row per experiment, stable column
// order) and JSON (one object per experiment) for downstream plotting.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "harness/experiment.hpp"

namespace uvmsim {

/// The CSV header row, matching write_csv's column order.
[[nodiscard]] std::string results_csv_header();

/// One CSV row for a result (no trailing newline).
[[nodiscard]] std::string to_csv_row(const LabelledResult& r);

/// Full CSV document (header + rows).
void write_csv(std::ostream& os, const std::vector<LabelledResult>& results);

/// JSON array of result objects. Only simulator-generated strings are
/// emitted (workload abbreviations, policy names), but they are escaped
/// anyway so arbitrary labels are safe. Multi-tenant results additionally
/// carry "tenant_mode", "jain_fairness" and a "tenants" array; those keys
/// are omitted entirely for single-tenant results, keeping their output
/// byte-identical to earlier versions.
void write_json(std::ostream& os, const std::vector<LabelledResult>& results);

/// Per-tenant CSV: one row per (experiment, tenant). Single-tenant results
/// contribute no rows. Column order matches tenant_csv_header().
[[nodiscard]] std::string tenant_csv_header();
void write_tenant_csv(std::ostream& os,
                      const std::vector<LabelledResult>& results);

/// Fleet CSV: one row per fleet experiment carrying the SLA aggregates
/// (goodput, rejection, queue wait, slowdown percentiles, fairness).
/// Non-fleet results contribute no rows. Column order matches
/// fleet_csv_header().
[[nodiscard]] std::string fleet_csv_header();
void write_fleet_csv(std::ostream& os,
                     const std::vector<LabelledResult>& results);

/// File-path conveniences; throw std::runtime_error on I/O failure.
void save_csv(const std::string& path, const std::vector<LabelledResult>& results);
void save_json(const std::string& path, const std::vector<LabelledResult>& results);
void save_tenant_csv(const std::string& path,
                     const std::vector<LabelledResult>& results);

}  // namespace uvmsim
