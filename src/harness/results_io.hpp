// Result export for plotting: CSVs, JSON (one object per experiment) and
// `uvmsim --csv`. Each column is defined once, in its slice's field list.
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

/// JSON array of result objects, as `uvmsim_sweep --json` writes them;
/// strings are escaped, so arbitrary labels are safe. Each object holds the
/// run's columns and simulator counters, plus a tenants block for a tenant
/// run and the clamped-event count when an event was clamped. The sweep
/// runs no fabric, fleet, large-page, GPU-driven-backend or sharded spec,
/// so no block of theirs is written.
void write_json(std::ostream& os, const std::vector<LabelledResult>& results);

/// Per-tenant CSV: one row per (experiment, tenant). Single-tenant results
/// contribute no rows. Column order matches tenant_csv_header().
[[nodiscard]] std::string tenant_csv_header();
void write_tenant_csv(std::ostream& os,
                      const std::vector<LabelledResult>& results);

/// Fleet CSV: one row of SLA aggregates per fleet experiment; other results
/// contribute no rows. Column order matches fleet_csv_header().
[[nodiscard]] std::string fleet_csv_header();
void write_fleet_csv(std::ostream& os,
                     const std::vector<LabelledResult>& results);

/// `uvmsim --csv`: a fleet run's SLA aggregates, or else the run's totals
/// (plus the GPU-driven backend's counters), then a table of its tenants,
/// then tables of its devices and links; each table has its own header.
void write_run_csv(std::ostream& os, const RunResult& r);

/// File-path conveniences; throw std::runtime_error on I/O failure.
void save_csv(const std::string& path, const std::vector<LabelledResult>& results);
void save_json(const std::string& path, const std::vector<LabelledResult>& results);
void save_tenant_csv(const std::string& path,
                     const std::vector<LabelledResult>& results);

}  // namespace uvmsim
