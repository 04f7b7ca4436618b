// The 23 benchmarks of Table II, as synthetic pattern-family instances, plus
// the BFR and MLT extension workloads. Footprints are the paper's, scaled by
// 1/4 (floor 4 MB) to keep simulation turnaround practical; DESIGN.md §1
// documents the substitution.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "workloads/workload.hpp"

namespace uvmsim {

struct BenchmarkInfo {
  using Factory = std::function<std::unique_ptr<Workload>(
      std::string name, std::string abbr, u64 pages)>;

  std::string abbr;   ///< paper abbreviation (HOT, LEU, ..., HYB)
  std::string name;   ///< full benchmark name
  std::string suite;  ///< Rodinia / Parboil / Polybench
  double paper_mb;    ///< footprint reported in Table II
  PatternType type;
  Factory make;       ///< builds the workload from name, abbr and scaled footprint
};

/// Table II, in paper order. The extension workloads (BFR, MLT) are not in
/// it, so the paper-figure geomeans keep their 23-workload base.
[[nodiscard]] const std::vector<BenchmarkInfo>& benchmark_table();

/// Instantiate one benchmark by abbreviation (e.g. "NW", "B+T"), Table II
/// or extension. Throws std::invalid_argument for unknown abbreviations.
[[nodiscard]] std::unique_ptr<Workload> make_benchmark(std::string_view abbr);

/// All abbreviations in Table II order.
[[nodiscard]] std::vector<std::string> benchmark_abbrs();

/// Scaled footprint in pages for a Table II entry.
[[nodiscard]] u64 scaled_pages(double paper_mb);

}  // namespace uvmsim
