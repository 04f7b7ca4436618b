// Fairness metrics for multi-tenant runs (docs/multitenancy.md).
//
// Per-tenant slowdown is finish_cycle under sharing divided by the same
// workload's solo finish (same per-tenant SM count, same oversubscription
// rate — so the solo run models the tenant's fair static share and the
// slowdown isolates *memory interference*, not compute partitioning).
// Jain's fairness index is computed over the normalised progress rates
// x_i = 1/slowdown_i:  J = (Σx)² / (n·Σx²) ∈ (0, 1], 1 = perfectly fair.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/run_result.hpp"

namespace uvmsim {

/// Jain's fairness index over any positive metric vector.
///
/// Degenerate inputs have defined results (regression-tested, so fleet
/// windows and empty tenant sets can never emit NaN/Inf into JSON):
///   - empty vector          -> 0.0  ("no tenants" is reported as 0, which
///                                    is outside J's (0, 1] range)
///   - all-zero vector       -> 0.0  (no tenant made progress; 0/0 guarded)
///   - single element > 0    -> 1.0  (one tenant is trivially fair)
///   - negative entries are squared like any other value; callers pass
///     progress rates (1/slowdown), which are non-negative by construction.
[[nodiscard]] inline double jain_index(const std::vector<double>& x) {
  if (x.empty()) return 0.0;
  // J is scale-invariant; normalising by the largest magnitude keeps the
  // squared terms finite (1e300-class rates would otherwise overflow to
  // Inf) and non-zero (1e-300-class rates would underflow to 0).
  double scale = 0.0;
  for (const double v : x) scale = std::max(scale, std::abs(v));
  if (scale <= 0.0) return 0.0;
  double sum = 0.0, sum_sq = 0.0;
  for (const double v : x) {
    const double s = v / scale;
    sum += s;
    sum_sq += s * s;
  }
  if (sum_sq <= 0.0) return 0.0;
  return sum * sum / (static_cast<double>(x.size()) * sum_sq);
}

/// Fill in slowdown_vs_solo per tenant (multi-tenant finish / solo finish)
/// and the run-level Jain index over progress rates 1/slowdown. Tenants
/// whose solo cycle count is zero (or missing) keep slowdown 0 and are
/// excluded from the index.
inline void apply_solo_baselines(RunResult& r,
                                 const std::vector<Cycle>& solo_cycles) {
  std::vector<double> rates;
  rates.reserve(r.tenants.size());
  for (std::size_t i = 0; i < r.tenants.size(); ++i) {
    TenantRunResult& t = r.tenants[i];
    if (i >= solo_cycles.size() || solo_cycles[i] == 0 || t.finish_cycle == 0)
      continue;
    t.slowdown_vs_solo = static_cast<double>(t.finish_cycle) /
                         static_cast<double>(solo_cycles[i]);
    if (t.slowdown_vs_solo > 0.0) rates.push_back(1.0 / t.slowdown_vs_solo);
  }
  r.jain_fairness = jain_index(rates);
}

}  // namespace uvmsim
