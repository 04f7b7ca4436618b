// Text-table / CSV formatting and the summary statistics the paper reports
// (geometric-mean speedups per pattern type, etc.).
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"

namespace uvmsim {

/// Geometric mean; empty input yields 1.0. Non-positive samples are skipped
/// (they indicate an incomplete run, which callers should flag separately).
[[nodiscard]] double geomean(const std::vector<double>& xs);

/// Fixed-width plain-text table, printed the way the paper's tables read.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  /// Right-pads every column to its widest cell; returns the rendered table.
  [[nodiscard]] std::string str() const;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double with `prec` decimals.
[[nodiscard]] std::string fmt(double v, int prec = 2);

}  // namespace uvmsim
