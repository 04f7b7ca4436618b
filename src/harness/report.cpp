#include "harness/report.hpp"

#include <cmath>
#include <iomanip>
#include <sstream>

namespace uvmsim {

double geomean(const std::vector<double>& xs) {
  double log_sum = 0.0;
  std::size_t n = 0;
  for (double x : xs) {
    if (x <= 0.0) continue;
    log_sum += std::log(x);
    ++n;
  }
  return n == 0 ? 1.0 : std::exp(log_sum / static_cast<double>(n));
}

std::string fmt(double v, int prec) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(prec) << v;
  return os.str();
}

TextTable::TextTable(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::str() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  std::ostringstream os;
  const auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c]) + 2) << row[c];
    }
    os << '\n';
  };
  emit(headers_);
  std::string rule;
  for (std::size_t c = 0; c < headers_.size(); ++c)
    rule += std::string(widths[c], '-') + "  ";
  os << rule << '\n';
  for (const auto& row : rows_) emit(row);
  return os.str();
}

}  // namespace uvmsim
