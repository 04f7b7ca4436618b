// Minimal command-line option parser for the uvmsim tools.
// Supports `--name value`, `--name=value`, and boolean `--flag` options,
// with generated --help text, plus the tenant grid uvmsim_sweep and
// uvmsim_report share.
#pragma once

#include <cstddef>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/names.hpp"
#include "common/types.hpp"
#include "harness/experiment.hpp"

namespace uvmsim {

/// The value `text` names in `table`. Throws std::invalid_argument naming
/// `what` and listing the valid names otherwise.
template <class E, std::size_t N>
[[nodiscard]] E parse_choice(const std::string& what, const std::string& text,
                             const NameTable<E, N>& table) {
  if (const auto value = table.value(text)) return *value;
  throw std::invalid_argument(what + ": expected " + table.choices() + ", got '" +
                              text + "'");
}

class CliParser {
 public:
  explicit CliParser(std::string program_description);

  /// Register a value option (e.g. --workload NW). `def` is the default
  /// shown in help and returned when absent.
  void add_option(const std::string& name, const std::string& help,
                  const std::string& def = "");
  /// Register a value option taking one of `table`'s names: its help reads
  /// "<help>: a | b | c" and its default is the name of `def`.
  template <class E, std::size_t N>
  void add_choice(const std::string& name, const std::string& help,
                  const NameTable<E, N>& table, E def) {
    add_option(name, help + ": " + table.choices(), std::string(table.name(def)));
  }
  /// Register a boolean flag (present = true).
  void add_flag(const std::string& name, const std::string& help);

  /// Parse argv. Returns false (after printing a message) on --help or on a
  /// malformed/unknown argument.
  [[nodiscard]] bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::string get(const std::string& name) const;
  /// Numeric values. Throw std::invalid_argument naming the option unless
  /// the whole value is a number in [min, max].
  [[nodiscard]] double get_double(
      const std::string& name, double min = std::numeric_limits<double>::lowest(),
      double max = std::numeric_limits<double>::max()) const;
  [[nodiscard]] long long get_int(
      const std::string& name, long long min = std::numeric_limits<long long>::min(),
      long long max = std::numeric_limits<long long>::max()) const;
  /// get_int over [min, UINT32_MAX].
  [[nodiscard]] u32 get_u32(const std::string& name, u32 min = 0) const;
  /// A comma-separated list (split_list) of numbers >= `min`, double or
  /// u32, each checked like the whole value of get_double or get_u32.
  template <class T>
  [[nodiscard]] std::vector<T> get_list(const std::string& name, T min) const;
  /// The value looked up in `table`; parse_choice's errors.
  template <class E, std::size_t N>
  [[nodiscard]] E get_parsed(const std::string& name,
                             const NameTable<E, N>& table) const {
    return parse_choice("--" + name, get(name), table);
  }
  [[nodiscard]] bool get_flag(const std::string& name) const;
  [[nodiscard]] bool was_set(const std::string& name) const;

  [[nodiscard]] std::string help() const;
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  struct Option {
    std::string help;
    std::string def;
    std::string value;
    bool is_flag = false;
    bool set = false;
  };

  std::string description_;
  std::vector<std::string> order_;  ///< registration order, for help output
  std::map<std::string, Option> opts_;
  std::string error_;
};

/// Parse all of `text` as a number in [min, max]. Throws
/// std::invalid_argument naming `what` otherwise.
[[nodiscard]] double parse_double(const std::string& what, const std::string& text,
                                  double min = std::numeric_limits<double>::lowest(),
                                  double max = std::numeric_limits<double>::max());

/// Split a list-valued option ("NW,BFS", "NW+BFS;MVT+SRD") on `sep`,
/// dropping spaces and empty items.
[[nodiscard]] std::vector<std::string> split_list(const std::string& s,
                                                  char sep = ',');

/// The tenant grid of uvmsim_sweep and uvmsim_report: every ';'-separated
/// group of '+'-joined workloads in --tenants ("NW+BFS;MVT+SRD") crossed
/// with every --tenant-modes name, group-major. Each spec sets `workload`
/// to the group as written, `tenants`, `tenant_mode`, and `label` to the
/// mode's name. A one-workload group is left for run_experiment to refuse.
[[nodiscard]] std::vector<ExperimentSpec> tenant_specs(const CliParser& cli);

}  // namespace uvmsim
