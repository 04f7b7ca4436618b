// Minimal dependency-free command-line option parser for the uvmsim tools.
// Supports `--name value`, `--name=value`, and boolean `--flag` options,
// with generated --help text.
#pragma once

#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace uvmsim {

class CliParser {
 public:
  explicit CliParser(std::string program_description);

  /// Register a value option (e.g. --workload NW). `def` is the default
  /// shown in help and returned when absent.
  void add_option(const std::string& name, const std::string& help,
                  const std::string& def = "");
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
  /// The value run through `parser`, a name -> std::optional<T> function
  /// such as parse_engine_kind. Throws std::invalid_argument naming the
  /// option when `parser` returns nullopt.
  template <class Parser>
  [[nodiscard]] auto get_parsed(const std::string& name, Parser parser) const {
    const std::string value = get(name);
    if (const auto parsed = parser(value)) return *parsed;
    throw std::invalid_argument("unknown --" + name + " value: " + value);
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

}  // namespace uvmsim
