// Minimal dependency-free command-line option parser for the uvmsim tools.
// Supports `--name value`, `--name=value`, and boolean `--flag` options,
// with generated --help text.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

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
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] long long get_int(const std::string& name) const;
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

/// Split a list-valued option ("NW,BFS", "NW+BFS;MVT+SRD") on `sep`,
/// dropping spaces and empty items.
[[nodiscard]] std::vector<std::string> split_list(const std::string& s,
                                                  char sep = ',');

}  // namespace uvmsim
