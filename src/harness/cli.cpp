#include "harness/cli.hpp"

#include <charconv>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "harness/version.hpp"

namespace uvmsim {

namespace {

/// Parse all of `text` with std::from_chars; NaN and values outside
/// [min, max] are rejected like non-numbers.
template <class T>
T parse_number(const std::string& what, const std::string& text, T min, T max,
               const char* kind) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc{} && ptr == end && value >= min && value <= max) return value;
  std::ostringstream msg;
  msg << what << ": expected " << kind;
  const bool bounded_below = min != std::numeric_limits<T>::lowest();
  if (bounded_below) msg << " >= " << min;
  if (max != std::numeric_limits<T>::max())
    msg << (bounded_below ? " and" : "") << " <= " << max;
  msg << ", got '" << text << "'";
  throw std::invalid_argument(msg.str());
}

}  // namespace

double parse_double(const std::string& what, const std::string& text, double min,
                    double max) {
  return parse_number(what, text, min, max, "a number");
}

CliParser::CliParser(std::string program_description)
    : description_(std::move(program_description)) {}

void CliParser::add_option(const std::string& name, const std::string& help,
                           const std::string& def) {
  order_.push_back(name);
  opts_[name] = Option{help, def, def, /*is_flag=*/false, /*set=*/false};
}

void CliParser::add_flag(const std::string& name, const std::string& help) {
  order_.push_back(name);
  opts_[name] = Option{help, "", "", /*is_flag=*/true, /*set=*/false};
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << help();
      return false;
    }
    if (arg == "--version") {
      std::cout << uvmsim_version_string() << "\n";
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      error_ = "unexpected positional argument: " + arg;
      std::cerr << error_ << "\n" << help();
      return false;
    }
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    auto it = opts_.find(arg);
    if (it == opts_.end()) {
      error_ = "unknown option: --" + arg;
      std::cerr << error_ << "\n" << help();
      return false;
    }
    Option& opt = it->second;
    if (opt.is_flag) {
      if (has_value) {
        error_ = "flag --" + arg + " does not take a value";
        std::cerr << error_ << "\n";
        return false;
      }
      opt.set = true;
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) {
        error_ = "option --" + arg + " requires a value";
        std::cerr << error_ << "\n";
        return false;
      }
      value = argv[++i];
    }
    opt.value = value;
    opt.set = true;
  }
  return true;
}

std::string CliParser::get(const std::string& name) const {
  auto it = opts_.find(name);
  if (it == opts_.end()) throw std::logic_error("unregistered option: " + name);
  return it->second.value;
}

double CliParser::get_double(const std::string& name, double min, double max) const {
  return parse_double("--" + name, get(name), min, max);
}

long long CliParser::get_int(const std::string& name, long long min,
                             long long max) const {
  return parse_number("--" + name, get(name), min, max, "an integer");
}

u32 CliParser::get_u32(const std::string& name, u32 min) const {
  return static_cast<u32>(get_int(name, min, std::numeric_limits<u32>::max()));
}

template <class T>
std::vector<T> CliParser::get_list(const std::string& name, T min) const {
  std::vector<T> out;
  for (const std::string& item : split_list(get(name)))
    out.push_back(parse_number("--" + name, item, min, std::numeric_limits<T>::max(),
                               std::is_integral_v<T> ? "an integer" : "a number"));
  return out;
}
template std::vector<double> CliParser::get_list(const std::string&, double) const;
template std::vector<u32> CliParser::get_list(const std::string&, u32) const;

bool CliParser::get_flag(const std::string& name) const {
  auto it = opts_.find(name);
  if (it == opts_.end()) throw std::logic_error("unregistered flag: " + name);
  return it->second.set;
}

bool CliParser::was_set(const std::string& name) const {
  auto it = opts_.find(name);
  return it != opts_.end() && it->second.set;
}

std::string CliParser::help() const {
  std::ostringstream os;
  os << description_ << "\n\noptions:\n";
  for (const auto& name : order_) {
    const Option& o = opts_.at(name);
    os << "  --" << name;
    if (!o.is_flag) {
      os << " <value>";
      if (!o.def.empty()) os << " (default: " << o.def << ")";
    }
    os << "\n      " << o.help << "\n";
  }
  os << "  --help\n      show this message\n";
  os << "  --version\n      print build identification and exit\n";
  return os.str();
}

std::vector<std::string> split_list(const std::string& s, char sep) {
  std::vector<std::string> out(1);
  for (const char c : s) {
    if (c == sep)
      out.emplace_back();
    else if (c != ' ')
      out.back() += c;
  }
  std::erase(out, std::string{});
  return out;
}

std::vector<ExperimentSpec> tenant_specs(const CliParser& cli) {
  std::vector<TenantMode> modes;
  for (const std::string& name : split_list(cli.get("tenant-modes")))
    modes.push_back(parse_choice("--tenant-modes", name, kTenantModeNames));
  std::vector<ExperimentSpec> specs;
  for (const std::string& group : split_list(cli.get("tenants"), ';'))
    for (const TenantMode mode : modes) {
      ExperimentSpec s;
      s.workload = group;
      s.label = kTenantModeNames.name(mode);
      s.tenants = split_list(group, '+');
      s.tenant_mode = mode;
      specs.push_back(std::move(s));
    }
  return specs;
}

}  // namespace uvmsim
