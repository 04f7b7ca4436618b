// Name tables: the one spelling of each value of an enum that a flag
// selects or an output prints. Parsers accept only these names, help
// strings and error messages list them, and writers emit them, so a name
// is written once, in its table, next to its enum.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace uvmsim {

template <class E>
struct NameRow {
  std::string_view name;
  E value;
};

/// One row per value of E, in the enum's declaration order
/// (tests/common/names_test.cpp holds every table to this).
template <class E, std::size_t N>
struct NameTable {
  std::array<NameRow<E>, N> rows;

  /// The name of `v`; "?" for a value without a row.
  [[nodiscard]] constexpr std::string_view name(E v) const noexcept {
    for (const NameRow<E>& r : rows)
      if (r.value == v) return r.name;
    return "?";
  }
  /// The value named `s`, or nullopt when no row has that name.
  [[nodiscard]] constexpr std::optional<E> value(std::string_view s) const noexcept {
    for (const NameRow<E>& r : rows)
      if (r.name == s) return r.value;
    return std::nullopt;
  }
  /// Every name in row order, joined by `sep`: "pcie | ring | switch".
  [[nodiscard]] std::string choices(std::string_view sep = " | ") const {
    std::string out;
    for (const NameRow<E>& r : rows) {
      if (!out.empty()) out += sep;
      out += r.name;
    }
    return out;
  }
};

/// A table sized by its rows: name_table<FabricKind>({{"pcie", ...}, ...}).
template <class E, std::size_t N>
[[nodiscard]] constexpr NameTable<E, N> name_table(const NameRow<E> (&rows)[N]) {
  return {std::to_array(rows)};
}

}  // namespace uvmsim
