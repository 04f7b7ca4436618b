// docs/observability.md documents every trace event: its event table has
// exactly one row per kEventTable entry, naming the event and its payload
// fields in a/b/c order.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>
#include <string_view>

#include "obs/trace_event.hpp"

namespace uvmsim {
namespace {

/// The event table's rows: event name -> fields cell, both unquoted and
/// trimmed ("page`, `chunk" for "| `fault_raised` | `page`, `chunk` | ...").
std::map<std::string, std::string> doc_rows(std::istream& in) {
  std::map<std::string, std::string> rows;
  std::string line;
  while (std::getline(in, line) && line != "| event | fields | emitted when |") {
  }
  std::getline(in, line);  // |---|---|---|
  while (std::getline(in, line) && line.rfind("| `", 0) == 0) {
    const std::size_t name_end = line.find('`', 3);
    const std::size_t cell = line.find('|', name_end);
    const std::size_t cell_end = line.find('|', cell + 1);
    std::string fields = line.substr(cell + 1, cell_end - cell - 1);
    fields = fields.substr(fields.find_first_not_of(' '));
    fields = fields.substr(0, fields.find_last_not_of(' ') + 1);
    rows[line.substr(3, name_end - 3)] = fields;
  }
  return rows;
}

TEST(EventDoc, TableListsEveryEventWithItsFields) {
  std::ifstream in(std::string(UVMSIM_SOURCE_DIR) + "/docs/observability.md");
  ASSERT_TRUE(in) << "cannot read docs/observability.md";
  const auto rows = doc_rows(in);
  EXPECT_EQ(rows.size(), kNumEventTypes) << "rows for events that do not exist?";
  for (const EventInfo& e : kEventTable) {
    const auto it = rows.find(std::string(e.name));
    ASSERT_NE(it, rows.end()) << "no row for " << e.name;
    std::string want;
    for (const std::string_view f : {e.fields.a, e.fields.b, e.fields.c}) {
      if (f.empty()) continue;
      if (!want.empty()) want += ", ";
      want += '`';
      want += f;
      want += '`';
    }
    EXPECT_EQ(it->second, want) << e.name;
  }
}

}  // namespace
}  // namespace uvmsim
