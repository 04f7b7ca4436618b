#include "obs/trace_sink.hpp"

#include <algorithm>
#include <ostream>
#include <string_view>

namespace uvmsim {

namespace {

void append_field(std::string& out, std::string_view key, u64 value) {
  out += ",\"";
  out += key;
  out += "\":";
  out += std::to_string(value);
}

}  // namespace

std::string to_jsonl(const TraceEvent& e) {
  std::string out;
  out.reserve(96);
  out += "{\"t\":";
  out += std::to_string(e.t);
  out += ",\"ev\":\"";
  out += to_string(e.type);
  out += '"';
  const EventFieldNames names = field_names(e.type);
  if (!names.a.empty()) append_field(out, names.a, e.a);
  if (!names.b.empty()) append_field(out, names.b, e.b);
  if (!names.c.empty()) append_field(out, names.c, e.c);
  // Additive within schema v1: present only in multi-tenant runs, so
  // single-tenant traces remain byte-identical.
  if (e.tenant != kNoTenant) append_field(out, "tenant", e.tenant);
  // Same discipline for multi-GPU: single-GPU traces never carry "dev".
  if (e.dev != kNoTraceDevice) append_field(out, "dev", e.dev);
  out += '}';
  return out;
}

std::string jsonl_header() {
  return "{\"schema\":\"uvmsim-trace\",\"v\":" + std::to_string(kTraceSchemaVersion) + "}";
}

JsonlSink::JsonlSink(std::ostream& os, u32 event_mask) : os_(os), mask_(event_mask) {
  os_ << jsonl_header() << '\n';
}

void JsonlSink::emit(const TraceEvent& e) {
  if ((mask_ & event_bit(e.type)) == 0) return;
  os_ << to_jsonl(e) << '\n';
  ++lines_;
}

void JsonlSink::finish(Cycle) { os_.flush(); }

std::optional<u32> parse_event_mask(std::string_view spec) {
  if (spec.empty() || spec == "all") return kAllEventsMask;
  u32 mask = 0;
  while (!spec.empty()) {
    const std::size_t comma = spec.find(',');
    const std::string_view name = spec.substr(0, comma);
    const auto row = std::find_if(std::begin(kEventTable), std::end(kEventTable),
                                  [name](const EventInfo& e) { return e.name == name; });
    if (row == std::end(kEventTable)) return std::nullopt;
    mask |= 1u << (row - std::begin(kEventTable));
    spec = comma == std::string_view::npos ? std::string_view{} : spec.substr(comma + 1);
  }
  return mask;
}

std::optional<std::size_t> first_divergence(const std::vector<TraceEvent>& a,
                                            const std::vector<TraceEvent>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i)
    if (!(a[i] == b[i])) return i;
  if (a.size() != b.size()) return n;
  return std::nullopt;
}

}  // namespace uvmsim
