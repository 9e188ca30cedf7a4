#include "obs/trace/collector.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "obs/trace/json_mini.hpp"
#include "util/error.hpp"

namespace gridse::obs::trace {
namespace {

constexpr int kMiddlewarePid = 1000;

std::string fmt_us(double us) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", us);
  return buf;
}

std::string fmt_ms(double ns) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", ns / 1e6);
  return buf;
}

/// Re-serialize a parsed value (used to embed event attrs into slice args;
/// numeric tokens pass through verbatim, so 64-bit ids stay exact).
std::string serialize(const jsonm::Value& v) {
  using Type = jsonm::Value::Type;
  switch (v.type) {
    case Type::kNull:
      return "null";
    case Type::kBool:
      return v.boolean ? "true" : "false";
    case Type::kNumber:
      return v.text;
    case Type::kString:
      return "\"" + jsonm::escape(v.text) + "\"";
    case Type::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        if (i > 0) {
          out += ",";
        }
        out += serialize(v.array[i]);
      }
      return out + "]";
    }
    case Type::kObject:
      break;
  }
  std::string out = "{";
  for (std::size_t i = 0; i < v.object.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += "\"" + jsonm::escape(v.object[i].first) +
           "\":" + serialize(v.object[i].second);
  }
  return out + "}";
}

std::uint64_t field_u64(const jsonm::Value& obj, const std::string& key) {
  const jsonm::Value* v = obj.find(key);
  return v != nullptr ? v->as_u64() : 0;
}

std::string field_str(const jsonm::Value& obj, const std::string& key) {
  const jsonm::Value* v = obj.find(key);
  return v != nullptr && v->is_string() ? v->text : std::string{};
}

/// Subsystem track of a record: the leading name segment, or the leading
/// two for the medici/runtime layers whose second segment distinguishes the
/// component (client vs relay, inproc vs mailbox).
std::string subsystem_of(const std::string& name) {
  const std::size_t first = name.find('.');
  if (first == std::string::npos) {
    return name;
  }
  const std::string head = name.substr(0, first);
  if (head != "medici" && head != "runtime") {
    return head;
  }
  const std::size_t second = name.find('.', first + 1);
  return second == std::string::npos ? name : name.substr(0, second);
}

/// DSE phase label of a span name ("" when it is not a phase span).
std::string phase_of(const std::string& name) {
  if (name.rfind("dse.step1", 0) == 0) {
    return "Step1";
  }
  if (name.rfind("dse.exchange", 0) == 0) {
    return "Exchange";
  }
  if (name.rfind("dse.step2", 0) == 0) {
    return "Step2";
  }
  if (name.rfind("dse.combine", 0) == 0) {
    return "Combine";
  }
  if (name == "dse.run") {
    return "Run";
  }
  return "";
}

int pid_of(int rank) { return rank >= 0 ? rank + 1 : kMiddlewarePid; }

/// Wall-clock nanoseconds of a record, aligned via the rank's anchor pair.
std::int64_t wall_ns(const RankTrace& rank, std::uint64_t steady_ns) {
  const auto rel = static_cast<std::int64_t>(steady_ns) -
                   static_cast<std::int64_t>(rank.anchor_steady_ns);
  return static_cast<std::int64_t>(rank.anchor_wall_ns) + rel;
}

}  // namespace

RankTrace load_rank_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw InvalidInput("cannot open trace file " + path);
  }
  RankTrace out;
  std::string line;
  bool have_header = false;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    const jsonm::Value v = jsonm::parse(line);
    if (!v.is_object()) {
      throw InvalidInput(path + ": non-object trace line");
    }
    if (!have_header) {
      if (field_str(v, "schema") != "gridse-trace/1") {
        throw InvalidInput(path + ": missing gridse-trace/1 schema header");
      }
      const jsonm::Value* rank = v.find("rank");
      out.rank = rank != nullptr ? static_cast<int>(rank->number) : -1;
      out.trace_hi = field_str(v, "trace_hi");
      out.trace_lo = field_str(v, "trace_lo");
      out.anchor_steady_ns = field_u64(v, "anchor_steady_ns");
      out.anchor_wall_ns = field_u64(v, "anchor_wall_ns");
      have_header = true;
      continue;
    }
    CollectedRecord rec;
    rec.kind = field_str(v, "kind");
    rec.name = field_str(v, "name");
    if (rec.kind.empty() || rec.name.empty()) {
      throw InvalidInput(path + ": record line without kind/name");
    }
    rec.tid = static_cast<std::uint32_t>(field_u64(v, "tid"));
    rec.span_id = field_u64(v, "span");
    rec.parent_id = field_u64(v, "parent");
    rec.flow_id = field_u64(v, "flow");
    rec.clock = field_u64(v, "clock");
    rec.ts_ns = field_u64(v, "ts_ns");
    rec.dur_ns = field_u64(v, "dur_ns");
    if (const jsonm::Value* attrs = v.find("attrs"); attrs != nullptr) {
      rec.attrs_json = serialize(*attrs);
    }
    out.records.push_back(std::move(rec));
  }
  if (!have_header) {
    throw InvalidInput(path + ": empty trace file");
  }
  return out;
}

std::string merge_to_chrome_json(const std::vector<RankTrace>& ranks) {
  // Global time base: the earliest aligned wall timestamp, so the merged
  // trace starts near t=0 regardless of process uptimes.
  std::int64_t base = 0;
  bool have_base = false;
  for (const RankTrace& rank : ranks) {
    for (const CollectedRecord& rec : rank.records) {
      const std::int64_t w = wall_ns(rank, rec.ts_ns);
      if (!have_base || w < base) {
        base = w;
        have_base = true;
      }
    }
  }

  // Stable (pid, subsystem, writer-tid) -> output tid assignment; one
  // Perfetto track per subsystem (and per real thread within it).
  std::map<std::pair<int, std::string>, int> track_tid;
  std::map<std::pair<int, std::string>, std::string> track_name;
  std::map<int, int> next_tid;
  const auto track_of = [&](int pid, const std::string& subsystem,
                            std::uint32_t tid) {
    const std::string key = subsystem + "#" + std::to_string(tid);
    const auto it = track_tid.find({pid, key});
    if (it != track_tid.end()) {
      return it->second;
    }
    const int assigned = ++next_tid[pid];
    track_tid[{pid, key}] = assigned;
    track_name[{pid, key}] = subsystem;
    return assigned;
  };

  std::vector<std::string> events;
  for (const RankTrace& rank : ranks) {
    const int pid = pid_of(rank.rank);
    for (const CollectedRecord& rec : rank.records) {
      const std::string subsystem = subsystem_of(rec.name);
      const int tid = track_of(pid, subsystem, rec.tid);
      const double ts_us =
          static_cast<double>(wall_ns(rank, rec.ts_ns) - base) / 1e3;
      const double dur_us = static_cast<double>(rec.dur_ns) / 1e3;
      const std::string pos = ",\"pid\":" + std::to_string(pid) +
                              ",\"tid\":" + std::to_string(tid);
      if (rec.kind == "event") {
        std::string e = "{\"name\":\"" + jsonm::escape(rec.name) +
                        "\",\"ph\":\"i\",\"s\":\"t\",\"cat\":\"" + subsystem +
                        "\",\"ts\":" + fmt_us(ts_us) + pos;
        if (!rec.attrs_json.empty()) {
          e += ",\"args\":" + rec.attrs_json;
        }
        events.push_back(e + "}");
        continue;
      }
      std::string args = "\"span\":" + std::to_string(rec.span_id) +
                         ",\"parent\":" + std::to_string(rec.parent_id) +
                         ",\"clock\":" + std::to_string(rec.clock);
      const std::string phase = phase_of(rec.name);
      if (!phase.empty()) {
        args += ",\"phase\":\"" + phase + "\"";
      }
      events.push_back("{\"name\":\"" + jsonm::escape(rec.name) +
                       "\",\"ph\":\"X\",\"cat\":\"" + subsystem +
                       "\",\"ts\":" + fmt_us(ts_us) +
                       ",\"dur\":" + fmt_us(dur_us) + pos + ",\"args\":{" +
                       args + "}}");
      if (rec.flow_id != 0) {
        // Flow triplet: s at the send, t at every relay hop, f (binding
        // enclosing, bp:"e") at the consume — Perfetto draws the arrows.
        const std::string id = ",\"id\":" + std::to_string(rec.flow_id);
        const std::string flow_common =
            "{\"name\":\"exchange\",\"cat\":\"exchange\"" + id;
        if (rec.kind == "send") {
          events.push_back(flow_common + ",\"ph\":\"s\",\"ts\":" +
                           fmt_us(ts_us) + pos + "}");
        } else if (rec.kind == "relay") {
          events.push_back(flow_common + ",\"ph\":\"t\",\"ts\":" +
                           fmt_us(ts_us + dur_us) + pos + "}");
        } else if (rec.kind == "consume") {
          events.push_back(flow_common + ",\"ph\":\"f\",\"bp\":\"e\",\"ts\":" +
                           fmt_us(ts_us + dur_us) + pos + "}");
        }
      }
    }
  }

  // Metadata: process and track names, ranks first, middleware last.
  std::vector<std::string> metadata;
  std::set<int> pids;
  for (const RankTrace& rank : ranks) {
    const int pid = pid_of(rank.rank);
    if (!pids.insert(pid).second) {
      continue;
    }
    const std::string pname = rank.rank >= 0
                                  ? "rank " + std::to_string(rank.rank)
                                  : "middleware";
    metadata.push_back(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
        std::to_string(pid) + ",\"args\":{\"name\":\"" + pname + "\"}}");
    metadata.push_back(
        "{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":" +
        std::to_string(pid) + ",\"args\":{\"sort_index\":" +
        std::to_string(pid) + "}}");
  }
  for (const auto& [key, tid] : track_tid) {
    metadata.push_back(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
        std::to_string(key.first) + ",\"tid\":" + std::to_string(tid) +
        ",\"args\":{\"name\":\"" + jsonm::escape(track_name[key]) + "\"}}");
  }

  std::string trace_id;
  for (const RankTrace& rank : ranks) {
    if (!rank.trace_hi.empty()) {
      trace_id = rank.trace_hi + rank.trace_lo;
      break;
    }
  }

  std::string out = "{\n\"displayTimeUnit\":\"ms\",\n";
  out += "\"otherData\":{\"schema\":\"gridse-perfetto/1\"";
  if (!trace_id.empty()) {
    out += ",\"trace_id\":\"" + jsonm::escape(trace_id) + "\"";
  }
  out += "},\n\"traceEvents\":[";
  bool first = true;
  for (const auto* list : {&metadata, &events}) {
    for (const std::string& e : *list) {
      out += first ? "\n" : ",\n";
      out += e;
      first = false;
    }
  }
  out += "\n]}\n";
  return out;
}

std::vector<std::string> validate_chrome_trace(std::string_view json_text) {
  std::vector<std::string> problems;
  jsonm::Value doc;
  try {
    doc = jsonm::parse(json_text);
  } catch (const InvalidInput& e) {
    problems.emplace_back(e.what());
    return problems;
  }
  if (!doc.is_object()) {
    problems.emplace_back("top-level value is not an object");
    return problems;
  }
  const jsonm::Value* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    problems.emplace_back("missing traceEvents array");
    return problems;
  }
  std::set<std::string> flow_starts;
  std::vector<std::pair<std::size_t, std::string>> flow_refs;
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const jsonm::Value& e = events->array[i];
    const std::string at = "traceEvents[" + std::to_string(i) + "]";
    if (!e.is_object()) {
      problems.push_back(at + ": not an object");
      continue;
    }
    const std::string ph = field_str(e, "ph");
    if (ph.empty()) {
      problems.push_back(at + ": missing ph");
      continue;
    }
    if (ph == "M") {
      continue;  // metadata needs no timestamp
    }
    const jsonm::Value* ts = e.find("ts");
    if (ts == nullptr || !ts->is_number()) {
      problems.push_back(at + ": missing numeric ts");
    }
    for (const char* key : {"pid", "tid"}) {
      const jsonm::Value* v = e.find(key);
      if (v == nullptr || !v->is_number()) {
        problems.push_back(at + ": missing numeric " + std::string(key));
      }
    }
    if (ph == "X") {
      if (field_str(e, "name").empty()) {
        problems.push_back(at + ": slice without a name");
      }
      const jsonm::Value* dur = e.find("dur");
      if (dur == nullptr || !dur->is_number()) {
        problems.push_back(at + ": slice without numeric dur");
      } else if (dur->number < 0) {
        problems.push_back(at + ": negative dur");
      }
    } else if (ph == "s" || ph == "t" || ph == "f") {
      const jsonm::Value* id = e.find("id");
      if (id == nullptr || (!id->is_number() && !id->is_string())) {
        problems.push_back(at + ": flow event without id");
        continue;
      }
      const std::string& key = id->text;  // raw token for numbers too
      if (ph == "s") {
        flow_starts.insert(key);
      } else {
        flow_refs.emplace_back(i, key);
      }
    } else if (ph != "i") {
      problems.push_back(at + ": unexpected ph '" + ph + "'");
    }
  }
  for (const auto& [index, id] : flow_refs) {
    if (flow_starts.count(id) == 0) {
      problems.push_back("traceEvents[" + std::to_string(index) +
                         "]: flow id " + id + " has no start event");
    }
  }
  return problems;
}

std::string critical_path_summary(const std::vector<RankTrace>& ranks) {
  const std::vector<std::string> phases = {"Step1", "Exchange", "Step2",
                                           "Combine"};
  std::map<std::string, std::map<int, std::uint64_t>> phase_ns;
  struct WaitStats {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
  };
  std::map<int, WaitStats> waits;
  std::set<std::uint64_t> sends;
  std::set<std::uint64_t> consumes;
  std::uint64_t relays = 0;
  for (const RankTrace& rank : ranks) {
    for (const CollectedRecord& rec : rank.records) {
      if (rec.kind == "span") {
        const std::string phase = phase_of(rec.name);
        if (!phase.empty() && phase != "Run") {
          phase_ns[phase][rank.rank] += rec.dur_ns;
        }
      } else if (rec.kind == "send") {
        sends.insert(rec.flow_id);
      } else if (rec.kind == "relay") {
        ++relays;
      } else if (rec.kind == "consume") {
        consumes.insert(rec.flow_id);
        WaitStats& w = waits[rank.rank];
        ++w.count;
        w.total_ns += rec.dur_ns;
        w.max_ns = std::max(w.max_ns, rec.dur_ns);
      }
    }
  }

  std::ostringstream out;
  out << "critical path (summed span time per phase, slowest rank last):\n";
  for (const std::string& phase : phases) {
    const auto it = phase_ns.find(phase);
    if (it == phase_ns.end()) {
      continue;
    }
    int slowest = -1;
    std::uint64_t slowest_ns = 0;
    out << "  " << phase << ":";
    for (const auto& [rank, ns] : it->second) {
      out << " rank" << rank << "=" << fmt_ms(static_cast<double>(ns))
          << "ms";
      if (ns >= slowest_ns) {
        slowest_ns = ns;
        slowest = rank;
      }
    }
    out << "  -> slowest rank " << slowest << " ("
        << fmt_ms(static_cast<double>(slowest_ns)) << " ms)\n";
  }
  out << "exchange fan-in waits (receive-side blocking):\n";
  for (const auto& [rank, w] : waits) {
    out << "  rank " << rank << ": " << w.count << " messages, total "
        << fmt_ms(static_cast<double>(w.total_ns)) << " ms, max "
        << fmt_ms(static_cast<double>(w.max_ns)) << " ms\n";
  }
  std::uint64_t unmatched = 0;
  for (const std::uint64_t id : consumes) {
    if (sends.count(id) == 0) {
      ++unmatched;
    }
  }
  out << "flows: " << sends.size() << " sends, " << consumes.size()
      << " consumed, " << relays << " relay hops, " << unmatched
      << " consumes without a recorded send\n";
  return out.str();
}

}  // namespace gridse::obs::trace
