#include "fault/fault.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <tuple>
#include <utility>

#include "analysis/debug_sync.hpp"
#include "obs/obs.hpp"
#include "obs/trace/json_mini.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace gridse::fault {
namespace {

/// splitmix64: the decision function. Statistically solid, trivially
/// reproducible, and stateless — the determinism guarantee rests on it.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t decision_hash(std::uint64_t seed, std::size_t rule_index,
                            int source, int tag, std::uint64_t hit) {
  std::uint64_t h = mix64(seed ^ 0xf4017a11ULL);
  h = mix64(h ^ static_cast<std::uint64_t>(rule_index));
  h = mix64(h ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(source))
                 << 32 |
                 static_cast<std::uint32_t>(tag)));
  return mix64(h ^ hit);
}

/// Uniform double in [0, 1) from the top 53 bits.
double to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool site_matches(const std::string& pattern, std::string_view site) {
  if (!pattern.empty() && pattern.back() == '*') {
    return site.substr(0, pattern.size() - 1) ==
           std::string_view(pattern).substr(0, pattern.size() - 1);
  }
  return site == pattern;
}

const char* action_name(ActionKind kind) {
  switch (kind) {
    case ActionKind::kNone: return "none";
    case ActionKind::kDrop: return "drop";
    case ActionKind::kDelay: return "delay";
    case ActionKind::kError: return "error";
    case ActionKind::kTruncate: return "truncate";
    case ActionKind::kBitFlip: return "bitflip";
  }
  return "?";
}

ActionKind action_from_name(const std::string& name) {
  if (name == "drop") return ActionKind::kDrop;
  if (name == "delay") return ActionKind::kDelay;
  if (name == "error") return ActionKind::kError;
  if (name == "truncate") return ActionKind::kTruncate;
  if (name == "bitflip") return ActionKind::kBitFlip;
  throw InvalidInput("fault plan: unknown action \"" + name + "\"");
}

struct RuleState {
  /// Hit index per (source, tag) stream: the position of the next hit.
  std::map<std::pair<int, int>, std::uint64_t> stream_hits;
  /// Injections fired by this rule (for max_injections).
  std::uint64_t injected = 0;
};

struct PlanState {
  FaultPlan plan;
  std::vector<RuleState> rules;
  std::vector<InjectionRecord> log;
};

analysis::Mutex& state_mutex() {
  static analysis::Mutex m{"fault::state_mutex"};
  return m;
}

/// Guarded by state_mutex(); the atomic flag is the hot-path gate so an
/// inactive layer costs one relaxed load per hook hit.
std::unique_ptr<PlanState>& state_locked() GRIDSE_REQUIRES(state_mutex()) {
  static std::unique_ptr<PlanState> state;
  return state;
}

std::atomic<bool> g_active{false};
std::atomic<bool> g_env_checked{false};

void note_injection(const char* site, ActionKind kind) {
#if GRIDSE_OBS
  // Dynamic per-site names resolve through the registry map; an injection
  // is off the fast path by definition.
  auto& registry = obs::MetricsRegistry::global();
  registry.counter(std::string("fault.injected.") + site).add(1);
  registry.counter("fault.injected.total").add(1);
#endif
  OBS_EVENT("fault.injected", OBS_ATTR("site", site),
            OBS_ATTR("action", action_name(kind)));
}

/// The decision core: everything except applying delay/error, which must
/// happen outside the lock.
Action decide(const char* site, int source, int tag,
              std::chrono::milliseconds& delay_out) {
  analysis::LockGuard lock(state_mutex());
  PlanState* state = state_locked().get();
  if (state == nullptr) {
    return {};
  }
  for (std::size_t i = 0; i < state->plan.rules.size(); ++i) {
    const FaultRule& rule = state->plan.rules[i];
    if (!site_matches(rule.site, site)) continue;
    if (rule.source != kAnyValue && rule.source != source) continue;
    if (rule.tag_min != kAnyValue && tag < rule.tag_min) continue;
    if (rule.tag_max != kAnyValue && tag > rule.tag_max) continue;
    RuleState& rs = state->rules[i];
    const std::uint64_t hit = rs.stream_hits[{source, tag}]++;
    if (hit < static_cast<std::uint64_t>(rule.after)) continue;
    if (rule.max_injections >= 0 &&
        rs.injected >= static_cast<std::uint64_t>(rule.max_injections)) {
      continue;
    }
    const std::uint64_t h =
        decision_hash(state->plan.seed, i, source, tag, hit);
    if (to_unit(h) >= rule.probability) continue;
    ++rs.injected;
    state->log.push_back({site, source, tag, hit, rule.action});
    if (rule.action == ActionKind::kDelay) {
      delay_out = rule.delay;
    }
    return {rule.action, h};
  }
  return {};
}

}  // namespace

void install(FaultPlan plan) {
  auto state = std::make_unique<PlanState>();
  state->rules.resize(plan.rules.size());
  state->plan = std::move(plan);
  analysis::LockGuard lock(state_mutex());
  state_locked() = std::move(state);
  g_env_checked.store(true, std::memory_order_relaxed);
  g_active.store(true, std::memory_order_release);
}

void clear() {
  analysis::LockGuard lock(state_mutex());
  g_active.store(false, std::memory_order_release);
  g_env_checked.store(true, std::memory_order_relaxed);
  state_locked().reset();
}

bool active() { return g_active.load(std::memory_order_acquire); }

bool load_env_plan() {
  const char* env = std::getenv("GRIDSE_FAULT_PLAN");
  if (env == nullptr || *env == '\0') {
    return false;
  }
  std::string json(env);
  if (json.front() != '{') {
    std::ifstream in(json, std::ios::binary);
    if (!in) {
      throw InvalidInput("GRIDSE_FAULT_PLAN: cannot read plan file " + json);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    json = buffer.str();
  }
  install(FaultPlan::parse(json));
  return true;
}

std::vector<InjectionRecord> injection_log() {
  std::vector<InjectionRecord> log;
  {
    analysis::LockGuard lock(state_mutex());
    if (const PlanState* state = state_locked().get()) {
      log = state->log;
    }
  }
  // Sorted so same-seed runs compare equal independent of the thread
  // interleaving that appended the records.
  std::sort(log.begin(), log.end(),
            [](const InjectionRecord& a, const InjectionRecord& b) {
              return std::tie(a.site, a.source, a.tag, a.stream_hit) <
                     std::tie(b.site, b.source, b.tag, b.stream_hit);
            });
  return log;
}

std::uint64_t injected_count() {
  analysis::LockGuard lock(state_mutex());
  const PlanState* state = state_locked().get();
  return state != nullptr ? state->log.size() : 0;
}

std::string log_to_json() {
  const std::vector<InjectionRecord> log = injection_log();
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < log.size(); ++i) {
    const InjectionRecord& rec = log[i];
    if (i > 0) out << ",";
    out << "{\"site\":\"" << obs::jsonm::escape(rec.site) << "\""
        << ",\"source\":" << rec.source << ",\"tag\":" << rec.tag
        << ",\"hit\":" << rec.stream_hit << ",\"action\":\""
        << action_name(rec.action) << "\"}";
  }
  out << "]";
  return out.str();
}

Action maybe(const char* site, int source, int tag) {
  if (!g_active.load(std::memory_order_acquire)) {
    if (g_env_checked.load(std::memory_order_relaxed) ||
        g_env_checked.exchange(true)) {
      return {};
    }
    if (!load_env_plan()) {
      return {};
    }
  }
  std::chrono::milliseconds delay{0};
  const Action action = decide(site, source, tag, delay);
  switch (action.kind) {
    case ActionKind::kDelay:
      note_injection(site, action.kind);
      std::this_thread::sleep_for(delay);
      return {};
    case ActionKind::kError:
      note_injection(site, action.kind);
      throw CommError(std::string("fault injected: error at ") + site);
    case ActionKind::kNone:
      return {};
    default:
      note_injection(site, action.kind);
      return action;
  }
}

bool inject_drop(const char* site, int source, int tag) {
  const Action action = maybe(site, source, tag);
  // A truncate/bitflip rule matched against a site that can only drop:
  // dropping is the closest honest interpretation.
  return !action.none();
}

void apply_bitflip(std::uint64_t mutation, std::span<std::uint8_t> data) {
  if (data.empty()) {
    return;
  }
  const std::uint64_t bit = mutation % (data.size() * 8);
  data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
}

std::size_t truncate_length(std::uint64_t mutation, std::size_t frame_size) {
  GRIDSE_CHECK_MSG(frame_size >= 2, "cannot truncate a frame under 2 bytes");
  return 1 + static_cast<std::size_t>(mutation % (frame_size - 1));
}

FaultPlan FaultPlan::parse(std::string_view json) {
  const obs::jsonm::Value doc = obs::jsonm::parse(json);
  if (!doc.is_object()) {
    throw InvalidInput("fault plan: top level must be an object");
  }
  // Integer fields are read from the raw numeric token: "2.7", "1e3" or a
  // value outside the target type is rejected, never truncated.
  const auto read_integer = [](const obs::jsonm::Value& v, const char* key,
                               long long fallback, long long min_value,
                               long long max_value) {
    const obs::jsonm::Value* field = v.find(key);
    if (field == nullptr) return fallback;
    const std::string name = std::string("fault plan: \"") + key + "\"";
    if (!field->is_number()) {
      throw InvalidInput(name + " must be a number");
    }
    return parse_integer(name, field->text, "an integer in range", min_value,
                         max_value);
  };
  // An int field cannot spell the kAnyValue (INT_MIN) wildcard explicitly.
  const auto read_int = [&](const obs::jsonm::Value& v, const char* key) {
    return static_cast<int>(read_integer(v, key, kAnyValue, kAnyValue + 1LL,
                                         std::numeric_limits<int>::max()));
  };
  FaultPlan plan;
  plan.seed = static_cast<std::uint64_t>(
      read_integer(doc, "seed", static_cast<long long>(plan.seed), 0,
                   std::numeric_limits<long long>::max()));
  const obs::jsonm::Value* rules = doc.find("rules");
  if (rules == nullptr || !rules->is_array()) {
    throw InvalidInput("fault plan: missing \"rules\" array");
  }
  for (const obs::jsonm::Value& entry : rules->array) {
    if (!entry.is_object()) {
      throw InvalidInput("fault plan: each rule must be an object");
    }
    FaultRule rule;
    const obs::jsonm::Value* site = entry.find("site");
    if (site == nullptr || !site->is_string() || site->text.empty()) {
      throw InvalidInput("fault plan: rule needs a nonempty \"site\"");
    }
    if (std::none_of(kKnownSites.begin(), kKnownSites.end(),
                     [&](std::string_view known) {
                       return site_matches(site->text, known);
                     })) {
      throw InvalidInput("fault plan: unknown site \"" + site->text + "\"");
    }
    rule.site = site->text;
    if (const obs::jsonm::Value* action = entry.find("action")) {
      if (!action->is_string()) {
        throw InvalidInput("fault plan: \"action\" must be a string");
      }
      rule.action = action_from_name(action->text);
    }
    if (const obs::jsonm::Value* p = entry.find("probability")) {
      if (!p->is_number() || p->number < 0.0 || p->number > 1.0) {
        throw InvalidInput("fault plan: \"probability\" must be in [0, 1]");
      }
      rule.probability = p->number;
    }
    rule.source = read_int(entry, "source");
    rule.tag_min = read_int(entry, "tag_min");
    rule.tag_max = read_int(entry, "tag_max");
    if (const int tag = read_int(entry, "tag"); tag != kAnyValue) {
      rule.tag_min = rule.tag_max = tag;
    }
    if (const int after = read_int(entry, "after"); after != kAnyValue) {
      if (after < 0) throw InvalidInput("fault plan: \"after\" must be >= 0");
      rule.after = after;
    }
    if (const int max = read_int(entry, "max"); max != kAnyValue) {
      rule.max_injections = max;
    }
    if (const int ms = read_int(entry, "delay_ms"); ms != kAnyValue) {
      if (ms < 0) throw InvalidInput("fault plan: \"delay_ms\" must be >= 0");
      rule.delay = std::chrono::milliseconds(ms);
    }
    plan.rules.push_back(std::move(rule));
  }
  return plan;
}

}  // namespace gridse::fault
