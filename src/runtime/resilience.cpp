#include "runtime/resilience.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace gridse::runtime {
namespace {

/// splitmix64, same mixer as the fault layer: jitter must be deterministic
/// so retry schedules reproduce under a fixed seed.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Apply one environment override through `parse` when `name` is set and
/// non-empty.
template <typename Out, typename Parse>
void read_env(const char* name, Out& out, Parse&& parse) {
  const std::optional<std::string> raw = env_value(name);
  if (!raw) {
    return;
  }
  out = parse(std::string(name), *raw);
}

}  // namespace

std::optional<std::string> env_value(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') {
    return std::nullopt;
  }
  return std::string(raw);
}

std::chrono::milliseconds RetryPolicy::backoff(int attempt,
                                               std::uint64_t salt) const {
  const int shift = std::min(attempt, 20);
  std::chrono::milliseconds delay{backoff_base.count() << shift};
  delay = std::min(delay, backoff_max);
  if (jitter > 0.0 && delay.count() > 0) {
    const std::uint64_t h =
        mix64(seed ^ mix64(salt ^ static_cast<std::uint64_t>(attempt)));
    const double unit = static_cast<double>(h >> 11) * 0x1.0p-53;
    const double scale = 1.0 - jitter * unit;
    delay = std::chrono::milliseconds(
        static_cast<long long>(static_cast<double>(delay.count()) * scale));
  }
  return delay;
}

std::chrono::milliseconds parse_env_ms(const std::string& name,
                                       const std::string& raw) {
  const long long ms =
      parse_integer(name, raw, "a non-negative millisecond count");
  if (ms < 0) {
    throw InvalidInput(name + ": expected a non-negative millisecond count, " +
                       "got \"" + raw + "\"");
  }
  return std::chrono::milliseconds(ms);
}

int parse_env_int(const std::string& name, const std::string& raw,
                  int min_value) {
  const long long value = parse_integer(name, raw, "an integer");
  if (value < min_value || value > std::numeric_limits<int>::max()) {
    throw InvalidInput(name + ": expected an integer >= " +
                       std::to_string(min_value) + ", got \"" + raw + "\"");
  }
  return static_cast<int>(value);
}

bool parse_env_flag(const std::string& name, const std::string& raw) {
  if (raw == "1" || raw == "on" || raw == "true") {
    return true;
  }
  if (raw == "0" || raw == "off" || raw == "false") {
    return false;
  }
  throw InvalidInput(name + ": expected 0/1/on/off/true/false, got \"" + raw +
                     "\"");
}

ResilienceConfig with_env_overrides(ResilienceConfig base) {
  read_env("GRIDSE_BARRIER_TIMEOUT_MS", base.barrier_timeout, parse_env_ms);
  read_env("GRIDSE_RECOVERY", base.recovery.enabled, parse_env_flag);
  read_env("GRIDSE_HEARTBEAT_PERIOD_MS", base.recovery.heartbeat.period,
           parse_env_ms);
  read_env("GRIDSE_HEARTBEAT_TIMEOUT_MS", base.recovery.heartbeat.timeout,
           parse_env_ms);
  read_env("GRIDSE_HEARTBEAT_ROUNDS", base.recovery.heartbeat.rounds,
           [](const std::string& name, const std::string& raw) {
             return parse_env_int(name, raw, 1);
           });
  read_env("GRIDSE_REJOIN_EPOCH", base.recovery.rejoin_epoch,
           [](const std::string& name, const std::string& raw) {
             return parse_env_int(name, raw, 1);
           });
  read_env("GRIDSE_CHECKPOINT_DIR", base.recovery.checkpoint_dir,
           [](const std::string&, const std::string& raw) { return raw; });
  return base;
}

TelemetryConfig with_env_overrides(TelemetryConfig base) {
  read_env("GRIDSE_TELEMETRY_DIR", base.dir,
           [](const std::string&, const std::string& raw) { return raw; });
  read_env("GRIDSE_TELEMETRY_SAMPLE_MS", base.sample_period, parse_env_ms);
  read_env("GRIDSE_FLIGHT_RING", base.flight_ring,
           [](const std::string& name, const std::string& raw) {
             return parse_env_int(name, raw, 1);
           });
  return base;
}

SloConfig with_env_overrides(SloConfig base) {
  read_env("GRIDSE_CYCLE_DEADLINE_MS", base.cycle_deadline, parse_env_ms);
  read_env("GRIDSE_PHASE_BUDGET_STEP1_MS", base.step1_budget, parse_env_ms);
  read_env("GRIDSE_PHASE_BUDGET_EXCHANGE_MS", base.exchange_budget,
           parse_env_ms);
  read_env("GRIDSE_PHASE_BUDGET_STEP2_MS", base.step2_budget, parse_env_ms);
  read_env("GRIDSE_PHASE_BUDGET_COMBINE_MS", base.combine_budget,
           parse_env_ms);
  return base;
}

std::chrono::milliseconds exchange_deadline_with_env(
    std::chrono::milliseconds base) {
  read_env("GRIDSE_EXCHANGE_DEADLINE_MS", base, parse_env_ms);
  return base;
}

TopologyConfig with_env_overrides(TopologyConfig base) {
  read_env("GRIDSE_TOPOLOGY_PLAN", base.plan,
           [](const std::string&, const std::string& raw) { return raw; });
  return base;
}

}  // namespace gridse::runtime
