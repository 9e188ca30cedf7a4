#include "core/architecture.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <map>
#include <numeric>
#include <utility>

#include "analysis/debug_sync.hpp"
#include "decomp/sensitivity.hpp"
#include "grid/dc_powerflow.hpp"
#include "grid/powerflow.hpp"
#include "medici/medici_comm.hpp"
#include "obs/obs.hpp"
#if GRIDSE_OBS
#include "obs/telemetry.hpp"
#include "obs/trace/trace.hpp"
#endif
#include "runtime/inproc_comm.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace gridse::core {
#if GRIDSE_OBS
namespace {

/// Where per-rank trace files go: the config wins, then GRIDSE_TRACE_DIR,
/// then nowhere (tracing stays in memory and is dropped).
std::string resolve_trace_dir(const std::string& configured) {
  if (!configured.empty()) {
    return configured;
  }
  return runtime::env_value("GRIDSE_TRACE_DIR").value_or(std::string());
}

}  // namespace
#endif

namespace {

/// Solve for the frame's true operating state per the configured mode. The
/// DC path is what makes the 10k+ tiers runnable end to end: angles from
/// the sparse B'θ = P solve, magnitudes anchored at the generator setpoints
/// with a small seed-deterministic jitter on load buses (re-derived
/// identically every frame, so only the angles track a moving load). With
/// `islands` (topology replay, DC only) each island gets its own reference
/// and de-energized buses are pinned to |V| = 0, θ = 0; the jitter stream
/// draws for every PQ bus regardless of energization, so restoring the base
/// topology returns the exact pre-event truth. `bprime` is the caller's B′
/// slot and `decoupled` its AC truth's B′/B″ slot: their factors are reused
/// while the matrices are unchanged.
grid::GridState solve_truth_state(const grid::Network& network,
                                  TruthMode mode, std::uint64_t seed,
                                  const grid::IslandReport* islands,
                                  grid::BprimeFactor& bprime,
                                  grid::PowerFlowFactors& decoupled) {
  if (mode == TruthMode::kAcPowerFlow) {
    GRIDSE_CHECK(islands == nullptr);
    const grid::PowerFlowResult pf =
        grid::solve_power_flow(network, decoupled);
    if (!pf.converged) {
      throw ConvergenceFailure("DseSystem: power flow for the true state did "
                               "not converge");
    }
    return pf.state;
  }
  grid::GridState state(network.num_buses());
  state.theta =
      islands != nullptr
          ? grid::solve_dc_power_flow_islands(network, *islands, bprime)
          : grid::solve_dc_power_flow(network, bprime);
  Rng jitter(seed ^ 0xdc0ull);
  for (grid::BusIndex b = 0; b < network.num_buses(); ++b) {
    const grid::Bus& bus = network.bus(b);
    const double vm = bus.type == grid::BusType::kPQ
                          ? 1.0 + jitter.uniform(-0.02, 0.02)
                          : bus.v_setpoint;
    state.vm[static_cast<std::size_t>(b)] =
        islands == nullptr || islands->bus_energized(b) ? vm : 0.0;
  }
  return state;
}

/// The preliminary step: decompose along `subsystem_of_bus` and run the
/// one-hop sensitivity analysis, once for the lifetime of the system.
decomp::Decomposition analyzed_decomposition(
    const grid::Network& network, const std::vector<int>& subsystem_of_bus) {
  decomp::Decomposition d = decomp::decompose(network, subsystem_of_bus);
  decomp::analyze_sensitivity(network, d);
  return d;
}

/// Resolve the replay plan text: inline JSON when it starts with '{', else
/// the contents of the named file.
fault::TopologyReplayPlan load_replay_plan(const std::string& plan) {
  if (!plan.empty() && plan.front() == '{') {
    return fault::TopologyReplayPlan::parse(plan);
  }
  std::ifstream in(plan, std::ios::binary);
  if (!in) {
    throw InvalidInput("DseSystem: cannot open topology plan file \"" + plan +
                       "\"");
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  return fault::TopologyReplayPlan::parse(text);
}

}  // namespace

Transport parse_transport(const std::string& name) {
  if (name == "inproc") return Transport::kInproc;
  if (name == "medici") return Transport::kMedici;
  if (name == "direct") return Transport::kMediciDirect;
  throw InvalidInput("unknown transport name: " + name);
}

DseSystem::DseSystem(io::GeneratedCase generated, SystemConfig config)
    : generated_(std::move(generated)),
      config_(config),
      decomposition_(analyzed_decomposition(generated_.kase.network,
                                            generated_.subsystem_of_bus)),
      rng_(config.seed) {
  // Environment overrides win over every configured value.
  config_.resilience = runtime::with_env_overrides(config_.resilience);
  config_.dse.exchange_deadline =
      runtime::exchange_deadline_with_env(config_.dse.exchange_deadline);
  config_.dse.slo = runtime::with_env_overrides(config_.dse.slo);
  config_.telemetry = runtime::with_env_overrides(config_.telemetry);
  config_.topology = runtime::with_env_overrides(config_.topology);
  // A system-lifetime plan registry: symbolic solver plans survive across
  // cycles (each cycle's DseDriver is ephemeral). run_cycle invalidates the
  // entries of migrated subsystems on every remap epoch.
  if (config_.dse.plan_registry == nullptr) {
    config_.dse.plan_registry = std::make_shared<PlanRegistry>();
  }

  if (config_.resilience.recovery.enabled) {
    supervisor_ = std::make_unique<Supervisor>(config_.mapping.num_clusters,
                                               config_.resilience.recovery);
  }

  true_state_ = solve_truth_state(generated_.kase.network, config_.truth_mode,
                                  config_.seed, nullptr, truth_bprime_,
                                  truth_decoupled_);
  bus_energized_prev_.assign(
      static_cast<std::size_t>(generated_.kase.network.num_buses()), 1);

  // Topology replay: a resolved non-empty plan arms the harness for
  // run_cycle.
  if (!config_.topology.plan.empty()) {
    ensure_live_topology();
    replay_ = std::make_unique<fault::TopologyReplayHarness>(
        load_replay_plan(config_.topology.plan));
  }

  if (config_.plan.pmu_buses.empty()) {
    for (const decomp::Subsystem& s : decomposition_.subsystems) {
      config_.plan.pmu_buses.push_back(
          *std::min_element(s.buses.begin(), s.buses.end()));
    }
  }
  generator_ = std::make_unique<grid::MeasurementGenerator>(
      generated_.kase.network, config_.plan);

#if GRIDSE_OBS
  if (!config_.telemetry.dir.empty()) {
    sampler_ = std::make_unique<obs::TelemetrySampler>(config_.telemetry);
    if (supervisor_ != nullptr) {
      // Death/rejoin transitions arm the flight recorder; the flush itself
      // happens at the next cycle boundary so the triggering cycle's record
      // is in the ring (the sink runs outside the supervisor mutex).
      supervisor_->set_alert_sink([this](const char* kind, int cluster) {
        sampler_->note_trigger(kind, cluster,
                               cycle_index_.load(std::memory_order_relaxed));
      });
    }
  }
#endif
}

DseSystem::~DseSystem() {
#if GRIDSE_OBS
  // Destroy the sampler first: a pending flight flush must drain the trace
  // buffer into its post-mortem directory before the end-of-run flush does.
  sampler_.reset();
  const std::string dir = resolve_trace_dir(config_.trace_dir);
  if (dir.empty()) {
    return;
  }
  try {
    const obs::trace::FlushStats stats = obs::trace::write_trace_files(dir);
    if (!stats.files.empty()) {
      GRIDSE_INFO << "wrote " << stats.records << " trace records and "
                  << stats.events << " events to " << stats.files.size()
                  << " file(s) under " << dir;
    }
  } catch (const std::exception& e) {
    GRIDSE_WARN << "trace flush to " << dir << " failed: " << e.what();
  }
#endif
}

CycleReport DseSystem::run_cycle(double time_sec) {
  CycleReport report;
  flat_start_.clear();

  // --- topology replay (docs/RESILIENCE.md): apply this cycle's switching
  // batch, re-derive islands, then drop the touched subsystems' solver
  // plans and models.
  std::optional<grid::IslandReport> islands;
  if (live_topology_ != nullptr) {
    if (replay_ != nullptr) {
      OBS_SPAN("topology.apply_cycle");
      const std::size_t before = replay_->events_applied();
      report.topology.changed_branches = replay_->apply_cycle(
          cycle_index_.load(std::memory_order_relaxed), *live_topology_);
      report.topology.events_applied =
          static_cast<int>(replay_->events_applied() - before);
    }
    if (!pending_manual_changes_.empty()) {
      report.topology.changed_branches.insert(
          report.topology.changed_branches.end(),
          pending_manual_changes_.begin(), pending_manual_changes_.end());
      pending_manual_changes_.clear();
      std::sort(report.topology.changed_branches.begin(),
                report.topology.changed_branches.end());
      report.topology.changed_branches.erase(
          std::unique(report.topology.changed_branches.begin(),
                      report.topology.changed_branches.end()),
          report.topology.changed_branches.end());
    }
    if (!report.topology.changed_branches.empty()) {
      // The measurement generator caches its admittance matrix; adopt the
      // incrementally patched live values so generated injections reflect
      // the switching state (the pattern is switching-invariant).
      generator_->sync_ybus(live_topology_->ybus());
    }
    islands = live_topology_->islands();
    report.topology.num_islands = islands->num_islands;
    OBS_GAUGE_SET("topology.islands",
                  static_cast<double>(islands->num_islands));
    react_to_topology(report.topology.changed_branches, *islands);
  }

  if (live_topology_ != nullptr || config_.load_profile) {
    // Re-solve the truth when the switching state may have moved (the
    // island-aware DC truth) or to track a moving operating point at the
    // frame's load level. The measurement model itself is load-independent
    // (loads only shift the true state), so the same generator stays valid.
    std::optional<grid::Network> scaled;
    if (config_.load_profile) {
      scaled = generated_.kase.network;
      scaled->scale_loads(config_.load_profile(time_sec));
    }
    true_state_ = solve_truth_state(
        scaled ? *scaled : generated_.kase.network, config_.truth_mode,
        config_.seed, islands ? &*islands : nullptr, truth_bprime_,
        truth_decoupled_);
  }
  last_measurements_ = generator_->generate(true_state_, rng_, time_sec);
  if (live_topology_ != nullptr) {
    // De-energization mask + anchors: what enters the residual is only
    // live telemetry, and every estimation group keeps a nonsingular gain.
    grid::MaskedMeasurements masked = grid::mask_measurements(
        generated_.kase.network, *islands, last_measurements_);
    report.topology.masked_measurements = masked.total_masked();
    report.topology.anchors_added = grid::append_anchor_measurements(
        generated_.kase.network, *islands, generated_.subsystem_of_bus,
        last_estimate_, masked.active);
    last_measurements_ = std::move(masked.active);
    OBS_COUNTER_ADD("topology.masked_measurements",
                    report.topology.masked_measurements);
    OBS_COUNTER_ADD("topology.anchors_added", report.topology.anchors_added);
  }

  // --- mapping (paper §IV-B): weights from the time frame -------------------
  // With recovery enabled the participant set may have shrunk (cluster
  // loss) or grown back (rejoin): the mapping then runs over the survivors
  // only, in compact rank space, while previous_assignment_ is kept in
  // cluster-id space so the repartition warm start survives remap epochs.
  std::vector<int> participants;
  if (supervisor_ != nullptr) {
    participants = supervisor_->begin_cycle();
  } else {
    participants.resize(
        static_cast<std::size_t>(config_.mapping.num_clusters));
    std::iota(participants.begin(), participants.end(), 0);
  }
  const int k = static_cast<int>(participants.size());
  report.participants = participants;

  mapping::MappingOptions map_options = config_.mapping;
  map_options.num_clusters = k;
  mapping::ClusterMapper mapper(decomposition_, map_options,
                                config_.weight_model);
  std::optional<std::vector<graph::PartId>> compact_prev;
  if (previous_assignment_) {
    if (supervisor_ != nullptr) {
      compact_prev = supervisor_->project_assignment(
          *previous_assignment_, participants, &report.migrated_subsystems);
      // A migrated subsystem solves on a different cluster from now on; its
      // cached symbolic plans belong to the lost host. Drop them so the new
      // host re-analyzes instead of carrying stale entries. (Fingerprint
      // checks already make stale reuse impossible; this frees the slots.)
      for (const int s : report.migrated_subsystems) {
        config_.dse.plan_registry->invalidate(s);
      }
    } else {
      compact_prev = *previous_assignment_;
    }
  }
  report.map_step1 = mapper.map_before_step1(
      time_sec, compact_prev ? &*compact_prev : nullptr);
  report.map_step2 =
      mapper.map_before_step2(time_sec, report.map_step1.partition.assignment);
  report.redistribution = mapping::plan_redistribution(
      decomposition_, report.map_step1.partition.assignment,
      report.map_step2.partition.assignment);
  {
    std::vector<graph::PartId> cluster_space =
        report.map_step2.partition.assignment;
    for (graph::PartId& c : cluster_space) {
      c = static_cast<graph::PartId>(
          participants[static_cast<std::size_t>(c)]);
    }
    previous_assignment_ = std::move(cluster_space);
  }

  // --- distributed run over the configured transport ------------------------
  DseDriver driver(generated_.kase.network, decomposition_, config_.dse);
  DseRecoveryContext rctx;
  if (supervisor_ != nullptr) {
    rctx.heartbeat = config_.resilience.recovery.heartbeat;
    rctx.cycle = cycle_index_;
    rctx.restore = supervisor_->plan_restore();
    // A touched subsystem starts flat: its checkpoint, like the prior, may
    // hold a just-restored bus at |V| ≈ 0.
    for (const int s : flat_start_) {
      rctx.restore.erase(s);
    }
  }
  // Step 1 tracks the previous frame's estimate, unless that frame was
  // degraded or did not fully converge.
  const TrackingPrior prior{last_estimate_, flat_start_};
  DseResult rank0_result;
  // Every rank's traces, merged per subsystem: Step-1 info from the rank
  // that ran Step 1, Step-2 info from the rank that ran Step 2.
  std::map<int, SubsystemTrace> traces;
  analysis::Mutex result_mutex{"DseSystem::result_mutex"};
  const auto body = [&](runtime::Communicator& comm) {
    DseResult r =
        driver.run(comm, last_measurements_,
                   report.map_step1.partition.assignment,
                   report.map_step2.partition.assignment,
                   supervisor_ != nullptr ? &rctx : nullptr,
                   track_next_cycle_ ? &prior : nullptr);
    analysis::LockGuard lock(result_mutex);
    for (const SubsystemTrace& t : r.traces) {
      SubsystemTrace& merged = traces.try_emplace(t.subsystem, t).first->second;
      if (t.step1_rank == comm.rank()) merged.step1 = t.step1;
      if (t.step2_rank == comm.rank()) merged.step2 = t.step2;
    }
    if (comm.rank() == 0) {
      rank0_result = std::move(r);
    }
  };
  switch (config_.transport) {
    case Transport::kInproc: {
      runtime::InprocWorld world(k);
      world.run(body);
      break;
    }
    case Transport::kMedici:
    case Transport::kMediciDirect: {
      medici::MediciWorld world(
          k,
          config_.transport == Transport::kMedici
              ? medici::TransportMode::kViaMiddleware
              : medici::TransportMode::kDirectTcp,
          medici::unshaped_model(), medici::unshaped_model(),
          config_.resilience);
      world.run(body);
      break;
    }
  }
  report.dse = std::move(rank0_result);
  report.dse.traces.clear();
  for (const auto& [s, trace] : traces) {
    report.dse.traces.push_back(trace);
  }
  if (supervisor_ != nullptr) {
    supervisor_->absorb(report.dse.recovery, participants);
  }
  report.max_vm_error = grid::max_vm_error(report.dse.state, true_state_);
  report.max_angle_error =
      grid::max_angle_error(report.dse.state, true_state_);
  // A lost combine frame leaves that rank's buses at the flat default
  // (θ = 0, |V| = 1); such a state must not become the next cycle's anchors
  // or tracking prior.
  if (report.dse.unresponsive_ranks.empty()) {
    last_estimate_ = report.dse.state;
  }
  track_next_cycle_ =
      report.dse.all_converged && !report.dse.degraded_mode();
#if GRIDSE_OBS
  if (sampler_ != nullptr) {
    const std::int64_t this_cycle =
        cycle_index_.load(std::memory_order_relaxed);
    if (!report.migrated_subsystems.empty()) {
      sampler_->note_trigger("remap", -1, this_cycle);
    }
    if (report.dse.degraded_mode()) {
      sampler_->note_trigger("degraded_combine", -1, this_cycle);
    }
    obs::CycleStamp stamp;
    stamp.cycle = this_cycle;
    stamp.participants = report.participants;
    for (const DegradedStatus& d : report.dse.degraded) {
      stamp.degraded_subsystems.push_back(d.subsystem);
    }
    if (supervisor_ != nullptr) {
      stamp.epoch = supervisor_->epoch();
      const std::vector<runtime::RankState> states =
          supervisor_->cluster_states();
      for (std::size_t c = 0; c < states.size(); ++c) {
        if (states[c] == runtime::RankState::kDead) {
          stamp.dead_clusters.push_back(static_cast<int>(c));
        }
      }
    }
    stamp.step1_seconds = report.dse.step1_seconds;
    stamp.exchange_seconds = report.dse.exchange_seconds;
    stamp.step2_seconds = report.dse.step2_seconds;
    stamp.combine_seconds = report.dse.combine_seconds;
    stamp.total_seconds = report.dse.total_seconds;
    sampler_->on_cycle_end(stamp);
  }
#endif
  ++cycle_index_;
  return report;
}

void DseSystem::ensure_live_topology() {
  if (live_topology_ != nullptr) {
    return;
  }
  if (config_.truth_mode != TruthMode::kDcLinearized) {
    throw InvalidInput(
        "DseSystem: topology replay requires truth_mode == kDcLinearized — "
        "the island-aware DC truth degrades gracefully where the AC Newton "
        "solve goes singular");
  }
  live_topology_ =
      std::make_unique<grid::LiveTopology>(generated_.kase.network);
}

std::vector<std::size_t> DseSystem::apply_topology_event(
    const grid::TopologyEvent& event) {
  ensure_live_topology();
  std::vector<std::size_t> changed = live_topology_->apply(event);
  pending_manual_changes_.insert(pending_manual_changes_.end(),
                                 changed.begin(), changed.end());
  return changed;
}

void DseSystem::react_to_topology(
    std::span<const std::size_t> changed_branches,
    const grid::IslandReport& islands) {
  const grid::Network& network = generated_.kase.network;
  const auto n = static_cast<std::size_t>(network.num_buses());
  const auto m = static_cast<int>(decomposition_.subsystems.size());
  // Subsystems whose WLS pattern changed this cycle: owners of a flipped
  // branch's endpoints, plus owners of buses whose energization flipped
  // (the mask/pin rows for those buses appear or disappear).
  std::vector<char> touched(static_cast<std::size_t>(m), 0);
  for (const std::size_t bi : changed_branches) {
    const grid::Branch& br = network.branch(bi);
    touched[static_cast<std::size_t>(
        generated_.subsystem_of_bus[static_cast<std::size_t>(br.from)])] = 1;
    touched[static_cast<std::size_t>(
        generated_.subsystem_of_bus[static_cast<std::size_t>(br.to)])] = 1;
  }
  for (std::size_t b = 0; b < n; ++b) {
    const char live =
        islands.bus_energized(static_cast<grid::BusIndex>(b)) ? 1 : 0;
    if (live != bus_energized_prev_[b]) {
      touched[static_cast<std::size_t>(generated_.subsystem_of_bus[b])] = 1;
      bus_energized_prev_[b] = live;
    }
  }
  for (int s = 0; s < m; ++s) {
    if (touched[static_cast<std::size_t>(s)] != 0) {
      flat_start_.push_back(s);
      config_.dse.plan_registry->invalidate(s);
    }
  }
}

void DseSystem::kill_cluster(int cluster) {
  GRIDSE_CHECK_MSG(supervisor_ != nullptr,
                   "kill_cluster requires resilience.recovery.enabled");
  supervisor_->kill_cluster(cluster);
}

void DseSystem::announce_rejoin(int cluster) {
  GRIDSE_CHECK_MSG(supervisor_ != nullptr,
                   "announce_rejoin requires resilience.recovery.enabled");
  supervisor_->announce_rejoin(cluster);
}

estimation::WlsResult DseSystem::centralized_reference() const {
  GRIDSE_CHECK_MSG(!last_measurements_.items.empty(),
                   "run_cycle must run before centralized_reference");
  return centralized_estimate(generated_.kase.network, last_measurements_,
                              config_.dse.local.wls);
}

}  // namespace gridse::core
