#include "core/dse_driver.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "obs/obs.hpp"
#include "util/byte_buffer.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace gridse::core {
namespace {

/// Tag layout (all below the transports' reserved range).
constexpr int kPseudoTagBase = 16;
constexpr int kRedistTagBase = 1 << 18;
constexpr int kCombineTag = (1 << 18) + (1 << 17);

int pseudo_tag(int from_subsystem, int to_subsystem, int m) {
  return kPseudoTagBase + from_subsystem * m + to_subsystem;
}

int redist_tag(int subsystem) { return kRedistTagBase + subsystem; }

/// Wall-clock budget for one exchange phase. Disabled (0) reproduces the
/// historical blocking behavior.
class Deadline {
 public:
  explicit Deadline(std::chrono::milliseconds budget)
      : enabled_(budget.count() > 0),
        at_(std::chrono::steady_clock::now() + budget) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Time left, clamped at zero. A zero-remaining recv_for still performs a
  /// final mailbox scan, so a message that raced the deadline is picked up.
  [[nodiscard]] std::chrono::milliseconds remaining() const {
    return std::max(std::chrono::duration_cast<std::chrono::milliseconds>(
                        at_ - std::chrono::steady_clock::now()),
                    std::chrono::milliseconds{0});
  }

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point at_;
};

/// Blocking recv without a deadline; bounded recv with one. nullopt means
/// the deadline expired with nothing matching delivered.
std::optional<runtime::Message> recv_within(runtime::Communicator& comm,
                                            const Deadline& deadline,
                                            int source, int tag) {
  if (!deadline.enabled()) {
    return comm.recv(source, tag);
  }
  return comm.recv_for(source, tag, deadline.remaining());
}

/// Why an exchange frame was not consumed (see receive_lossy).
enum class FrameLoss { kNone, kRankDead, kDeadline, kCorrupt };

[[maybe_unused]] const char* loss_reason(FrameLoss loss) {
  switch (loss) {
    case FrameLoss::kRankDead:
      return "rank_dead";
    case FrameLoss::kDeadline:
      return "deadline";
    case FrameLoss::kCorrupt:
      return "corrupt";
    case FrameLoss::kNone:
      break;
  }
  return "none";
}

/// The exchanges' one lossy-receive policy. A source the phase-0 membership
/// view already declared dead is skipped without waiting out the deadline.
/// Otherwise the frame is awaited within `deadline` and handed to
/// `consume`; a frame `consume` rejects with InvalidInput is counted in
/// `exchange.corrupt_frames`. Every loss is returned for the caller's own
/// bookkeeping, so the cycle finishes degraded instead of throwing.
template <typename Consume>
FrameLoss receive_lossy(runtime::Communicator& comm, const Deadline& deadline,
                        bool source_dead, int source, int tag,
                        Consume&& consume) {
  if (source_dead) {
    return FrameLoss::kRankDead;
  }
  const auto msg = recv_within(comm, deadline, source, tag);
  if (!msg.has_value()) {
    return FrameLoss::kDeadline;
  }
  try {
    consume(msg->payload);
  } catch (const InvalidInput&) {
    OBS_COUNTER_ADD("exchange.corrupt_frames", 1);
    return FrameLoss::kCorrupt;
  }
  return FrameLoss::kNone;
}

#if GRIDSE_OBS
/// Per-cycle SLO verdicts (rank 0 only, so counter deltas are cycle-scoped,
/// not multiplied by the world size). Pure observation: emits `slo.*`
/// counters and trace events, never alters the cycle outcome.
void check_slo(const runtime::SloConfig& slo, const DseResult& result) {
  const auto over = [](double seconds, std::chrono::milliseconds budget) {
    return budget.count() > 0 &&
           seconds * 1000.0 > static_cast<double>(budget.count());
  };
  const auto check_phase = [&](const char* phase, double seconds,
                               std::chrono::milliseconds budget) {
    if (!over(seconds, budget)) {
      return;
    }
    OBS_COUNTER_ADD("slo.phase_budget_over", 1);
    OBS_EVENT("slo.phase_budget_over", OBS_ATTR("phase", phase),
              OBS_ATTR("seconds", seconds),
              OBS_ATTR("budget_ms", budget.count()));
  };
  check_phase("step1", result.step1_seconds, slo.step1_budget);
  check_phase("exchange", result.exchange_seconds, slo.exchange_budget);
  check_phase("step2", result.step2_seconds, slo.step2_budget);
  check_phase("combine", result.combine_seconds, slo.combine_budget);
  if (over(result.total_seconds, slo.cycle_deadline)) {
    OBS_COUNTER_ADD("slo.cycle_deadline_missed", 1);
    OBS_EVENT("slo.cycle_deadline_missed",
              OBS_ATTR("seconds", result.total_seconds),
              OBS_ATTR("deadline_ms", slo.cycle_deadline.count()));
  }
}
#endif

}  // namespace

DseDriver::DseDriver(const grid::Network& network,
                     const decomp::Decomposition& decomposition,
                     DseOptions options)
    : network_(&network),
      decomposition_(&decomposition),
      options_(options) {
  GRIDSE_CHECK_MSG(options.workers_per_cluster > 0,
                   "need at least one worker per cluster");
  const int m = decomposition.num_subsystems();
  GRIDSE_CHECK_MSG(kPseudoTagBase + m * m + m < kRedistTagBase,
                   "too many subsystems for the tag layout");
}

DseResult DseDriver::run(runtime::Communicator& comm,
                         const grid::MeasurementSet& global_measurements,
                         std::span<const graph::PartId> step1_assignment,
                         std::span<const graph::PartId> step2_assignment,
                         const DseRecoveryContext* rctx,
                         const TrackingPrior* prior) const {
  const int m = decomposition_->num_subsystems();
  const int rank = comm.rank();
  GRIDSE_CHECK(static_cast<int>(step1_assignment.size()) == m);
  GRIDSE_CHECK(static_cast<int>(step2_assignment.size()) == m);
  for (int s = 0; s < m; ++s) {
    GRIDSE_CHECK_MSG(step1_assignment[static_cast<std::size_t>(s)] >= 0 &&
                         step1_assignment[static_cast<std::size_t>(s)] <
                             comm.size() &&
                         step2_assignment[static_cast<std::size_t>(s)] >= 0 &&
                         step2_assignment[static_cast<std::size_t>(s)] <
                             comm.size(),
                     "assignment rank out of range");
  }

  const std::size_t bytes_before = comm.bytes_sent();
  OBS_SPAN("dse.run");
  Timer total_timer;
  DseResult result;

  std::vector<int> hosted1;
  std::vector<int> hosted2;
  for (int s = 0; s < m; ++s) {
    if (step1_assignment[static_cast<std::size_t>(s)] == rank) {
      hosted1.push_back(s);
    }
    if (step2_assignment[static_cast<std::size_t>(s)] == rank) {
      hosted2.push_back(s);
    }
  }

  // Build estimators for every subsystem this rank touches in either step.
  // Each subsystem's WLS runs on its registry models against its registry
  // SolverCache, so the extracted models and the symbolic factorization work
  // (ordering, etree, assembly scatter maps) are shared across Gauss-Newton
  // iterations, both steps, and — with a persistent registry — across
  // cycles.
  const std::shared_ptr<PlanRegistry> registry =
      options_.plan_registry != nullptr ? options_.plan_registry
                                        : std::make_shared<PlanRegistry>();
  std::map<int, std::unique_ptr<LocalEstimator>> estimators;
  for (int s = 0; s < m; ++s) {
    if (step1_assignment[static_cast<std::size_t>(s)] != rank &&
        step2_assignment[static_cast<std::size_t>(s)] != rank) {
      continue;
    }
    LocalEstimatorOptions opts = options_.local;
    opts.wls.cache = registry->cache_for(s);
    estimators.emplace(
        s, std::make_unique<LocalEstimator>(
               *network_, *decomposition_,
               registry->models_for(s, *network_, *decomposition_),
               std::move(opts)));
  }

  // One pass routes every meter to the subsystem owning its bus; the
  // hosted solves and the redistribution payloads then filter only their
  // own lists instead of the interconnection's whole set.
  const decomp::MeasurementRoute route = decomp::route_measurements(
      *decomposition_, *network_, global_measurements);

  ThreadPool pool(static_cast<std::size_t>(options_.workers_per_cluster));

  // --- Phase 0: heartbeat membership + checkpoint restore (recovery only) ----
  // The shared membership view replaces per-exchange timeout discovery: every
  // later recv from a rank the view marks dead is skipped immediately instead
  // of waiting out its own deadline.
  runtime::MembershipView membership;  // empty: everyone presumed alive
  std::set<int> restored;  // hosted subsystems seeded from a checkpoint
  if (rctx != nullptr) {
    GRIDSE_CHECK_MSG(runtime::checkpoint_tag(m) < (1 << 20),
                     "too many subsystems for the checkpoint tag range");
    membership = runtime::probe_membership(comm, rctx->heartbeat);
    result.recovery.enabled = true;
    result.recovery.membership = membership;

    // Restore: rank 0 ships each planned checkpoint to the subsystem's
    // Step-1 host, which seeds its estimator's next run_step1. A missed or
    // corrupt checkpoint degrades to a cold start, never to a failed cycle.
    OBS_SPAN("dse.recovery.restore");
    const Deadline restore_deadline(
        std::max(rctx->heartbeat.timeout, std::chrono::milliseconds{1}));
    const auto warm_start = [&](int s, const EstimatorCheckpoint& ckpt) {
      try {
        estimators.at(s)->set_warm_start(ckpt.step1_states);
        restored.insert(s);
        ++result.recovery.warm_started;
        OBS_COUNTER_ADD("recovery.warm_starts", 1);
      } catch (const InvalidInput&) {
        // Checkpoint from a stale decomposition: cold-start instead.
        OBS_COUNTER_ADD("recovery.restore_missed", 1);
      }
    };
    if (rank == 0) {
      for (const auto& [s, ckpt] : rctx->restore) {
        if (s < 0 || s >= m) continue;
        const graph::PartId host =
            step1_assignment[static_cast<std::size_t>(s)];
        if (host == 0) {
          warm_start(s, ckpt);
        } else if (membership.alive(host)) {
          auto payload = encode_checkpoint(ckpt);
          OBS_COUNTER_ADD("recovery.restore_bytes", payload.size());
          comm.send(host, runtime::checkpoint_tag(s), std::move(payload));
        }
      }
    } else if (membership.alive(0) && membership.alive(rank)) {
      // (A rank the consensus marked dead gets no checkpoints shipped, so it
      // must not sit out the restore deadline waiting for them.)
      for (const auto& [s, ignored] : rctx->restore) {
        (void)ignored;
        if (s < 0 || s >= m) continue;
        if (step1_assignment[static_cast<std::size_t>(s)] != rank) continue;
        const auto msg = recv_within(comm, restore_deadline, 0,
                                     runtime::checkpoint_tag(s));
        if (!msg.has_value()) {
          OBS_COUNTER_ADD("recovery.restore_missed", 1);
          continue;
        }
        try {
          warm_start(s, decode_checkpoint(msg->payload));
        } catch (const InvalidInput&) {
          OBS_COUNTER_ADD("recovery.restore_missed", 1);
        }
      }
    }
  }
  const auto rank_dead = [&](int r) {
    return rctx != nullptr && !membership.alive(r);
  };

  // Tracking: every other hosted Step 1 starts from the previous frame's
  // estimate, which lies close to this frame's answer.
  if (prior != nullptr) {
    for (const int s : hosted1) {
      if (restored.count(s) > 0 ||
          std::find(prior->flat_start.begin(), prior->flat_start.end(), s) !=
              prior->flat_start.end()) {
        continue;
      }
      estimators.at(s)->set_warm_start(prior->state);
      OBS_COUNTER_ADD("dse.step1.tracking_starts", 1);
    }
  }

  // --- DSE Step 1 ------------------------------------------------------------
  Timer step1_timer;
  std::map<int, LocalSolveInfo> step1_info;
  {
    OBS_SPAN("dse.step1");
    analysis::Mutex info_mutex{"DseDriver::step1_info_mutex"};
    pool.parallel_for(hosted1.size(), [&](std::size_t i) {
      const int s = hosted1[i];
      const LocalSolveInfo info =
          estimators.at(s)->run_step1(global_measurements, route);
      OBS_HISTOGRAM_OBSERVE("dse.step1.subsystem_seconds", info.seconds);
      OBS_COUNTER_ADD("dse.step1.subsystems", 1);
      analysis::LockGuard lock(info_mutex);
      step1_info[s] = info;
    });
    comm.barrier();
  }
  result.step1_seconds = step1_timer.seconds();

  // --- Re-mapping redistribution + pseudo-measurement exchange ---------------
  // Degradation bookkeeping for this rank's hosted Step-2 subsystems: a
  // subsystem whose redistribution payload never arrived cannot run Step 2
  // at all; a subsystem missing only neighbour pseudo-measurements re-solves
  // with low-weight priors.
  std::set<int> dead_subsystems;
  std::map<int, std::set<int>> missing_neighbors;
  Timer exchange_timer;
  {
    OBS_SPAN("dse.exchange.redistribute");
    const Deadline deadline(options_.exchange_deadline);
    // Ship Step-1 solutions (plus the raw measurements the new host will
    // need) for subsystems that move clusters between steps.
    for (const int s : hosted1) {
      const graph::PartId dest = step2_assignment[static_cast<std::size_t>(s)];
      if (dest == rank) continue;
      ByteWriter w;
      w.write_vector(estimators.at(s)->step1_all_states());
      w.write_vector(encode_measurements(estimators.at(s)->local_model().filter(
          global_measurements, route.of(s))));
      auto payload = w.take();
      OBS_COUNTER_ADD("dse.redistribute.messages", 1);
      OBS_COUNTER_ADD("dse.redistribute.bytes", payload.size());
      comm.send(dest, redist_tag(s), std::move(payload));
    }
    for (const int s : hosted2) {
      const graph::PartId src = step1_assignment[static_cast<std::size_t>(s)];
      if (src == rank) continue;
      const FrameLoss loss = receive_lossy(
          comm, deadline, rank_dead(src), src, redist_tag(s),
          [&](const std::vector<std::uint8_t>& payload) {
            ByteReader r(payload);
            const auto states = r.read_vector<BusStateRecord>();
            (void)r.read_vector<std::uint8_t>();  // raw measurements: costed
            estimators.at(s)->adopt_step1(states);
          });
      if (loss != FrameLoss::kNone) {
        dead_subsystems.insert(s);
        OBS_EVENT("exchange.redistribution_lost", OBS_ATTR("subsystem", s),
                  OBS_ATTR("from_rank", src),
                  OBS_ATTR("reason", loss_reason(loss)));
      }
    }

    comm.barrier();
  }
  result.exchange_seconds = exchange_timer.seconds();

  // --- Step-2 exchange/re-evaluation rounds ----------------------------------
  // Round 0 ships the Step-1 solutions at the tie-line ends; further rounds
  // re-exchange the re-evaluated values, bounded in usefulness by the
  // decomposition diameter (§II).
  std::map<int, LocalSolveInfo> step2_info;
  for (int round = 0; round < std::max(1, options_.step2_rounds); ++round) {
    // Peer-to-peer pseudo measurements: the Step-2 owner of each subsystem
    // sends each neighbour's Step-2 owner its states at their tie lines
    // (Fig. 6: MW_Client_Send / MW_Client_Recv per neighbour).
    // Tags repeat across rounds: per-(source rank, tag) FIFO ordering keeps
    // the rounds from mixing.
    Timer round_exchange_timer;
    std::map<int, std::vector<BusStateRecord>> neighbor_records;
    for (const int t : hosted2) {
      neighbor_records[t];  // pre-create: the worker pool must never insert
    }
    {
      OBS_SPAN("dse.exchange.pseudo");
      const Deadline deadline(options_.exchange_deadline);
      for (const int s : hosted2) {
        if (dead_subsystems.count(s) > 0) continue;  // nothing to export
        for (const int t : decomposition_->neighbors_of(s)) {
          const std::vector<BusStateRecord> records =
              estimators.at(s)->boundary_records(t);
          const graph::PartId dest =
              step2_assignment[static_cast<std::size_t>(t)];
          if (dest == rank) {
            auto& sink = neighbor_records[t];
            sink.insert(sink.end(), records.begin(), records.end());
          } else {
            auto payload = encode_boundary_records(records);
            OBS_COUNTER_ADD("dse.pseudo.messages", 1);
            OBS_COUNTER_ADD("dse.pseudo.bytes", payload.size());
            OBS_COUNTER_ADD("exchange.boundary_bytes", payload.size());
            comm.send(dest, pseudo_tag(s, t, m), std::move(payload));
          }
        }
      }
      for (const int t : hosted2) {
        if (dead_subsystems.count(t) > 0) continue;  // will not run Step 2
#if GRIDSE_OBS
        // Step-2 fan-in wait: how long each subsystem blocks for its
        // neighbours' pseudo-measurements (the paper's exchange-phase
        // bottleneck). One global histogram plus a per-subsystem breakdown;
        // per-subsystem names are dynamic, so they resolve through the
        // registry map (this path already paid for a blocking recv).
        Timer fanin_timer;
        obs::Histogram& fanin_hist = obs::MetricsRegistry::global().histogram(
            "exchange.fanin_wait_seconds.subsystem." + std::to_string(t));
#endif
        for (const decomp::TieEnds& tie :
             decomposition_->subsystems[static_cast<std::size_t>(t)].ties) {
          const int s = tie.neighbor;
          const graph::PartId src =
              step2_assignment[static_cast<std::size_t>(s)];
          if (src == rank) {
            // Merged locally above — unless the neighbour itself is dead on
            // this rank and exported nothing.
            if (dead_subsystems.count(s) > 0) {
              missing_neighbors[t].insert(s);
            }
            continue;
          }
          const FrameLoss loss = receive_lossy(
              comm, deadline, rank_dead(src), src, pseudo_tag(s, t, m),
              [&](const std::vector<std::uint8_t>& payload) {
                const std::vector<BusStateRecord> records =
                    decode_boundary_records(payload);
                // Exactly the buses of s that t's extended model holds.
                if (!std::ranges::equal(records, tie.far, {},
                                        &BusStateRecord::bus)) {
                  throw InvalidInput("pseudo frame " + std::to_string(s) +
                                     " -> " + std::to_string(t) +
                                     ": not their tie-line ends");
                }
                auto& sink = neighbor_records[t];
                sink.insert(sink.end(), records.begin(), records.end());
              });
          if (loss != FrameLoss::kNone) {
            missing_neighbors[t].insert(s);
            OBS_EVENT("exchange.pseudo_lost", OBS_ATTR("subsystem", t),
                      OBS_ATTR("neighbor", s), OBS_ATTR("round", round),
                      OBS_ATTR("reason", loss_reason(loss)));
          }
        }
#if GRIDSE_OBS
        const double fanin_wait = fanin_timer.seconds();
        OBS_HISTOGRAM_OBSERVE("exchange.fanin_wait_seconds", fanin_wait);
        fanin_hist.observe(fanin_wait);
#endif
      }
    }
    result.exchange_seconds += round_exchange_timer.seconds();

    Timer step2_timer;
    {
      OBS_SPAN("dse.step2");
      analysis::Mutex info_mutex{"DseDriver::step2_info_mutex"};
      pool.parallel_for(hosted2.size(), [&](std::size_t i) {
        const int s = hosted2[i];
        if (dead_subsystems.count(s) > 0) return;
        const bool degraded = missing_neighbors.count(s) > 0;
        const LocalSolveInfo info = estimators.at(s)->run_step2(
            global_measurements, route, neighbor_records.at(s),
            /*fill_missing_with_priors=*/degraded);
        OBS_HISTOGRAM_OBSERVE("dse.step2.subsystem_seconds", info.seconds);
        OBS_COUNTER_ADD("dse.step2.subsystems", 1);
        analysis::LockGuard lock(info_mutex);
        step2_info[s] = info;
      });
      comm.barrier();
    }
    result.step2_seconds += step2_timer.seconds();
  }

  // --- Final step: combine subsystem solutions --------------------------------
  Timer combine_timer;
  OBS_SPAN("dse.combine");
  bool local_ok = dead_subsystems.empty();
  for (const auto& [s, info] : step1_info) local_ok &= info.converged;
  for (const auto& [s, info] : step2_info) local_ok &= info.converged;

  // This rank's degradation report, shipped inside the combine payload so
  // every rank finishes with the cluster-wide health picture.
  std::vector<DegradedStatus> my_statuses;
  for (const int s : hosted2) {
    DegradedStatus st;
    st.subsystem = s;
    st.missing_redistribution = dead_subsystems.count(s) > 0;
    const auto missing_it = missing_neighbors.find(s);
    if (missing_it != missing_neighbors.end()) {
      st.missing_neighbors.assign(missing_it->second.begin(),
                                  missing_it->second.end());
    }
    if (st.missing_redistribution || !st.missing_neighbors.empty()) {
      my_statuses.push_back(std::move(st));
    }
  }
#if GRIDSE_OBS
  if (!my_statuses.empty()) {
    OBS_COUNTER_ADD("exchange.degraded_subsystems", my_statuses.size());
    for (const DegradedStatus& st : my_statuses) {
      OBS_EVENT("exchange.degraded", OBS_ATTR("subsystem", st.subsystem),
                OBS_ATTR("missing_neighbors",
                         static_cast<int>(st.missing_neighbors.size())),
                OBS_ATTR("missing_redistribution",
                         st.missing_redistribution ? 1 : 0));
    }
  }
#endif

  std::vector<BusStateRecord> my_records;
  for (const int s : hosted2) {
    if (dead_subsystems.count(s) > 0) continue;  // never solved
    const auto records = estimators.at(s)->final_states();
    my_records.insert(my_records.end(), records.begin(), records.end());
  }
  ByteWriter w;
  w.write(static_cast<std::uint8_t>(local_ok ? 1 : 0));
  w.write_vector(my_records);
  w.write_vector(encode_degraded(my_statuses));
  const auto combine_payload = w.take();
  for (int r = 0; r < comm.size(); ++r) {
    if (r == rank) continue;
    OBS_COUNTER_ADD("dse.combine.messages", 1);
    OBS_COUNTER_ADD("dse.combine.bytes", combine_payload.size());
    comm.send(r, kCombineTag, combine_payload);
  }
  result.state = grid::GridState(network_->num_buses());
  bool all_ok = local_ok;
  result.degraded = my_statuses;
  const auto apply_records = [&](const std::vector<BusStateRecord>& records) {
    for (const BusStateRecord& rec : records) {
      if (rec.bus < 0 || rec.bus >= network_->num_buses()) {
        throw InvalidInput("dse combine: bus index " +
                           std::to_string(rec.bus) + " out of range");
      }
      result.state.theta[static_cast<std::size_t>(rec.bus)] = rec.theta;
      result.state.vm[static_cast<std::size_t>(rec.bus)] = rec.vm;
    }
  };
  apply_records(my_records);
  const Deadline combine_deadline(options_.exchange_deadline);
  for (int r = 0; r < comm.size(); ++r) {
    if (r == rank) continue;
    const FrameLoss loss = receive_lossy(
        comm, combine_deadline, rank_dead(r), r, kCombineTag,
        [&](const std::vector<std::uint8_t>& payload) {
          ByteReader reader(payload);
          const bool peer_ok = reader.read<std::uint8_t>() != 0;
          const auto records = reader.read_vector<BusStateRecord>();
          const auto peer_statuses =
              decode_degraded(reader.read_vector<std::uint8_t>());
          apply_records(records);
          all_ok &= peer_ok;
          result.degraded.insert(result.degraded.end(), peer_statuses.begin(),
                                 peer_statuses.end());
        });
    if (loss != FrameLoss::kNone) {
      result.unresponsive_ranks.push_back(r);
      all_ok = false;
      OBS_EVENT("exchange.unresponsive_rank", OBS_ATTR("rank", r),
                OBS_ATTR("reason", loss_reason(loss)));
    }
  }
  std::sort(result.degraded.begin(), result.degraded.end(),
            [](const DegradedStatus& a, const DegradedStatus& b) {
              return a.subsystem < b.subsystem;
            });
  result.all_converged = all_ok;
  result.combine_seconds = combine_timer.seconds();

  // --- Checkpoint collect (recovery only) ------------------------------------
  // Every rank snapshots the subsystems it solved this cycle and ships them
  // to rank 0, where the Supervisor keeps the newest checkpoint per
  // subsystem. These are the warm-start seeds for the next cycle and the
  // migration payloads after a cluster loss.
  if (rctx != nullptr) {
    OBS_SPAN("dse.recovery.collect");
    std::vector<std::vector<std::uint8_t>> encoded;
    for (const int s : hosted2) {
      if (dead_subsystems.count(s) > 0) continue;  // never solved
      EstimatorCheckpoint ckpt;
      ckpt.subsystem = s;
      ckpt.cycle = rctx->cycle;
      ckpt.step1_states = estimators.at(s)->final_states();
      encoded.push_back(encode_checkpoint(ckpt));
      if (rank == 0) {
        result.recovery.checkpoint_bytes += encoded.back().size();
        result.recovery.checkpoints.push_back(std::move(ckpt));
      }
    }
    if (rank != 0) {
      ByteWriter report;
      report.write(static_cast<std::uint64_t>(encoded.size()));
      for (const auto& bytes : encoded) {
        report.write_vector(bytes);
      }
      comm.send(0, runtime::kRecoveryReportTag, report.take());
    } else {
      const Deadline report_deadline(options_.exchange_deadline);
      for (int r = 1; r < comm.size(); ++r) {
        // A lost report only costs that rank's warm starts.
        const FrameLoss loss = receive_lossy(
            comm, report_deadline, rank_dead(r), r,
            runtime::kRecoveryReportTag,
            [&](const std::vector<std::uint8_t>& payload) {
              ByteReader reader(payload);
              const auto count = reader.read<std::uint64_t>();
              if (count > payload.size()) {
                throw InvalidInput("recovery report: implausible count");
              }
              for (std::uint64_t i = 0; i < count; ++i) {
                const auto bytes = reader.read_vector<std::uint8_t>();
                result.recovery.checkpoints.push_back(
                    decode_checkpoint(bytes));
                result.recovery.checkpoint_bytes += bytes.size();
              }
              if (!reader.at_end()) {
                throw InvalidInput("recovery report: trailing bytes");
              }
            });
        if (loss == FrameLoss::kDeadline || loss == FrameLoss::kCorrupt) {
          OBS_EVENT("recovery.report_missed", OBS_ATTR("rank", r),
                    OBS_ATTR("reason", loss_reason(loss)));
        }
      }
      std::sort(result.recovery.checkpoints.begin(),
                result.recovery.checkpoints.end(),
                [](const EstimatorCheckpoint& a, const EstimatorCheckpoint& b) {
                  return a.subsystem < b.subsystem;
                });
      OBS_COUNTER_ADD("recovery.checkpoints",
                      result.recovery.checkpoints.size());
      OBS_COUNTER_ADD("recovery.checkpoint_bytes",
                      result.recovery.checkpoint_bytes);
    }
  }
  result.total_seconds = total_timer.seconds();
  result.bytes_sent = comm.bytes_sent() - bytes_before;
#if GRIDSE_OBS
  if (rank == 0 && options_.slo.any()) {
    check_slo(options_.slo, result);
  }
#endif

  // One trace per subsystem this rank hosted in either step (the estimator
  // map's keys, ascending): Step-1 info where it ran Step 1 here, Step-2
  // info where it ran Step 2 here.
  for (const auto& [s, estimator] : estimators) {
    SubsystemTrace trace;
    trace.subsystem = s;
    trace.step1_rank = step1_assignment[static_cast<std::size_t>(s)];
    trace.step2_rank = step2_assignment[static_cast<std::size_t>(s)];
    if (step1_info.count(s) > 0) trace.step1 = step1_info[s];
    if (step2_info.count(s) > 0) trace.step2 = step2_info[s];
    result.traces.push_back(trace);
  }
  return result;
}

estimation::WlsResult centralized_estimate(
    const grid::Network& network, const grid::MeasurementSet& measurements,
    const estimation::WlsOptions& options) {
  estimation::WlsEstimator estimator(network, options);
  return estimator.estimate(measurements);
}

}  // namespace gridse::core
