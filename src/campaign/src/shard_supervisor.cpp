#include "vinoc/campaign/shard_supervisor.hpp"

#include <signal.h>

#include <charconv>
#include <chrono>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "record_path.hpp"
#include "vinoc/campaign/shard.hpp"
#include "vinoc/exec/subprocess.hpp"
#include "vinoc/io/jsonl.hpp"
#include "vinoc/io/shard_wire.hpp"

namespace vinoc::campaign {

namespace {

using Clock = std::chrono::steady_clock;

/// The shortest text that parses back to exactly `value`: a worker must get
/// its --job-timeout / --deadline budget unrounded (six fixed decimals
/// turn a sub-microsecond budget into 0, which means "none").
std::string round_trip(double value) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, res.ptr);
}

/// Respawns per shard before its leftover jobs run in-process.
constexpr int kMaxRespawns = 2;

/// Worker exit codes the supervisor treats as a NORMAL end of process:
/// ok / infeasible / partial / interrupted. Anything else — and any death
/// by signal — is a crash.
bool clean_exit_code(int code) {
  return code == 0 || code == 5 || code == 6 || code == 7;
}

/// Exit codes that mean the worker could not even start its assignment
/// (usage/parse/spec errors, exec failure). A respawn would replay the same
/// failure, so the shard's jobs go straight to the in-process fallback.
bool config_exit_code(int code) {
  return code == 2 || code == 3 || code == 4 || code == 127;
}

/// One shard and the worker process currently (or last) running it.
struct Slot {
  int id = 0;  ///< shard id: manifest / store-<id> / failed-<id> suffix
  std::unique_ptr<exec::ChildProcess> child;
  std::unordered_set<std::uint64_t> pending;    ///< no record delivered yet
  std::unordered_set<std::uint64_t> in_flight;  ///< started, not done
  int respawns = 0;
  bool live = false;
  bool sigkilled_by_watchdog = false;
  Clock::time_point last_event;
};

}  // namespace

ShardCampaignResult run_sharded_campaign(const CampaignSpec& spec,
                                         const ShardCampaignOptions& sopt) {
  if (sopt.base.cache_dir.empty()) {
    throw std::invalid_argument("sharded campaign requires a cache dir");
  }
  if (sopt.worker_exe.empty() || sopt.spec_path.empty()) {
    throw std::invalid_argument(
        "sharded campaign requires worker_exe and spec_path");
  }
  const auto t_start = Clock::now();
  ShardCampaignResult out;
  CampaignResult& result = out.campaign;
  const std::string& cache_dir = sopt.base.cache_dir;
  std::filesystem::create_directories(cache_dir);

  const std::vector<CampaignJob> jobs = expand_jobs(spec, &result.expand);
  std::vector<std::uint64_t> order_keys;
  order_keys.reserve(jobs.size());
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    order_keys.push_back(jobs[i].key);
    index_of.emplace(jobs[i].key, i);
  }

  // A previous sharded run that crashed before its merge leaves shard
  // stores behind; fold them into the canonical store FIRST so worker-side
  // --resume sees one authoritative store.
  (void)merge_shard_stores(cache_dir, &order_keys);

  const ShardPlan plan = plan_shards(jobs, sopt.shards);
  std::filesystem::create_directories(shards_dir(cache_dir));

  RecordEmitter emitter(sopt.base, jobs.size());
  // Jobs whose WORKER died too often around them go to the same ledger the
  // engine writes.
  FailureLedger ledger(
      (std::filesystem::path(cache_dir) / sopt.base.failed_file).string());
  obs::Registry telemetry;  ///< worker summaries + the fallback run's metrics
  std::int64_t workers_spawned = 0, worker_crashes = 0, worker_respawns = 0;
  std::int64_t fallback_jobs = 0, heartbeat_drops = 0;
  std::unordered_map<std::uint64_t, int> crash_count;

  auto cancelled = [&] {
    return sopt.base.cancel != nullptr && sopt.base.cancel->cancelled();
  };

  auto deliver_key = [&](std::uint64_t key, JobRecord rec) {
    const auto it = index_of.find(key);
    if (it == index_of.end()) return;  // not a job of this campaign
    emitter.emit(it->second, std::move(rec));
  };

  auto worker_argv = [&](int shard_id) {
    std::vector<std::string> argv = {sopt.worker_exe,
                                     "campaign-worker",
                                     sopt.spec_path,
                                     "--cache-dir",
                                     cache_dir,
                                     "--shard",
                                     std::to_string(shard_id)};
    if (sopt.base.resume) argv.push_back("--resume");
    if (sopt.worker_threads > 0) {
      argv.push_back("--threads");
      argv.push_back(std::to_string(sopt.worker_threads));
    }
    if (sopt.base.job_timeout_s > 0.0) {
      argv.push_back("--job-timeout");
      argv.push_back(round_trip(sopt.base.job_timeout_s));
    }
    argv.push_back("--retries");
    argv.push_back(std::to_string(sopt.base.max_retries));
    if (sopt.base.deadline_s > 0.0) {
      argv.push_back("--deadline");
      argv.push_back(round_trip(sopt.base.deadline_s));
    }
    return argv;
  };

  /// Spawns (or respawns) slot `slot`'s worker. Respawns disarm fault
  /// injection in the child: an injected crash site would otherwise fire
  /// again on every respawn and burn the whole budget on the same
  /// scripted fault (real crashes recur on their own if they are real).
  auto spawn_worker = [&](Slot& slot, bool respawn) {
    std::vector<std::string> env;
    if (respawn) env.push_back("VINOC_FAULT=");
    slot.child = exec::ChildProcess::spawn(worker_argv(slot.id), env);
    slot.in_flight.clear();
    slot.sigkilled_by_watchdog = false;
    slot.last_event = Clock::now();
    slot.live = slot.child != nullptr;
    if (slot.live) ++workers_spawned;
  };

  // A shard whose manifest cannot be written or whose worker cannot be
  // spawned gets no slot: its jobs simply stay undelivered and run in the
  // in-process fallback below.
  std::vector<Slot> slots;
  for (int k = 0; k < plan.shards(); ++k) {
    const std::vector<std::uint64_t>& keys =
        plan.assignment[static_cast<std::size_t>(k)];
    if (keys.empty() ||
        !io::write_shard_manifest(shard_manifest_path(cache_dir, k), keys)) {
      continue;
    }
    Slot slot;
    slot.id = k;
    slot.pending.insert(keys.begin(), keys.end());
    spawn_worker(slot, /*respawn=*/false);
    if (slot.live) slots.push_back(std::move(slot));
  }

  // Watchdog budget: a worker whose engine is healthy polls cancellation
  // and emits SOMETHING at least once per job timeout; silence for twice
  // that (plus startup slack) means a stall no cooperative mechanism can
  // reclaim. Without a job timeout there is no line between slow and
  // stuck, so the watchdog stays off.
  const double watchdog_s = sopt.base.job_timeout_s > 0.0
                                ? 2.0 * sopt.base.job_timeout_s + 2.0
                                : 0.0;

  bool sigterm_sent = false;
  Clock::time_point sigterm_at;

  /// Processes one decoded event from `slot`.
  auto handle_event = [&](Slot& slot, const io::ShardEvent& ev) {
    slot.last_event = Clock::now();
    switch (ev.type) {
      case io::ShardEventType::kStart:
        slot.in_flight.insert(ev.key);
        break;
      case io::ShardEventType::kDone: {
        slot.in_flight.erase(ev.key);
        JobRecord rec;
        if (record_from_jsonl(ev.payload, rec)) {
          slot.pending.erase(ev.key);
          deliver_key(ev.key, std::move(rec));
        } else {
          ++heartbeat_drops;
        }
        break;
      }
      case io::ShardEventType::kSummary: {
        std::map<std::string, std::string> fields;
        if (io::parse_jsonl_object(ev.payload, fields)) {
          telemetry.merge_from(summary_from_fields(fields));
        } else {
          ++heartbeat_drops;
        }
        break;
      }
    }
  };

  /// The worker for `slot` is gone (reaped). Salvage its store, blame its
  /// in-flight jobs on a crash, then respawn it or leave the rest to the
  /// in-process fallback.
  auto handle_exit = [&](Slot& slot) {
    slot.live = false;
    const bool signaled = slot.child->term_signal() != 0;
    const int code = slot.child->exit_code();
    const bool crashed = signaled || !clean_exit_code(code);
    // Jobs the worker computed but whose done lines never arrived (lost to
    // a crash mid-write or an injected heartbeat drop) are already durable
    // in its shard store — records beat recomputation.
    if (!slot.pending.empty()) {
      for (JobRecord& rec :
           read_store_records((std::filesystem::path(cache_dir) /
                               shard_store_file(slot.id))
                                  .string())) {
        const std::uint64_t key = rec.key;
        if (slot.pending.erase(key) != 0) {
          slot.in_flight.erase(key);
          deliver_key(key, std::move(rec));
        }
      }
    }
    if (slot.pending.empty() || cancelled()) return;  // cancel: "skipped"
    if (crashed) {
      ++worker_crashes;
      const std::string cause =
          slot.sigkilled_by_watchdog
              ? std::string("worker stalled past the heartbeat watchdog")
          : signaled
              ? "worker died to signal " + std::to_string(slot.child->term_signal())
              : "worker exited with code " + std::to_string(code);
      // The jobs that were IN FLIGHT when the worker died are the crash
      // suspects; each gets a bounded number of second chances before it
      // is quarantined as the likely cause.
      for (const std::uint64_t key : slot.in_flight) {
        const auto it = index_of.find(key);
        if (slot.pending.count(key) == 0 || it == index_of.end()) continue;
        const int count = ++crash_count[key];
        if (count <= sopt.crash_retries) continue;
        const CampaignJob& job = jobs[it->second];
        JobRecord rec = summarize(spec.name, job, nullptr);
        rec.status = "failed";
        ledger.append(spec.name, job, rec.status, cause, count);
        slot.pending.erase(key);
        emitter.emit(it->second, std::move(rec));
      }
    }
    const bool config_failure = !signaled && config_exit_code(code);
    if (slot.pending.empty() || config_failure ||
        slot.respawns >= kMaxRespawns) {
      return;
    }
    ++slot.respawns;
    ++worker_respawns;
    spawn_worker(slot, /*respawn=*/true);
  };

  // --- Supervision loop -----------------------------------------------------
  std::vector<std::string> lines;
  for (;;) {
    bool any_live = false;
    bool progressed = false;
    for (Slot& slot : slots) {
      if (!slot.live) continue;
      any_live = true;
      lines.clear();
      const bool open = slot.child->read_available(lines);
      for (const std::string& line : lines) {
        progressed = true;
        if (const auto ev = io::decode_shard_event(line)) {
          handle_event(slot, *ev);
        } else {
          ++heartbeat_drops;  // torn/corrupt status line: tolerated
        }
      }
      if (!open && slot.child->poll_exit()) {
        progressed = true;
        handle_exit(slot);
        continue;
      }
      if (cancelled()) continue;  // cancel path below owns signaling
      if (watchdog_s > 0.0 && !slot.sigkilled_by_watchdog &&
          std::chrono::duration<double>(Clock::now() - slot.last_event)
                  .count() > watchdog_s) {
        slot.sigkilled_by_watchdog = true;
        slot.child->signal_now(SIGKILL);
      }
    }
    if (!any_live) break;
    if (cancelled()) {
      if (!sigterm_sent) {
        sigterm_sent = true;
        sigterm_at = Clock::now();
        for (Slot& slot : slots) {
          if (slot.live) slot.child->signal_now(SIGTERM);
        }
      } else if (std::chrono::duration<double>(Clock::now() - sigterm_at)
                     .count() > 5.0) {
        for (Slot& slot : slots) {
          if (slot.live) slot.child->signal_now(SIGKILL);
        }
      }
    }
    if (!progressed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  // --- Degradation: whatever no worker delivered runs in-process ------------
  if (!cancelled()) {
    std::vector<std::uint64_t> missing;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (!emitter.has(i)) missing.push_back(jobs[i].key);
    }
    if (!missing.empty()) {
      fallback_jobs = static_cast<std::int64_t>(missing.size());
      CampaignOptions fopt = sopt.base;
      fopt.stream = nullptr;  // the supervisor's emitter re-emits
      fopt.on_record = nullptr;
      fopt.job_keys = &missing;
      fopt.on_job_start = nullptr;
      CampaignResult fres = run_campaign(spec, fopt);
      telemetry.merge_from(fres.metrics);
      for (JobRecord& rec : fres.records) {
        const std::uint64_t key = rec.key;
        deliver_key(key, std::move(rec));
      }
    }
  }
  // Interrupted (or pathological) leftovers: emit "skipped" so the stream
  // stays one-record-per-job — exactly what the single-process engine does.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (emitter.has(i)) continue;
    JobRecord rec = summarize(spec.name, jobs[i], nullptr);
    rec.status = "skipped";
    emitter.emit(i, std::move(rec));
  }

  out.merge = merge_shard_stores(cache_dir, &order_keys);
  result.records = emitter.take();

  // Outcome counters come from the delivered records (ground truth that
  // survives worker crashes), telemetry from the worker summaries; the
  // supervisor's own counters follow the canonical fields.
  result.metrics = campaign_summary(jobs, result.records, telemetry, cancelled());
  obs::Registry& m = result.metrics;
  m.add("shards", plan.shards());
  m.add("workers_spawned", workers_spawned);
  m.add("worker_crashes", worker_crashes);
  m.add("worker_respawns", worker_respawns);
  m.add("fallback_jobs", fallback_jobs);
  m.add("heartbeat_drops", heartbeat_drops);
  m.add("merge_duplicates", static_cast<std::int64_t>(out.merge.duplicates));
  m.add("merge_conflicts", static_cast<std::int64_t>(out.merge.conflicts));
  m.add("merge_quarantined", static_cast<std::int64_t>(out.merge.quarantined));
  result.wall_s =
      std::chrono::duration<double>(Clock::now() - t_start).count();
  return out;
}

}  // namespace vinoc::campaign
