#include "vinoc/campaign/engine.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_set>
#include <utility>

#include "record_path.hpp"
#include "vinoc/campaign/spec_hash.hpp"
#include "vinoc/core/candidates.hpp"
#include "vinoc/core/explore.hpp"
#include "vinoc/exec/cancel.hpp"
#include "vinoc/exec/parallel_for.hpp"
#include "vinoc/exec/thread_pool.hpp"
#include "vinoc/obs/trace.hpp"

namespace vinoc::campaign {

namespace {

/// Deterministic backoff jitter: splitmix64 over (job key, attempt), mapped
/// to [0.5, 1.0) — no global RNG, so two runs of the same campaign back off
/// identically.
double backoff_jitter(std::uint64_t key, int attempt) {
  std::uint64_t x =
      0x2545f4914f6cdd1dull ^ key ^ (static_cast<std::uint64_t>(attempt) << 48);
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return 0.5 + 0.5 * static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// Outcome of a supervised synthesis that did not succeed.
struct JobFailure {
  const char* status;  ///< "failed" | "timeout" | "skipped"
  std::string error;
  int attempts;
};

}  // namespace

std::string CampaignResult::to_jsonl(bool include_timing) const {
  std::string text;
  for (const JobRecord& rec : records) {
    text += record_to_jsonl(rec, include_timing);
    text += '\n';
  }
  return text;
}

CampaignResult run_campaign(const CampaignSpec& spec,
                            const CampaignOptions& options) {
  OBS_SPAN("run_campaign");
  const auto t_start = std::chrono::steady_clock::now();
  CampaignResult out;
  std::vector<CampaignJob> jobs = expand_jobs(spec, &out.expand);
  if (options.job_keys != nullptr) {
    // Shard filter: keep only the jobs this process owns. Expansion ran in
    // full above, so job names/ordering match every other shard and the
    // supervisor can merge streams by global job order.
    const std::unordered_set<std::uint64_t> mine(options.job_keys->begin(),
                                                 options.job_keys->end());
    std::vector<CampaignJob> kept;
    kept.reserve(mine.size());
    for (CampaignJob& job : jobs) {
      if (mine.count(job.key) != 0) kept.push_back(std::move(job));
    }
    jobs = std::move(kept);
  }

  ResultCache own_cache(options.cache != nullptr ? std::string()
                                                 : options.cache_dir);
  ResultCache& cache = options.cache != nullptr ? *options.cache : own_cache;
  if (options.cache == nullptr && options.store_max_bytes > 0) {
    own_cache.set_store_max_bytes(options.store_max_bytes);
  }
  // Load the store whenever one exists — a non-resume run ignores the
  // loaded records for scheduling (it recomputes every job) but must know
  // which keys are already on disk so put_record does not append duplicate
  // lines run after run. Resume additionally serves jobs from them. v2:
  // this is also the recovery pass that quarantines crash-torn lines.
  cache.load_store();

  // The campaign-level cancel token: chains the external interrupt
  // (SIGINT/SIGTERM) and carries the --deadline budget. Every job's own
  // token chains IT, so one cancel reaches every in-flight candidate poll.
  exec::CancelToken campaign_token(options.cancel);
  if (options.deadline_s > 0.0) {
    campaign_token.set_deadline(
        t_start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(options.deadline_s)));
  }

  // Quarantine ledger: one checksummed line per job that ended "failed" or
  // "timeout", beside the store (memory-only runs keep counters only).
  FailureLedger ledger(
      cache.dir().empty()
          ? std::string()
          : (std::filesystem::path(cache.dir()) / options.failed_file).string());
  RecordEmitter emitter(options, jobs.size());
  // Telemetry counters accumulate in per-worker obs registry shards
  // (integer sums; the buffered-outcome high-water as a kMax merge — each
  // group's peak is independent, so max-of-maxes is exact) and merge
  // deterministically after the pool joins. The outcome counters are
  // derived from the records afterwards (campaign_summary).
  obs::ShardedRegistry metrics;

  // The campaign-level structure cache: jobs that differ ONLY in
  // link_width_bits share every width-invariant input (floorplan, traffic,
  // min-cut partitions, candidate enumeration), so they are grouped under
  // the width-excluded content hash and synthesized TOGETHER through
  // core::synthesize_width_set — one structure pass per group instead of
  // one per width. Grouping never changes results (each width's result is
  // bit-identical to a synthesize() of that job) nor the record stream
  // (records are emitted in job order either way).
  std::vector<std::vector<std::size_t>> groups;
  {
    std::map<std::uint64_t, std::size_t> group_of;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const auto [it, inserted] =
          group_of.emplace(jobs[i].structure_key, groups.size());
      if (inserted) groups.emplace_back();
      groups[it->second].push_back(i);
    }
  }

  exec::ThreadPool pool(options.threads);
  // One scratch-arena pool for the whole campaign: each worker strand keeps
  // its evaluation buffers (router state, metrics accumulators, ...) across
  // every job and candidate it touches, so a thousand-job batch allocates
  // them once per strand instead of once per job.
  core::EvalScratchPool scratch;

  /// Serves job i from the cache tiers; true when a record was emitted.
  auto serve_from_cache = [&](std::size_t i) -> bool {
    const CampaignJob& job = jobs[i];
    JobRecord rec;
    if (options.resume) {
      if (auto stored = cache.find_record(job.key)) {
        // Payload from the store, identity from THIS campaign (the store is
        // content-addressed and may have been written by another campaign
        // over the same jobs).
        rec = std::move(*stored);
        rec.campaign = spec.name;
        rec.job = job.name;
        rec.scenario = job.scenario;
        rec.strategy = job.strategy;
        rec.islands = job.islands;
        rec.width = job.width;
        rec.seed = job.seed;
        rec.cache_hit = true;
        emitter.emit(i, std::move(rec));
        return true;
      }
    }
    if (auto result = cache.find_result(job.key)) {
      rec = summarize(spec.name, job, result.get());
      rec.cache_hit = true;  // wall_ms stays 0: the hit costs nothing
      JobRecord stored = rec;
      stored.cache_hit = false;  // the store holds computed-job records
      cache.put_record(stored);
      emitter.emit(i, std::move(rec));
      return true;
    }
    return false;
  };

  /// Emits a freshly computed job (result == nullptr for infeasible).
  auto emit_computed = [&](std::size_t i,
                           std::shared_ptr<const core::SynthesisResult> result,
                           double wall_ms) {
    const CampaignJob& job = jobs[i];
    JobRecord rec = summarize(spec.name, job, result.get());
    rec.wall_ms = wall_ms;
    if (result != nullptr) cache.put_result(job.key, result);
    cache.put_record(rec);  // cache_hit is false here by construction
    emitter.emit(i, std::move(rec));
  };

  /// Emits a job that supervision gave up on. Failed/skipped records carry
  /// the status field, never enter the store (a later --resume retries
  /// them), and failed/timeout jobs are mirrored to failed.jsonl.
  auto emit_failed = [&](std::size_t i, const JobFailure& failure) {
    const CampaignJob& job = jobs[i];
    JobRecord rec = summarize(spec.name, job, nullptr);
    rec.status = failure.status;
    if (rec.status != "skipped") {
      ledger.append(spec.name, job, failure.status, failure.error,
                    failure.attempts);
    }
    emitter.emit(i, std::move(rec));
  };

  /// Supervision policy around one synthesis call: per-attempt child token
  /// (job timeout on top of deadline/interrupt), retry with exponential
  /// backoff + deterministic jitter for transient failures, quarantine when
  /// retries are exhausted. `fn` must handle InfeasibleWidthError itself —
  /// an infeasible width is a RESULT, not a failure. Returns nullopt on
  /// success.
  auto supervised = [&](std::uint64_t job_key,
                        const std::function<void(const exec::CancelToken&)>& fn)
      -> std::optional<JobFailure> {
    for (int attempt = 0;; ++attempt) {
      if (campaign_token.cancelled()) {
        return JobFailure{"skipped",
                          campaign_token.flag_cancelled() ? "interrupted"
                                                          : "deadline exceeded",
                          attempt};
      }
      exec::CancelToken job_token(&campaign_token);
      if (options.job_timeout_s > 0.0) {
        job_token.set_timeout(options.job_timeout_s);
      }
      try {
        fn(job_token);
        return std::nullopt;
      } catch (const exec::CancelledError& e) {
        if (campaign_token.cancelled()) {
          return JobFailure{"skipped",
                            campaign_token.flag_cancelled()
                                ? "interrupted"
                                : "deadline exceeded",
                            attempt + 1};
        }
        // The job's own deadline fired: a timeout, and not worth retrying —
        // the same work would run past the same budget again.
        return JobFailure{"timeout", e.what(), attempt + 1};
      } catch (const std::invalid_argument&) {
        throw;  // spec/option errors are caller bugs, not transient faults
      } catch (const std::exception& e) {
        if (attempt >= options.max_retries) {
          return JobFailure{"failed", e.what(), attempt + 1};
        }
        metrics.local().add("retries", 1);
        const double sleep_ms =
            std::min(options.retry_backoff_ms * static_cast<double>(1 << attempt) *
                         backoff_jitter(job_key, attempt),
                     5000.0);
        if (sleep_ms > 0.0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(sleep_ms));
        }
      }
    }
  };

  exec::parallel_for_each(pool, groups.size(), [&](std::size_t g) {
    OBS_SPAN("campaign_group");
    std::vector<std::size_t> compute;
    for (const std::size_t i : groups[g]) {
      if (!serve_from_cache(i)) compute.push_back(i);
    }
    if (compute.empty()) return;
    // Every width still to compute over identical structure inputs goes
    // through one width-set synthesis; a single job is its one-width case.
    // Infeasible widths come back as infeasible entries; the group's wall
    // time is amortised uniformly over its jobs, and the supervision
    // policy treats the whole group as one job (one timeout budget, one
    // retry counter; a group failure fails all its members).
    const CampaignJob& first = jobs[compute.front()];
    if (options.on_job_start) {
      for (const std::size_t i : compute) options.on_job_start(jobs[i]);
    }
    std::vector<int> widths;
    widths.reserve(compute.size());
    for (const std::size_t i : compute) widths.push_back(jobs[i].width);
    const auto t0 = std::chrono::steady_clock::now();
    core::WidthSetStats set_stats;
    std::vector<core::WidthSweepEntry> entries;
    const std::optional<JobFailure> failure =
        supervised(first.key, [&](const exec::CancelToken& token) {
          core::SynthesisOptions gopt = first.options;
          gopt.cancel = &token;
          set_stats = core::WidthSetStats{};
          entries = core::synthesize_width_set(first.spec, widths, gopt, pool,
                                               scratch, &set_stats);
        });
    if (failure.has_value()) {
      for (const std::size_t i : compute) emit_failed(i, *failure);
      return;
    }
    {
      obs::Registry& shard = metrics.local();
      // A memory bound, not a throughput counter: max-merged across shards.
      shard.record_max("peak_buffered_outcomes",
                       set_stats.peak_buffered_outcomes);
      shard.add("delta_candidates", set_stats.delta_candidates);
      shard.add("delta_flows_reused", set_stats.delta_flows_reused);
      shard.add("delta_flows_certified", set_stats.delta_flows_certified);
      shard.add("delta_flows_rerouted", set_stats.delta_flows_rerouted);
      shard.add("delta_cert_rejects", set_stats.delta_cert_rejects);
    }
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count() /
                           static_cast<double>(compute.size());
    for (std::size_t j = 0; j < compute.size(); ++j) {
      std::shared_ptr<const core::SynthesisResult> result;
      if (entries[j].feasible) {
        result = std::make_shared<core::SynthesisResult>(
            std::move(entries[j].result));
      }
      emit_computed(compute[j], std::move(result), wall_ms);
    }
  });

  out.records = emitter.take();
  obs::Registry telemetry = metrics.merged();
  telemetry.add("recovered_records",
                static_cast<std::int64_t>(cache.recovered_records()));
  telemetry.add("evicted_records",
                static_cast<std::int64_t>(cache.evicted_records()));
  telemetry.add("store_write_errors",
                static_cast<std::int64_t>(cache.store_write_errors()));
  out.metrics = campaign_summary(
      jobs, out.records, telemetry,
      options.cancel != nullptr && options.cancel->cancelled());
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t_start)
                   .count();
  return out;
}

}  // namespace vinoc::campaign
