// Per-layer metrics of the traced run: probes that time single layer calls
// from outside, counters from SynthesisResult::stats / WidthSetStats, the
// obs phase profile, and span/record/progress timestamps.
#include <cstring>
#include <filesystem>

#include "bench.hpp"
#include "vinoc/campaign/engine.hpp"
#include "vinoc/campaign/result_cache.hpp"
#include "vinoc/campaign/shard_merge.hpp"
#include "vinoc/core/frequency.hpp"
#include "vinoc/core/pareto.hpp"
#include "vinoc/floorplan/floorplan.hpp"
#include "vinoc/io/shard_wire.hpp"

namespace perfbench {

namespace campaign = vinoc::campaign;
namespace core = vinoc::core;
namespace obs = vinoc::obs;

namespace {

/// Accumulates the wall time of the scopes it times.
class Stopwatch {
 public:
  explicit Stopwatch(double& total) : total_(total), t0_(Clock::now()) {}
  ~Stopwatch() { total_ += seconds_since(t0_); }
  Stopwatch(const Stopwatch&) = delete;
  Stopwatch& operator=(const Stopwatch&) = delete;

 private:
  double& total_;
  Clock::time_point t0_;
};

std::vector<double> gaps(const std::vector<double>& times, double scale) {
  std::vector<double> out;
  for (std::size_t i = 1; i < times.size(); ++i) {
    out.push_back((times[i] - times[i - 1]) * scale);
  }
  return out;
}

}  // namespace

Probes run_probes(const Setup& setup, const OpResult& computed, const OpResult& op,
                  CheckTally& tally) {
  Probes p;
  vinoc::exec::ThreadPool pool(1);
  // floorplan / partition: once per width group (the work the engine and
  // the sweep share across widths); enumeration: once per job.
  for (const auto& group : setup.groups) {
    const campaign::CampaignJob& job = setup.jobs[group.front()];
    {
      const obs::Span span("bench.floorplan_build");
      const Stopwatch sw(p.floorplan_s);
      const auto fp = vinoc::floorplan::Floorplan::build(job.spec, job.options.floorplan);
      (void)fp;
    }
    for (const std::size_t i : group) {
      const campaign::CampaignJob& member = setup.jobs[i];
      const std::vector<core::IslandNocParams> params = core::derive_island_params(
          member.spec, member.options.tech, member.width, member.options.port_reserve);
      std::vector<core::CandidateConfig> candidates;
      {
        const obs::Span span("bench.enumerate_candidates");
        const Stopwatch sw(p.enumerate_s);
        candidates = core::enumerate_candidates(member.spec, params, member.options);
      }
      p.candidates += static_cast<long long>(candidates.size());
      if (i != group.front()) continue;
      const obs::Span span("bench.compute_partitions");
      const Stopwatch sw(p.partition_s);
      const core::PartitionTable table = core::compute_partitions(
          member.spec, member.options, params, candidates, pool);
      p.partition_problems += static_cast<long long>(table.size());
    }
  }
  // metrics / pareto: re-run on every saved point of every result.
  core::MetricsScratch scratch;
  for (std::size_t i = 0; i < setup.jobs.size(); ++i) {
    const auto& result = computed.jobs.at(i).result;
    if (!result) continue;
    const campaign::CampaignJob& job = setup.jobs[i];
    {
      const obs::Span span("bench.compute_metrics");
      const Stopwatch sw(p.metrics_s);
      for (const core::DesignPoint& point : result->points) {
        const core::Metrics m = core::compute_metrics(point.topology, job.spec,
                                                      job.options.tech, job.width,
                                                      &scratch);
        (void)m;
      }
    }
    std::vector<std::size_t> refs(result->points.size());
    for (std::size_t k = 0; k < refs.size(); ++k) refs[k] = k;
    std::vector<std::size_t> front;
    {
      const obs::Span span("bench.pareto_front");
      const Stopwatch sw(p.pareto_s);
      front = core::pareto_front(std::move(refs), [&](std::size_t k) -> const core::Metrics& {
        return result->points[k].metrics;
      });
    }
    if (front != result->pareto) {
      ++tally.qor_mismatches;
      tally.note(job.name + ": pareto_front disagrees with the result's front");
    }
  }
  {
    const obs::Span span("bench.expand_jobs");
    const Stopwatch sw(p.expand_s);
    const auto jobs = campaign::expand_jobs(setup.spec);
    (void)jobs;
  }
  if (!op.store_dir.empty()) {
    {
      const obs::Span span("bench.load_store");
      const Stopwatch sw(p.store_load_s);
      campaign::ResultCache cache(op.store_dir);
      (void)cache.load_store();
      p.store_records = static_cast<long long>(cache.record_count());
    }
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(op.store_dir + "/store.jsonl", ec);
    p.store_bytes = ec ? 0 : static_cast<long long>(bytes);
    const obs::Span span("bench.verify_stores");
    const Stopwatch sw(p.store_verify_s);
    if (!campaign::verify_stores(op.store_dir).clean()) {
      ++tally.qor_mismatches;
      tally.note("verify_stores reports a damaged store");
    }
  }
  // Record and wire codecs over the op's records: one record line, and one
  // start plus one done event per record.
  std::vector<std::string> lines;
  {
    const obs::Span span("bench.record_to_jsonl");
    const Stopwatch sw(p.record_encode_s);
    for (const JobOutput& job : op.jobs) lines.push_back(campaign::record_to_jsonl(job.record));
  }
  {
    const obs::Span span("bench.record_from_jsonl");
    const Stopwatch sw(p.record_decode_s);
    for (const std::string& line : lines) {
      campaign::JobRecord rec;
      if (!campaign::record_from_jsonl(line, rec)) {
        ++tally.qor_mismatches;
        tally.note("record_from_jsonl rejects its own output");
      }
    }
  }
  std::vector<std::string> events;
  {
    const obs::Span span("bench.encode_shard_event");
    const Stopwatch sw(p.wire_encode_s);
    for (std::size_t i = 0; i < op.jobs.size(); ++i) {
      const std::uint64_t key = op.jobs[i].record.key;
      events.push_back(vinoc::io::encode_shard_event(
          {vinoc::io::ShardEventType::kStart, key, std::string()}));
      events.push_back(vinoc::io::encode_shard_event(
          {vinoc::io::ShardEventType::kDone, key, lines[i]}));
    }
  }
  {
    const obs::Span span("bench.decode_shard_event");
    const Stopwatch sw(p.wire_decode_s);
    for (const std::string& event : events) {
      if (!vinoc::io::decode_shard_event(event)) {
        ++tally.qor_mismatches;
        tally.note("decode_shard_event rejects its own output");
      }
    }
  }
  return p;
}

std::vector<Metric> layer_metrics(const Config& config, const LayerInputs& in) {
  const OpResult& traced = *in.traced;
  const OpResult& untraced = *in.untraced;
  const Probes& p = in.probes;
  const bool campaign_kind = config.kind == Kind::kCampaign || config.kind == Kind::kSharded;
  const auto threads = static_cast<double>(workload_threads(config.kind));

  // Candidate outcome, delta and sharing counters: summed over every
  // result's SynthesisStats (the campaign summary drops solo-job deltas).
  core::SynthesisStats sum;
  for (const JobOutput& job : in.computed->jobs) {
    if (!job.result) continue;
    const core::SynthesisStats& s = job.result->stats;
    sum.configs_explored += s.configs_explored;
    sum.configs_routed += s.configs_routed;
    sum.configs_saved += s.configs_saved;
    sum.rejected_pruned += s.rejected_pruned;
    sum.rejected_latency += s.rejected_latency;
    sum.rejected_unroutable += s.rejected_unroutable;
    sum.rejected_deadlock += s.rejected_deadlock;
    sum.rejected_duplicate += s.rejected_duplicate;
    sum.delta_candidates += s.delta_candidates;
    sum.delta_flows_reused += s.delta_flows_reused;
    sum.delta_flows_certified += s.delta_flows_certified;
    sum.delta_flows_rerouted += s.delta_flows_rerouted;
    sum.width_shared += s.width_shared;
    sum.width_fallback += s.width_fallback;
    sum.width_certified += s.width_certified;
    sum.width_cohort += s.width_cohort;
    sum.peak_buffered_outcomes = std::max(sum.peak_buffered_outcomes, s.peak_buffered_outcomes);
  }
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const auto summary = [](const OpResult& op, const char* name) {
    const auto it = op.summary.find(name);
    return it == op.summary.end() ? 0.0 : it->second;
  };
  double certificate_accepts = 0.0;
  if (config.kind == Kind::kSweep) {
    certificate_accepts = traced.width_stats.certificate_accepts;
  } else if (campaign_kind) {
    certificate_accepts = summary(*in.computed, "certificate_accepts");
  }

  // Per-candidate evaluation times: on_progress gaps at threads=1 for the
  // synth and sweep; the program's own candidate spans for campaigns.
  std::vector<double> eval_us;
  if (campaign_kind) {
    for (const obs::TraceEvent& e : in.snapshot->events) {
      if (std::strcmp(e.name, "candidate") == 0 || std::strcmp(e.name, "sweep_unit") == 0) {
        eval_us.push_back(static_cast<double>(e.dur_ns) * 1e-3);
      }
    }
  } else {
    eval_us = gaps(traced.progress_s, 1e6);
  }
  const std::vector<double> record_gaps_ms = gaps(traced.record_s, 1e3);
  const double first_record_s =
      traced.record_s.empty() ? traced.wall_s : traced.record_s.front();

  const auto phase = [&in](obs::Phase ph, bool cpu) {
    const auto& t = in.phases.phase[static_cast<std::size_t>(ph)];
    return static_cast<double>(cpu ? t.cpu_ns : t.wall_ns) * 1e-9;
  };
  const double explored = sum.configs_explored;
  const double reused = static_cast<double>(sum.delta_flows_reused + sum.delta_flows_certified);
  const double followers = sum.width_shared + sum.width_fallback;

  return {
      {"floorplan.build_s", "s", p.floorplan_s},
      {"partition.compute_s", "s", p.partition_s},
      {"partition.problems", "count", static_cast<double>(p.partition_problems)},
      {"partition.cache_hits", "count",
       static_cast<double>(traced.width_stats.partition_cache_hits)},
      {"core.enumerate_s", "s", p.enumerate_s},
      {"core.candidates", "count", static_cast<double>(p.candidates)},
      {"core.eval_us_p50", "us", quantile(eval_us, 0.50)},
      {"core.eval_us_p99", "us", quantile(eval_us, 0.99)},
      {"core.explored", "count", explored},
      {"core.routed", "count", static_cast<double>(sum.configs_routed)},
      {"core.saved", "count", static_cast<double>(sum.configs_saved)},
      {"core.pruned", "count", static_cast<double>(sum.rejected_pruned)},
      {"core.rejected_latency", "count", static_cast<double>(sum.rejected_latency)},
      {"core.rejected_unroutable", "count", static_cast<double>(sum.rejected_unroutable)},
      {"core.rejected_deadlock", "count", static_cast<double>(sum.rejected_deadlock)},
      {"core.rejected_duplicate", "count", static_cast<double>(sum.rejected_duplicate)},
      {"core.saved_rate", "ratio", ratio(sum.configs_saved, explored)},
      {"core.prune_rate", "ratio", ratio(sum.rejected_pruned, explored)},
      {"core.delta_candidates", "count", static_cast<double>(sum.delta_candidates)},
      {"core.delta_flows_reused", "count", static_cast<double>(sum.delta_flows_reused)},
      {"core.delta_flows_rerouted", "count", static_cast<double>(sum.delta_flows_rerouted)},
      {"core.delta_reuse_rate", "ratio",
       ratio(reused, reused + static_cast<double>(sum.delta_flows_rerouted))},
      {"core.width_shared_evals", "count", static_cast<double>(sum.width_shared)},
      {"core.width_fallback_evals", "count", static_cast<double>(sum.width_fallback)},
      {"core.width_certified_evals", "count", static_cast<double>(sum.width_certified)},
      {"core.width_cohort_evals", "count", static_cast<double>(sum.width_cohort)},
      {"core.certificate_accepts", "count", certificate_accepts},
      {"core.shared_rate", "ratio", ratio(sum.width_shared, followers)},
      {"core.peak_buffered_outcomes", "count", static_cast<double>(sum.peak_buffered_outcomes)},
      {"phase.route_wall_s", "s", phase(obs::Phase::kRoute, false)},
      {"phase.partition_wall_s", "s", phase(obs::Phase::kPartition, false)},
      {"phase.metrics_wall_s", "s", phase(obs::Phase::kMetrics, false)},
      {"phase.prune_wall_s", "s", phase(obs::Phase::kPrune, false)},
      {"phase.merge_wall_s", "s", phase(obs::Phase::kMerge, false)},
      {"phase.route_cpu_s", "s", phase(obs::Phase::kRoute, true)},
      {"core.metrics_s", "s", p.metrics_s},
      {"core.pareto_s", "s", p.pareto_s},
      {"exec.cpu_util", "ratio", ratio(untraced.cpu_s, untraced.wall_s * threads)},
      {"campaign.expand_s", "s", p.expand_s},
      {"campaign.store_load_s", "s", p.store_load_s},
      {"campaign.store_records", "count", static_cast<double>(p.store_records)},
      {"campaign.store_bytes", "bytes", static_cast<double>(p.store_bytes)},
      {"campaign.first_record_s", "s", first_record_s},
      {"campaign.record_gap_ms_p50", "ms", quantile(record_gaps_ms, 0.50)},
      {"campaign.record_gap_ms_p99", "ms", quantile(record_gaps_ms, 0.99)},
      {"campaign.retries", "count", summary(traced, "retries")},
      {"campaign.quarantined", "count", summary(traced, "quarantined_jobs")},
      {"campaign.skipped", "count", summary(traced, "skipped_jobs")},
      {"campaign.store_write_errors", "count", summary(traced, "store_write_errors")},
      {"io.spec_write_s", "s", in.spec_write_s},
      {"io.spec_parse_s", "s", in.spec_parse_s},
      {"io.record_encode_s", "s", p.record_encode_s},
      {"io.record_decode_s", "s", p.record_decode_s},
      {"io.wire_encode_s", "s", p.wire_encode_s},
      {"io.wire_decode_s", "s", p.wire_decode_s},
      {"campaign.shard_workers_spawned", "count", summary(traced, "workers_spawned")},
      {"campaign.shard_worker_crashes", "count", summary(traced, "worker_crashes")},
      {"campaign.shard_fallback_jobs", "count", summary(traced, "fallback_jobs")},
      {"campaign.shard_idle_core_s", "s", untraced.wall_s * threads - untraced.cpu_s},
      {"campaign.store_verify_s", "s", p.store_verify_s},
      {"trace.overhead_s", "s", traced.wall_s - untraced.wall_s},
  };
}

}  // namespace perfbench
