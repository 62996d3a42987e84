// Shared types of vinoc_perfbench, the vinoc benchmark program.
//
// It runs one workload per process (see perfbench/README.md):
//
//   synth-d64         one core::synthesize() of d64 / logical-2 / w32
//   sweep-fine        core::explore_link_widths() over 12 fine-grid cases
//   campaign-mix      in-process campaign::run_campaign() of 432 jobs
//   campaign-sharded  the same matrix through `vinoc campaign --shards 2`
//
// Every workload is described by a campaign matrix (the .campaign text
// format), so one expansion gives every workload its jobs, content keys and
// islanded specs, and the same checks (golden QoR, invariant audit, store
// resume) apply to all four.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "vinoc/campaign/campaign_spec.hpp"
#include "vinoc/campaign/report.hpp"
#include "vinoc/core/candidates.hpp"
#include "vinoc/core/explore.hpp"
#include "vinoc/exec/thread_pool.hpp"
#include "vinoc/obs/profile.hpp"
#include "vinoc/obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linearly interpolated quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
[[nodiscard]] inline double median(const std::vector<double>& v) {
  return quantile(v, 0.5);
}

/// User+sys CPU seconds of this process and its reaped children.
[[nodiscard]] double cpu_seconds();
/// Peak resident set of this process or its largest reaped child, MiB.
[[nodiscard]] double peak_rss_mb();

/// Runs the calibration kernel (calib.cpp) on `threads` threads at once,
/// each doing the same fixed work, and returns their mean time. The mean
/// (not the slowest thread) tracks a pool that shares work across cores.
[[nodiscard]] double calibration_s(int threads);
/// What calibration_s takes on an unloaded core of the reference host; a
/// timing t measured next to a calibration c is reported as t * kRef / c.
inline constexpr double kCalibrationRefS = 0.1;

enum class Kind { kSynth, kSweep, kCampaign, kSharded };

/// The seed whose outputs the golden tables record.
inline constexpr unsigned kGoldenSeed = 1;

struct Config {
  std::string workload;
  Kind kind = Kind::kSynth;
  unsigned seed = kGoldenSeed;
  double seconds = 10.0;
  bool trace = false;
  bool write_golden = false;
  std::string work_dir;    ///< scratch: cache dirs, campaign file, logs
  std::string golden_dir;  ///< committed golden QoR tables
  std::string trace_path;  ///< Chrome trace written by a traced run
  std::string cli;         ///< the vinoc binary (campaign-sharded)
  std::string trace_check;
};

/// Thread budget of the workload's timed operation.
[[nodiscard]] int workload_threads(Kind kind);

/// The workload's job matrix in the .campaign text format.
[[nodiscard]] std::string campaign_text(Kind kind, unsigned seed);

/// Everything set-up builds; set-up is timed as setup_s.
struct Setup {
  std::string campaign_text;
  vinoc::campaign::CampaignSpec spec;             ///< parsed campaign_text
  std::vector<vinoc::campaign::CampaignJob> jobs;  ///< expand_jobs(spec)
  /// Jobs that differ only in link width, in job order (the campaign
  /// engine's width groups; one explore_link_widths() case each).
  std::vector<std::vector<std::size_t>> groups;
  double spec_write_s = 0.0;  ///< write_soc_spec over every group's spec
  double spec_parse_s = 0.0;  ///< parse_soc_spec_string of those texts
  int roundtrip_mismatches = 0;  ///< .soc text not a fixed point
  std::string campaign_path;  ///< campaign file the CLI reads
  std::unique_ptr<vinoc::exec::ThreadPool> pool;
  std::unique_ptr<vinoc::core::EvalScratchPool> scratch;
};

[[nodiscard]] Setup make_setup(const Config& config);

/// One job's output. `result` is null for an infeasible job and for jobs
/// computed out of process (campaign-sharded records).
struct JobOutput {
  std::shared_ptr<const vinoc::core::SynthesisResult> result;
  vinoc::campaign::JobRecord record;
  std::string line;  ///< the record's JSONL line as the op emitted it
};

/// One timed operation and what it produced.
struct OpResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< user+sys, children included
  bool threw = false;
  std::string error;
  std::vector<JobOutput> jobs;  ///< parallel to Setup::jobs
  std::string dir;              ///< the op's scratch dir, if any
  std::string store_dir;        ///< store holding the records, if any
  /// Sweep-structured sharing telemetry summed over the op's width sets.
  vinoc::core::WidthSetStats width_stats;
  /// Campaign registry counters (in-process engine or the CLI's
  /// resume_summary line).
  std::map<std::string, double> summary;
  std::vector<double> progress_s;  ///< on_progress times since op start
  std::vector<double> record_s;    ///< record arrival times since op start
};

/// Runs `argv` with stdout on a pipe (each line time-stamped on arrival,
/// relative to `t0`) and stderr to `stderr_path`; waits for the child.
/// Returns its exit code, or -1 when it died to a signal or did not start.
int run_child(const std::vector<std::string>& argv, const std::string& stderr_path,
              Clock::time_point t0, std::vector<double>& line_times);

/// Runs the workload's operation once; `index` names its scratch dirs.
/// `observe` installs the progress/record hooks of the traced run.
[[nodiscard]] OpResult run_op(const Config& config, Setup& setup, int index,
                              bool observe);

/// Writes the op's records to a store under the work dir when the op did
/// not leave one (synth, sweep), so every workload can be resumed.
void ensure_store(const Config& config, const Setup& setup, OpResult& op);

/// One resume pass: a fresh ResultCache over `store_dir` and a resume run of
/// the workload's matrix. Returns the pass's wall time; `records` receives
/// the served records.
[[nodiscard]] double resume_pass(const Setup& setup, const std::string& store_dir,
                                 int threads,
                                 std::vector<vinoc::campaign::JobRecord>& records);

/// In-process reference run of the campaign matrix (campaign-sharded's
/// results for the audit, golden table and stream-equality check).
[[nodiscard]] OpResult reference_campaign(const Config& config, Setup& setup);

// --- checks (outside every timed region) ------------------------------------

struct CheckTally {
  long long qor_mismatches = 0;
  long long audit_violations = 0;
  long long audited_points = 0;
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> notes;  ///< first few problems, for stderr
  void note(const std::string& line);
};

/// Record line without the measured wall_ms field (byte-level strip).
[[nodiscard]] std::string strip_wall_ms(const std::string& line);
/// The op's record stream, wall_ms stripped, one line per job.
[[nodiscard]] std::string normalized_stream(const OpResult& op);

/// Counts failed jobs of one op (thrown call, status != "ok", infeasible).
void tally_failures(const Setup& setup, const OpResult& op, CheckTally& tally);

/// Runs the seven-invariant audit on every design point of `op`.
void audit_outputs(const Setup& setup, const OpResult& op, CheckTally& tally);

/// Compares `op` against the committed golden table (no-op when the table
/// does not apply to this seed). Returns false when it does not apply.
bool compare_golden(const Config& config, const Setup& setup, const OpResult& op,
                    CheckTally& tally);

/// Writes the golden table for `op` (the --write-golden mode).
void write_golden(const Config& config, const Setup& setup, const OpResult& op);

// --- per-layer metrics of the traced run ------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Layer calls the benchmark times itself on the workload's inputs and
/// outputs, each inside a trace span.
struct Probes {
  double floorplan_s = 0.0;
  double partition_s = 0.0;
  long long partition_problems = 0;
  double enumerate_s = 0.0;
  long long candidates = 0;
  double metrics_s = 0.0;
  double pareto_s = 0.0;
  double expand_s = 0.0;
  double store_load_s = 0.0;
  long long store_records = 0;
  long long store_bytes = 0;
  double store_verify_s = 0.0;
  double record_encode_s = 0.0;
  double record_decode_s = 0.0;
  double wire_encode_s = 0.0;
  double wire_decode_s = 0.0;
};

/// Runs the probes. `computed` holds the in-process results, `op` the
/// records and store of the traced operation. Disagreements between a
/// probe and the op's outputs count as QoR mismatches.
[[nodiscard]] Probes run_probes(const Setup& setup, const OpResult& computed,
                                const OpResult& op, CheckTally& tally);

struct LayerInputs {
  const OpResult* untraced = nullptr;
  const OpResult* traced = nullptr;
  const OpResult* computed = nullptr;  ///< results source (traced or reference)
  vinoc::obs::PhaseTotals phases;      ///< around the computing run
  const vinoc::obs::TraceSnapshot* snapshot = nullptr;
  Probes probes;
  double spec_write_s = 0.0;
  double spec_parse_s = 0.0;
};

[[nodiscard]] std::vector<Metric> layer_metrics(const Config& config,
                                                const LayerInputs& in);

/// Golden table file of a workload (campaign-mix and campaign-sharded share
/// one, because they run the same matrix).
[[nodiscard]] std::string golden_path(const Config& config);

}  // namespace perfbench
