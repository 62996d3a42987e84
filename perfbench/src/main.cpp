// vinoc_perfbench: runs one benchmark workload and prints its metrics.
//
//   vinoc_perfbench --workload <synth-d64|sweep-fine|campaign-mix|
//                               campaign-sharded>
//                   --seed N --seconds S --trace 0|1 --work-dir DIR
//                   [--golden-dir DIR] [--trace-out FILE] [--write-golden]
//
// --trace 0 measures the end-to-end metrics with tracing off: the
// workload's operation runs back to back for S seconds (at least three
// times); wall_s / cpu_s are medians over those runs. Between operations
// the run takes set-up and resume samples, so that every metric samples
// the whole run rather than one moment of it. Each timing is scaled to the
// reference host speed by the calibrations taken around it (calib.cpp).
// --trace 1 runs the operation once untraced and once traced, times single
// layer calls from outside, writes a Chrome trace and reports the per-layer
// metrics. Both modes check every output outside the timed regions (golden
// QoR table, invariant audit, store resume, sharded stream equality) and
// print, as the last line of stdout,
// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.hpp"
#include "vinoc/campaign/shard_merge.hpp"
#include "vinoc/io/obs_writers.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace campaign = vinoc::campaign;
namespace obs = vinoc::obs;

constexpr int kMinOps = 3;
// Set-up and resume samples: each is the mean of a batch of calls lasting
// at least kMinBatchS, so timer and cache noise of sub-millisecond calls
// averages out; kSamplesPerOp of each follow every operation.
constexpr double kMinBatchS = 0.1;
constexpr int kSamplesPerOp = 2;

/// Mean of `call()` (which returns its own duration) over a batch of calls
/// lasting at least kMinBatchS.
template <typename Call>
double batch_mean(Call&& call) {
  double total = 0.0;
  int n = 0;
  const Clock::time_point begin = Clock::now();
  do {
    total += call();
    ++n;
  } while (seconds_since(begin) < kMinBatchS);
  return total / n;
}

bool parse_args(int argc, char** argv, Config& c) {
  c.cli = VINOC_CLI_PATH;
  c.trace_check = VINOC_TRACE_CHECK_PATH;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (flag == "--workload") {
      c.workload = value();
    } else if (flag == "--seed") {
      c.seed = static_cast<unsigned>(std::strtoul(value().c_str(), nullptr, 10));
    } else if (flag == "--seconds") {
      c.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      c.trace = value() == "1";
    } else if (flag == "--work-dir") {
      c.work_dir = value();
    } else if (flag == "--golden-dir") {
      c.golden_dir = value();
    } else if (flag == "--trace-out") {
      c.trace_path = value();
    } else if (flag == "--write-golden") {
      c.write_golden = true;
    } else {
      return false;
    }
  }
  if (c.workload == "synth-d64") {
    c.kind = Kind::kSynth;
  } else if (c.workload == "sweep-fine") {
    c.kind = Kind::kSweep;
  } else if (c.workload == "campaign-mix") {
    c.kind = Kind::kCampaign;
  } else if (c.workload == "campaign-sharded") {
    c.kind = Kind::kSharded;
  } else {
    return false;
  }
  return !c.work_dir.empty() && c.seconds > 0.0;
}

/// One resume pass over the op's store, checked: every job must come back
/// as a cache hit carrying the op's record. Returns the pass's wall time.
double checked_resume(const Config& config, const Setup& setup, const OpResult& op,
                      CheckTally& tally) {
  std::vector<campaign::JobRecord> records;
  double wall = 0.0;
  {
    const obs::Span span("bench.resume");
    wall = resume_pass(setup, op.store_dir, workload_threads(config.kind), records);
  }
  std::string served;
  bool all_hits = true;
  for (campaign::JobRecord& rec : records) {
    all_hits = all_hits && rec.cache_hit;
    rec.cache_hit = false;
    served += strip_wall_ms(campaign::record_to_jsonl(rec));
    served += '\n';
  }
  if (!all_hits || served != normalized_stream(op)) {
    ++tally.qor_mismatches;
    tally.note("resume did not serve the finished store's records");
  }
  return wall;
}

/// Checks of the run's last operation: sharded stream equality and store
/// verification, invariant audit, golden table. Returns whether the golden
/// table applied.
bool post_checks(const Config& config, Setup& setup, const OpResult& op,
                 const OpResult* reference, CheckTally& tally) {
  if (op.threw) return false;
  OpResult own_reference;
  const OpResult* computed = &op;
  if (config.kind == Kind::kSharded) {
    if (reference == nullptr) {
      own_reference = reference_campaign(config, setup);
      reference = &own_reference;
    }
    computed = reference;
    if (reference->threw) {
      ++tally.qor_mismatches;
      tally.note("in-process reference campaign threw: " + reference->error);
      return false;
    }
    if (normalized_stream(op) != normalized_stream(*reference)) {
      ++tally.qor_mismatches;
      tally.note("sharded record stream differs from the in-process stream");
    }
    const campaign::VerifyStats verify = campaign::verify_stores(op.store_dir);
    if (!verify.clean()) {
      ++tally.qor_mismatches;
      tally.note("sharded store: " + verify.summary());
    }
  }
  {
    const obs::Span span("bench.audit");
    audit_outputs(setup, *computed, tally);
  }
  const obs::Span span("bench.golden");
  return compare_golden(config, setup, *computed, tally);
}

void print_metric(const Metric& m, const std::string& detail) {
  std::printf("  %-32s %14.6g %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
              detail.c_str());
}

/// "(median of n ...)" plus the highest percentile with >= 10 samples
/// beyond it, when that percentile lies above the median.
std::string sample_detail(const std::vector<double>& v, const char* what) {
  std::string out = "(median of " + std::to_string(v.size()) + " " + what;
  if (v.size() > 20) {
    const int pct = static_cast<int>(100.0 * static_cast<double>(v.size() - 10) /
                                     static_cast<double>(v.size()));
    char buf[64];
    std::snprintf(buf, sizeof buf, "; p%d %.6g", pct, quantile(v, pct / 100.0));
    out += buf;
  } else {
    out += "; no percentile above the median has ten samples beyond it";
  }
  return out + ")";
}

void print_result(bool correct, const CheckTally& tally,
                  const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int run_workload(const Config& config) {
  CheckTally tally;
  // The set-up the operations use; it is also the warm-up, so it is not a
  // sample.
  Setup setup = make_setup(config);
  if (setup.roundtrip_mismatches > 0) {
    tally.qor_mismatches += setup.roundtrip_mismatches;
    tally.note("a .soc text round trip is not a fixed point");
  }
  if (config.write_golden) {
    OpResult op = run_op(config, setup, 0, false);
    OpResult reference;
    if (config.kind == Kind::kSharded) reference = reference_campaign(config, setup);
    const OpResult& source = config.kind == Kind::kSharded ? reference : op;
    if (op.threw || source.threw) {
      std::fprintf(stderr, "perfbench: operation failed: %s\n",
                   (op.threw ? op.error : source.error).c_str());
      return 1;
    }
    write_golden(config, setup, source);
    std::fprintf(stderr, "perfbench: wrote %s\n", golden_path(config).c_str());
    return 0;
  }

  // Set-up samples: building and islanding the specs, the .campaign and
  // .soc text round trips, the pool and scratch arenas.
  std::vector<double> setup_s;
  std::vector<double> write_s;
  std::vector<double> parse_s;
  const auto sample_setup = [&]() {
    double write = 0.0;
    double parse = 0.0;
    int n = 0;
    setup_s.push_back(batch_mean([&]() {
      const Clock::time_point t0 = Clock::now();
      const Setup fresh = make_setup(config);
      const double took = seconds_since(t0);
      write += fresh.spec_write_s;
      parse += fresh.spec_parse_s;
      ++n;
      return took;
    }));
    write_s.push_back(write / n);
    parse_s.push_back(parse / n);
  };

  std::printf("perfbench %s seed=%u threads=%d trace=%d jobs=%zu\n",
              config.workload.c_str(), config.seed, workload_threads(config.kind),
              config.trace ? 1 : 0, setup.jobs.size());
  std::vector<Metric> metrics;
  bool golden_checked = false;
  bool trace_ok = true;
  bool resumed = false;

  if (!config.trace) {
    // Every timing is scaled by the calibrations taken just before and
    // just after it (calib.cpp), at the workload's thread count.
    const int threads = workload_threads(config.kind);
    const auto scaled = [](double t, double cal_before, double cal_after) {
      return t * kCalibrationRefS / (0.5 * (cal_before + cal_after));
    };
    std::vector<double> walls;
    std::vector<double> cpus;
    std::vector<double> resume_s;
    std::vector<double> raw_walls;
    std::vector<double> calibrations;
    std::string first_stream;
    OpResult op;
    std::string previous_dir;
    double cal = calibration_s(threads);
    calibrations.push_back(cal);
    const Clock::time_point loop_begin = Clock::now();
    for (int index = 0; index < kMinOps || seconds_since(loop_begin) < config.seconds;
         ++index) {
      op = OpResult{};
      if (!previous_dir.empty()) fs::remove_all(previous_dir);
      op = run_op(config, setup, index, false);
      const double cal_after_op = calibration_s(threads);
      calibrations.push_back(cal_after_op);
      previous_dir = op.dir;
      tally_failures(setup, op, tally);
      if (op.threw) break;
      walls.push_back(scaled(op.wall_s, cal, cal_after_op));
      cpus.push_back(scaled(op.cpu_s, cal, cal_after_op));
      raw_walls.push_back(op.wall_s);
      const std::string stream = normalized_stream(op);
      if (index == 0) {
        first_stream = stream;
      } else if (stream != first_stream) {
        ++tally.qor_mismatches;
        tally.note("operation " + std::to_string(index) +
                   " produced different records than operation 0");
      }
      ensure_store(config, setup, op);
      const std::size_t first_sample = setup_s.size();
      for (int k = 0; k < kSamplesPerOp; ++k) {
        sample_setup();
        resume_s.push_back(
            batch_mean([&]() { return checked_resume(config, setup, op, tally); }));
      }
      cal = calibration_s(threads);
      calibrations.push_back(cal);
      for (std::size_t k = first_sample; k < setup_s.size(); ++k) {
        setup_s[k] = scaled(setup_s[k], cal_after_op, cal);
        resume_s[k] = scaled(resume_s[k], cal_after_op, cal);
      }
    }
    const double rss = peak_rss_mb();
    resumed = !resume_s.empty();
    golden_checked = post_checks(config, setup, op, nullptr, tally);
    metrics = {
        {"setup_s", "s", median(setup_s)},
        {"wall_s", "s", median(walls)},
        {"cpu_s", "s", median(cpus)},
        {"peak_rss_mb", "MiB", rss},
        {"resume_s", "s", median(resume_s)},
    };
    print_metric(metrics[0], sample_detail(setup_s, "set-up batches"));
    print_metric(metrics[1], sample_detail(walls, "operations"));
    print_metric(metrics[2], sample_detail(cpus, "operations"));
    print_metric(metrics[3], "(process and children)");
    print_metric(metrics[4], sample_detail(resume_s, "resume batches"));
    std::printf("  wall_s samples:");
    for (const double w : walls) std::printf(" %.4g", w);
    std::printf("\n  unscaled wall_s: median %.6g s; samples:", median(raw_walls));
    for (const double w : raw_walls) std::printf(" %.4g", w);
    std::printf("\n  calibration: median %.6g s, reference %.6g s, %zu samples at "
                "%d threads\n",
                median(calibrations), kCalibrationRefS, calibrations.size(), threads);
  } else {
    for (int k = 0; k < 3; ++k) sample_setup();
    OpResult untraced = run_op(config, setup, 0, false);
    tally_failures(setup, untraced, tally);
    const std::string untraced_stream = normalized_stream(untraced);
    untraced.jobs.clear();
    if (!untraced.dir.empty()) fs::remove_all(untraced.dir);

    obs::set_trace_ring_capacity(std::size_t{1} << 18);
    obs::set_thread_trace_name("main");
    obs::set_tracing_enabled(true);
    obs::reset_phase_totals();
    obs::set_profiling_enabled(true);
    OpResult traced;
    {
      const obs::Span span("bench.operation");
      traced = run_op(config, setup, 1, true);
    }
    tally_failures(setup, traced, tally);
    obs::PhaseTotals phases = obs::phase_totals();
    OpResult reference;
    const OpResult* computed = &traced;
    if (config.kind == Kind::kSharded) {
      // Workers are separate processes whose profiles and spans do not
      // reach this one: the in-process run of the same matrix supplies
      // the phase profile, candidate spans and result counters.
      obs::reset_phase_totals();
      const obs::Span span("bench.reference_campaign");
      reference = reference_campaign(config, setup);
      phases = obs::phase_totals();
      computed = &reference;
    }
    obs::set_profiling_enabled(false);
    if (!traced.threw && normalized_stream(traced) != untraced_stream) {
      ++tally.qor_mismatches;
      tally.note("the traced operation produced different records");
    }
    ensure_store(config, setup, traced);
    LayerInputs in;
    in.untraced = &untraced;
    in.traced = &traced;
    in.computed = computed;
    in.phases = phases;
    in.spec_write_s = median(write_s);
    in.spec_parse_s = median(parse_s);
    if (!traced.threw && !computed->threw) {
      in.probes = run_probes(setup, *computed, traced, tally);
      (void)checked_resume(config, setup, traced, tally);
      resumed = true;
    }
    golden_checked = post_checks(
        config, setup, traced, config.kind == Kind::kSharded ? &reference : nullptr, tally);
    obs::set_tracing_enabled(false);
    const obs::TraceSnapshot snapshot = obs::collect_trace_events();
    in.snapshot = &snapshot;
    metrics = layer_metrics(config, in);
    if (!config.trace_path.empty()) {
      std::vector<double> ignored;
      trace_ok = vinoc::io::write_chrome_trace_file(config.trace_path, snapshot) &&
                 run_child({config.trace_check, config.trace_path},
                           config.work_dir + "/trace_check.log", Clock::now(),
                           ignored) == 0;
      if (!trace_ok) tally.note("trace_check rejected " + config.trace_path);
    }
    for (const Metric& m : metrics) print_metric(m, "");
    std::printf("  trace: %zu spans, %llu dropped, %s\n", snapshot.events.size(),
                static_cast<unsigned long long>(snapshot.dropped_events),
                config.trace_path.empty() ? "not written" : config.trace_path.c_str());
  }

  const double failed_share =
      tally.attempted > 0 ? static_cast<double>(tally.failed) /
                                static_cast<double>(tally.attempted)
                          : 1.0;
  std::printf("  %-32s %14lld %-6s %s\n", "qor_mismatches", tally.qor_mismatches,
              "count",
              golden_checked ? "(golden table checked)"
                             : "(golden table not applicable at this seed)");
  std::printf("  %-32s %14lld %-6s (over %lld design points)\n", "audit_violations",
              tally.audit_violations, "count", tally.audited_points);
  std::printf("  %-32s %14.6g %-6s (%lld of %lld jobs)\n", "failed_share",
              failed_share, "ratio", tally.failed, tally.attempted);
  for (const std::string& note : tally.notes) {
    std::fprintf(stderr, "perfbench: %s\n", note.c_str());
  }
  const bool correct = tally.qor_mismatches == 0 && tally.audit_violations == 0 &&
                       tally.failed == 0 && tally.attempted > 0 && trace_ok && resumed;
  print_result(correct, tally, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Config config;
  if (!perfbench::parse_args(argc, argv, config)) {
    std::fprintf(stderr,
                 "usage: vinoc_perfbench --workload <synth-d64|sweep-fine|"
                 "campaign-mix|campaign-sharded> --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--golden-dir DIR] "
                 "[--trace-out FILE] [--write-golden]\n");
    return 2;
  }
  // Each run works in its own scratch dir, removed on the way out.
  const std::string base = config.work_dir;
  config.work_dir = base + "/" + config.workload + "-" + std::to_string(getpid());
  std::filesystem::remove_all(config.work_dir);
  std::filesystem::create_directories(config.work_dir);
  int code = 1;
  try {
    code = perfbench::run_workload(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
  }
  std::filesystem::remove_all(config.work_dir);
  return code;
}
