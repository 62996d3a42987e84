// Set-up and the timed operation of each workload.
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>

#include "bench.hpp"
#include "vinoc/campaign/engine.hpp"
#include "vinoc/campaign/result_cache.hpp"
#include "vinoc/campaign/spec_hash.hpp"
#include "vinoc/io/jsonl.hpp"
#include "vinoc/io/obs_writers.hpp"
#include "vinoc/io/spec_format.hpp"

extern char** environ;

namespace perfbench {

namespace fs = std::filesystem;
namespace campaign = vinoc::campaign;
namespace core = vinoc::core;

int workload_threads(Kind kind) {
  return kind == Kind::kSynth || kind == Kind::kSweep ? 1 : 4;
}

std::string campaign_text(Kind kind, unsigned seed) {
  switch (kind) {
    case Kind::kSynth:
      return "name = synth-d64\n"
             "benchmarks = d64\n"
             "strategies = logical\n"
             "islands = 2\n"
             "widths = 32\n";
    case Kind::kSweep:
      return "name = sweep-fine\n"
             "benchmarks = d16 d24 d26 d36\n"
             "strategies = logical\n"
             "islands = 2 3 4\n"
             "widths = 128 160 192 256\n";
    case Kind::kCampaign:
    case Kind::kSharded:
      break;
  }
  // The two synthetic families take their generator seeds from the
  // benchmark seed; kGoldenSeed gives the families 7 and 11.
  const unsigned long offset = 1000UL * ((seed - kGoldenSeed) % 1000000U);
  return "name = mix\n"
         "benchmarks = d16 d24 d26 d36\n"
         "synthetic = cores:24 hubs:3 seed:" + std::to_string(7 + offset) +
         " flows:2.0 perturb:15\n"
         "synthetic = cores:32 hubs:4 seed:" + std::to_string(11 + offset) +
         " flows:2.0 perturb:15\n"
         "strategies = logical comm\n"
         "islands = 2 3 4\n"
         "widths = 32 64\n";
}

double cpu_seconds() {
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  rusage self{};
  rusage kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return secs(self.ru_utime) + secs(self.ru_stime) + secs(kids.ru_utime) +
         secs(kids.ru_stime);
}

double peak_rss_mb() {
  rusage self{};
  rusage kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) / 1024.0;
}

Setup make_setup(const Config& config) {
  Setup s;
  s.campaign_text = campaign_text(config.kind, config.seed);
  campaign::CampaignParseResult parsed =
      campaign::parse_campaign_spec_string(s.campaign_text);
  if (!parsed.ok) throw std::runtime_error("workload matrix does not parse");
  s.spec = std::move(parsed.spec);
  s.jobs = campaign::expand_jobs(s.spec);
  std::map<std::uint64_t, std::size_t> group_of;
  for (std::size_t i = 0; i < s.jobs.size(); ++i) {
    const std::uint64_t key =
        campaign::structure_key(s.jobs[i].spec, s.jobs[i].options);
    const auto [it, inserted] = group_of.emplace(key, s.groups.size());
    if (inserted) s.groups.emplace_back();
    s.groups[it->second].push_back(i);
  }
  // The .soc text round trip of every distinct spec. The format carries
  // no flow labels and rounds to its units, so the check is that the text
  // of a parsed spec is a fixed point: writing it again gives the same text.
  std::vector<std::string> texts;
  texts.reserve(s.groups.size());
  auto t0 = Clock::now();
  for (const auto& group : s.groups) {
    texts.push_back(vinoc::io::write_soc_spec(s.jobs[group.front()].spec));
  }
  s.spec_write_s = seconds_since(t0);
  std::vector<vinoc::io::ParseResult> parsed_specs;
  parsed_specs.reserve(texts.size());
  t0 = Clock::now();
  for (const std::string& text : texts) {
    parsed_specs.push_back(vinoc::io::parse_soc_spec_string(text));
  }
  s.spec_parse_s = seconds_since(t0);
  for (std::size_t g = 0; g < texts.size(); ++g) {
    if (!parsed_specs[g].ok ||
        vinoc::io::write_soc_spec(parsed_specs[g].spec) != texts[g]) {
      ++s.roundtrip_mismatches;
    }
  }
  if (config.kind == Kind::kSharded) {
    s.campaign_path = config.work_dir + "/matrix.campaign";
    std::ofstream(s.campaign_path) << s.campaign_text;
  }
  s.pool = std::make_unique<vinoc::exec::ThreadPool>(workload_threads(config.kind));
  s.scratch = std::make_unique<core::EvalScratchPool>();
  return s;
}

int run_child(const std::vector<std::string>& argv, const std::string& stderr_path,
              Clock::time_point t0, std::vector<double>& line_times) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) return -1;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = -1;
  const int spawned =
      posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (spawned != 0) {
    close(fds[0]);
    return -1;
  }
  char buf[65536];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    for (ssize_t i = 0; i < n; ++i) {
      if (buf[i] == '\n') line_times.push_back(seconds_since(t0));
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

namespace {

/// Wall and CPU clocks of one operation, read at the same two moments.
class OpTimer {
 public:
  OpTimer() : t0_(Clock::now()), cpu0_(cpu_seconds()) {}
  [[nodiscard]] Clock::time_point start() const { return t0_; }
  void stop(OpResult& op) const {
    op.wall_s = seconds_since(t0_);
    op.cpu_s = cpu_seconds() - cpu0_;
  }

 private:
  Clock::time_point t0_;
  double cpu0_;
};

std::string op_dir(const Config& config, int index) {
  return config.work_dir + "/op-" + std::to_string(index);
}

/// Counters of a registry record line. The in-process campaign registry and
/// the CLI's resume_summary line share this serialization, so both are read
/// through it under the same names.
std::map<std::string, double> summary_values(const std::string& line) {
  std::map<std::string, std::string> raw;
  std::map<std::string, double> out;
  if (!vinoc::io::parse_jsonl_object(line, raw)) return out;
  for (const auto& [name, value] : raw) out[name] = std::strtod(value.c_str(), nullptr);
  return out;
}

void run_synth(Setup& setup, bool observe, OpResult& op) {
  const campaign::CampaignJob& job = setup.jobs.front();
  core::SynthesisOptions options = job.options;
  options.threads = 1;
  const OpTimer timer;
  if (observe) {
    options.on_progress = [&op, t0 = timer.start()](const core::SynthesisProgress&) {
      op.progress_s.push_back(seconds_since(t0));
    };
  }
  auto result = std::make_shared<core::SynthesisResult>(
      core::synthesize(job.spec, options, *setup.pool, *setup.scratch));
  timer.stop(op);
  op.jobs.resize(1);
  op.jobs[0].result = std::move(result);
}

void run_sweep(Setup& setup, bool observe, OpResult& op) {
  op.jobs.resize(setup.jobs.size());
  const OpTimer timer;
  for (const auto& group : setup.groups) {
    const campaign::CampaignJob& first = setup.jobs[group.front()];
    core::SynthesisOptions options = first.options;
    options.threads = 1;
    if (observe) {
      options.on_progress = [&op, t0 = timer.start()](const core::SynthesisProgress&) {
        op.progress_s.push_back(seconds_since(t0));
      };
    }
    std::vector<int> widths;
    for (const std::size_t i : group) widths.push_back(setup.jobs[i].width);
    core::WidthSetStats stats;
    core::WidthSweepResult sweep =
        core::explore_link_widths(first.spec, widths, options, &stats);
    for (std::size_t k = 0; k < group.size(); ++k) {
      if (sweep.entries[k].feasible) {
        op.jobs[group[k]].result = std::make_shared<core::SynthesisResult>(
            std::move(sweep.entries[k].result));
      }
    }
    core::WidthSetStats& sum = op.width_stats;
    sum.width_classes += stats.width_classes;
    sum.shared_evals += stats.shared_evals;
    sum.fallback_evals += stats.fallback_evals;
    sum.certified_evals += stats.certified_evals;
    sum.certificate_accepts += stats.certificate_accepts;
    sum.cohort_evals += stats.cohort_evals;
    sum.cohort_groups += stats.cohort_groups;
    sum.partition_cache_hits += stats.partition_cache_hits;
    sum.peak_buffered_outcomes =
        std::max(sum.peak_buffered_outcomes, stats.peak_buffered_outcomes);
  }
  timer.stop(op);
}

/// In-process campaign into a fresh store under `dir`; results are read
/// back from the engine's cache for the audit.
void run_in_process(const Config& config, Setup& setup, const std::string& dir,
                    bool observe, OpResult& op) {
  fs::remove_all(dir);
  const OpTimer timer;
  campaign::ResultCache cache(dir);
  campaign::CampaignOptions options;
  options.threads = workload_threads(config.kind);
  options.cache = &cache;
  if (observe) {
    options.on_record = [&op, t0 = timer.start()](const campaign::JobRecord&) {
      op.record_s.push_back(seconds_since(t0));
    };
  }
  campaign::CampaignResult result = campaign::run_campaign(setup.spec, options);
  timer.stop(op);
  op.dir = dir;
  op.store_dir = dir;
  if (result.records.size() != setup.jobs.size()) {
    throw std::runtime_error("campaign emitted " +
                             std::to_string(result.records.size()) +
                             " records for " +
                             std::to_string(setup.jobs.size()) + " jobs");
  }
  op.jobs.resize(setup.jobs.size());
  for (std::size_t i = 0; i < setup.jobs.size(); ++i) {
    op.jobs[i].record = std::move(result.records[i]);
    op.jobs[i].line = campaign::record_to_jsonl(op.jobs[i].record);
    op.jobs[i].result = cache.find_result(setup.jobs[i].key);
  }
  op.summary = summary_values(vinoc::io::registry_record("", result.metrics));
}

void run_sharded(const Config& config, Setup& setup, int index, OpResult& op) {
  const std::string dir = op_dir(config, index);
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::vector<std::string> argv = {
      config.cli,   "campaign",    setup.campaign_path, "--shards", "2",
      "--threads",  "4",           "--cache-dir",       dir + "/cache",
      "--out",      dir + "/out",  "--json"};
  const OpTimer timer;
  const int code = run_child(argv, dir + "/stderr.log", timer.start(), op.record_s);
  timer.stop(op);
  op.dir = dir;
  op.store_dir = dir + "/cache";
  if (code != 0) {
    throw std::runtime_error("vinoc campaign --shards 2 exited with " +
                             std::to_string(code));
  }
  std::ifstream stream(dir + "/out.jsonl");
  std::string line;
  while (std::getline(stream, line)) {
    JobOutput out;
    if (!campaign::record_from_jsonl(line, out.record)) {
      throw std::runtime_error("unparseable record from the CLI: " + line);
    }
    out.line = line;
    op.jobs.push_back(std::move(out));
  }
  if (op.jobs.size() != setup.jobs.size()) {
    throw std::runtime_error("sharded campaign emitted " +
                             std::to_string(op.jobs.size()) + " records for " +
                             std::to_string(setup.jobs.size()) + " jobs");
  }
  std::ifstream err(dir + "/stderr.log");
  const std::string prefix = "resume_summary ";
  while (std::getline(err, line)) {
    if (line.rfind(prefix, 0) == 0) {
      op.summary = summary_values(line.substr(prefix.size()));
    }
  }
}

}  // namespace

OpResult run_op(const Config& config, Setup& setup, int index, bool observe) {
  OpResult op;
  try {
    switch (config.kind) {
      case Kind::kSynth:
        run_synth(setup, observe, op);
        break;
      case Kind::kSweep:
        run_sweep(setup, observe, op);
        break;
      case Kind::kCampaign:
        run_in_process(config, setup, op_dir(config, index), observe, op);
        break;
      case Kind::kSharded:
        run_sharded(config, setup, index, op);
        break;
    }
  } catch (const std::exception& e) {
    op.threw = true;
    op.error = e.what();
  }
  if (!op.threw && (config.kind == Kind::kSynth || config.kind == Kind::kSweep)) {
    for (std::size_t i = 0; i < setup.jobs.size(); ++i) {
      op.jobs[i].record = campaign::summarize(setup.spec.name, setup.jobs[i],
                                              op.jobs[i].result.get());
      op.jobs[i].line = campaign::record_to_jsonl(op.jobs[i].record);
    }
  }
  return op;
}

void ensure_store(const Config& config, const Setup& setup, OpResult& op) {
  if (!op.store_dir.empty() || op.threw) return;
  op.store_dir = config.work_dir + "/store";
  fs::remove_all(op.store_dir);
  campaign::ResultCache cache(op.store_dir);
  for (std::size_t i = 0; i < setup.jobs.size(); ++i) {
    if (op.jobs[i].record.status == "ok") cache.put_record(op.jobs[i].record);
  }
}

double resume_pass(const Setup& setup, const std::string& store_dir, int threads,
                   std::vector<campaign::JobRecord>& records) {
  const Clock::time_point t0 = Clock::now();
  campaign::ResultCache cache(store_dir);
  campaign::CampaignOptions options;
  options.threads = threads;
  options.resume = true;
  options.cache = &cache;
  campaign::CampaignResult result = campaign::run_campaign(setup.spec, options);
  const double wall = seconds_since(t0);
  records = std::move(result.records);
  return wall;
}

OpResult reference_campaign(const Config& config, Setup& setup) {
  OpResult op;
  try {
    run_in_process(config, setup, config.work_dir + "/reference", true, op);
  } catch (const std::exception& e) {
    op.threw = true;
    op.error = e.what();
  }
  return op;
}

}  // namespace perfbench
