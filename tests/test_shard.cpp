// Sharded campaigns: planner determinism and group integrity, status-line
// wire framing (round-trips and a seeded mutation fuzzer), manifest
// round-trips, the bit-identity store merger, the store-family verifier —
// and end-to-end supervisor runs that exec the real CLI as campaign-worker
// processes (VINOC_CLI_PATH), including crash chaos, counters that survive
// a killed worker, unrounded job timeouts, the in-process fallback and
// resume-after-merge.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "vinoc/campaign/campaign_spec.hpp"
#include "vinoc/campaign/engine.hpp"
#include "vinoc/campaign/report.hpp"
#include "vinoc/campaign/shard.hpp"
#include "vinoc/campaign/shard_merge.hpp"
#include "vinoc/campaign/shard_supervisor.hpp"
#include "vinoc/campaign/spec_hash.hpp"
#include "vinoc/faultinject/faultinject.hpp"
#include "vinoc/io/jsonl.hpp"
#include "vinoc/io/obs_writers.hpp"
#include "vinoc/io/shard_wire.hpp"

#include "mutate.hpp"

namespace vinoc::campaign {
namespace {

namespace fs = std::filesystem;

/// Same fast matrix as test_campaign: 2 strategies x 2 island counts x
/// 2 widths over a 9-core synthetic family = 16 jobs, 8 structure groups.
CampaignSpec small_campaign() {
  CampaignSpec spec;
  spec.name = "shardunit";
  SyntheticScenario family;
  family.params.cores = 9;
  family.params.hubs = 2;
  family.perturbations = 1;
  spec.synthetic.push_back(family);
  spec.strategies = {"logical", "comm"};
  spec.island_counts = {2, 3};
  spec.widths = {32, 64};
  return spec;
}

/// The equivalent campaign FILE for worker processes to re-parse.
const char* kCampaignFile =
    "name = shardunit\n"
    "synthetic = cores:9 hubs:2 perturb:1\n"
    "strategies = logical comm\n"
    "islands = 2 3\n"
    "widths = 32 64\n";

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("vinoc_shard_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  [[nodiscard]] std::string str() const { return path.string(); }
};

std::string write_campaign_file(const TempDir& dir) {
  const std::string path = (dir.path / "unit.campaign").string();
  std::ofstream out(path);
  out << kCampaignFile;
  return path;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string records_jsonl(const std::vector<JobRecord>& records) {
  std::string text;
  for (const JobRecord& rec : records) {
    text += record_to_jsonl(rec, /*include_timing=*/false);
    text += '\n';
  }
  return text;
}

/// A minimal but fully-populated record for merger unit tests.
JobRecord fake_record(std::uint64_t key, double power) {
  JobRecord rec;
  rec.campaign = "unit";
  rec.job = "fake/j" + std::to_string(key);
  rec.scenario = "fake";
  rec.strategy = "logical";
  rec.islands = 2;
  rec.width = 32;
  rec.key = key;
  rec.feasible = true;
  rec.points = 1;
  rec.best_power_mw = power;
  rec.wall_ms = 1.0 + static_cast<double>(key);  // differs per writer
  return rec;
}

void write_store(const std::string& path, const std::vector<JobRecord>& recs) {
  std::ofstream out(path, std::ios::trunc);
  for (const JobRecord& rec : recs) {
    out << io::add_line_checksum(record_to_jsonl(rec)) << '\n';
  }
}

ShardCampaignOptions sharded_options(const TempDir& dir,
                                     const std::string& spec_path,
                                     int shards) {
  ShardCampaignOptions sopt;
  sopt.base.cache_dir = (dir.path / "cache").string();
  sopt.base.include_timing = false;
  sopt.base.threads = 2;
  sopt.shards = shards;
  sopt.worker_exe = VINOC_CLI_PATH;
  sopt.spec_path = spec_path;
  sopt.worker_threads = 2;
  return sopt;
}

// --- Planner ----------------------------------------------------------------

TEST(ShardPlan, IsDeterministicAndNeverSplitsStructureGroups) {
  const std::vector<CampaignJob> jobs = expand_jobs(small_campaign());
  ASSERT_EQ(jobs.size(), 16u);
  const ShardPlan plan = plan_shards(jobs, 4);
  ASSERT_EQ(plan.shards(), 4);

  // Every job lands on exactly one shard.
  std::set<std::uint64_t> assigned;
  for (const auto& shard : plan.assignment) {
    for (const std::uint64_t key : shard) {
      EXPECT_TRUE(assigned.insert(key).second) << "key assigned twice";
    }
  }
  EXPECT_EQ(assigned.size(), jobs.size());

  // Width-sharing groups stay whole: both widths of a structure group must
  // live on the same shard.
  for (const CampaignJob& job : jobs) {
    const std::uint64_t skey = structure_key(job.spec, job.options);
    int home = -1;
    for (int k = 0; k < plan.shards(); ++k) {
      for (const std::uint64_t key : plan.assignment[k]) {
        if (key == job.key) home = k;
      }
    }
    ASSERT_GE(home, 0);
    for (const CampaignJob& other : jobs) {
      if (structure_key(other.spec, other.options) != skey) continue;
      bool on_home = false;
      for (const std::uint64_t key : plan.assignment[home]) {
        if (key == other.key) on_home = true;
      }
      EXPECT_TRUE(on_home) << "group split across shards";
    }
  }

  // Pure function of the matrix: replanning yields the identical assignment.
  const ShardPlan again = plan_shards(jobs, 4);
  EXPECT_EQ(plan.assignment, again.assignment);
  // Degenerate shard counts collapse to one shard holding everything.
  const ShardPlan one = plan_shards(jobs, 0);
  ASSERT_EQ(one.shards(), 1);
  EXPECT_EQ(one.assignment[0].size(), jobs.size());
  EXPECT_EQ(one.populated(), 1);
}

// --- Wire framing -----------------------------------------------------------

TEST(ShardWire, EventsRoundTrip) {
  io::ShardEvent start;
  start.type = io::ShardEventType::kStart;
  start.key = 0xf3ae58b624026f15ull;
  io::ShardEvent done;
  done.type = io::ShardEventType::kDone;
  done.key = 42;
  done.payload = record_to_jsonl(fake_record(42, 10.0));
  io::ShardEvent summary;
  summary.type = io::ShardEventType::kSummary;
  summary.payload = "{\"run\":3,\"cache_hits\":1}";

  for (const io::ShardEvent& ev : {start, done, summary}) {
    const std::string line = io::encode_shard_event(ev);
    const auto back = io::decode_shard_event(line);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->type, ev.type);
    EXPECT_EQ(back->key, ev.key);
    EXPECT_EQ(back->payload, ev.payload);
  }
}

TEST(ShardWire, TornAndCorruptLinesDecodeToNothing) {
  const std::string line = io::encode_shard_event(
      {io::ShardEventType::kDone, 7, record_to_jsonl(fake_record(7, 1.0))});
  // Torn anywhere: a prefix must never decode as a valid (different) event.
  for (std::size_t cut = 1; cut < line.size(); ++cut) {
    EXPECT_FALSE(io::decode_shard_event(line.substr(0, cut)).has_value())
        << "torn at " << cut;
  }
  EXPECT_FALSE(io::decode_shard_event("").has_value());
  EXPECT_FALSE(io::decode_shard_event("not json at all").has_value());
  // Valid checksum, unknown event type.
  EXPECT_FALSE(
      io::decode_shard_event(io::add_line_checksum("{\"ev\":\"mystery\"}"))
          .has_value());
}

TEST(ShardWire, ManifestRoundTripsAndRejectsCorruption) {
  const TempDir dir("manifest");
  const std::string path = (dir.path / "0.manifest").string();
  const std::vector<std::uint64_t> keys = {1, 0xffffffffffffffffull, 42, 7};
  ASSERT_TRUE(io::write_shard_manifest(path, keys));
  const auto back = io::read_shard_manifest(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, keys);

  // One flipped byte anywhere must reject the WHOLE manifest — a shard that
  // silently drops an assignment line would orphan jobs.
  std::string text = read_text(path);
  text[text.size() / 2] ^= 0x20;
  std::ofstream(path, std::ios::trunc | std::ios::binary) << text;
  EXPECT_FALSE(io::read_shard_manifest(path).has_value());
  EXPECT_FALSE(io::read_shard_manifest((dir.path / "no.manifest").string())
                   .has_value());
}

TEST(ShardWire, MutatedLinesNeverDecodeToAnotherEvent) {
  // Seeded 1-3 byte mutations of every event type and of a manifest: the
  // decoders must never throw, and whatever still decodes must be exactly
  // the original (a mutation that survives the checksum is an identity).
  const std::vector<io::ShardEvent> events = {
      {io::ShardEventType::kStart, 0xf3ae58b624026f15ull, ""},
      {io::ShardEventType::kDone, 42, record_to_jsonl(fake_record(42, 10.0))},
      {io::ShardEventType::kSummary, 0, "{\"run\":3,\"cache_hits\":1}"},
  };
  std::mt19937 rng(20261018u);
  for (const io::ShardEvent& ev : events) {
    const std::string line = io::encode_shard_event(ev);
    for (int trial = 0; trial < 3000; ++trial) {
      const std::string mutated = testing_util::mutate(line, rng);
      std::optional<io::ShardEvent> back;
      ASSERT_NO_THROW(back = io::decode_shard_event(mutated)) << mutated;
      if (!back.has_value()) continue;
      EXPECT_EQ(back->type, ev.type) << mutated;
      EXPECT_EQ(back->key, ev.key) << mutated;
      EXPECT_EQ(back->payload, ev.payload) << mutated;
    }
  }

  const TempDir dir("wirefuzz");
  const std::string path = (dir.path / "0.manifest").string();
  const std::vector<std::uint64_t> keys = {1, 0xffffffffffffffffull, 42, 7};
  ASSERT_TRUE(io::write_shard_manifest(path, keys));
  const std::string original = read_text(path);
  for (int trial = 0; trial < 300; ++trial) {
    std::ofstream(path, std::ios::trunc | std::ios::binary)
        << testing_util::mutate(original, rng);
    std::optional<std::vector<std::uint64_t>> back;
    ASSERT_NO_THROW(back = io::read_shard_manifest(path));
    if (back.has_value()) {
      EXPECT_EQ(*back, keys);
    }
  }
}

// --- Merger -----------------------------------------------------------------

TEST(ShardMerge, UnionsShardStoresInJobOrder) {
  const TempDir dir("merge");
  write_store((dir.path / shard_store_file(0)).string(),
              {fake_record(3, 1.0), fake_record(1, 2.0)});
  write_store((dir.path / shard_store_file(1)).string(), {fake_record(2, 3.0)});
  const std::vector<std::uint64_t> order = {1, 2, 3};
  const MergeStats stats = merge_shard_stores(dir.str(), &order);
  ASSERT_TRUE(stats.ok) << stats.error;
  EXPECT_EQ(stats.shard_files, 2u);
  EXPECT_EQ(stats.merged_records, 3u);
  EXPECT_EQ(stats.duplicates, 0u);
  EXPECT_EQ(stats.conflicts, 0u);

  const std::vector<JobRecord> merged =
      read_store_records((dir.path / "store.jsonl").string());
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].key, 1u);
  EXPECT_EQ(merged[1].key, 2u);
  EXPECT_EQ(merged[2].key, 3u);
  // Shard stores are consumed once the merged store landed.
  EXPECT_FALSE(fs::exists(dir.path / shard_store_file(0)));
  EXPECT_FALSE(fs::exists(dir.path / shard_store_file(1)));
  // Re-merging with nothing left is a clean no-op.
  const MergeStats again = merge_shard_stores(dir.str(), &order);
  EXPECT_TRUE(again.ok);
  EXPECT_EQ(again.shard_files, 0u);
}

TEST(ShardMerge, IdenticalDuplicatesCollapseConflictsQuarantine) {
  const TempDir dir("dup");
  JobRecord dup_a = fake_record(5, 1.0);
  JobRecord dup_b = dup_a;
  dup_b.wall_ms = 999.0;  // timing may differ between workers — NOT a conflict
  JobRecord conflict = fake_record(6, 1.0);
  JobRecord conflict2 = conflict;
  conflict2.best_power_mw = 2.0;  // payload differs — determinism violation

  write_store((dir.path / shard_store_file(0)).string(), {dup_a, conflict});
  write_store((dir.path / shard_store_file(1)).string(), {dup_b, conflict2});
  const MergeStats stats = merge_shard_stores(dir.str());
  ASSERT_TRUE(stats.ok) << stats.error;
  EXPECT_EQ(stats.merged_records, 2u);
  EXPECT_EQ(stats.duplicates, 1u);
  EXPECT_EQ(stats.conflicts, 1u);

  // First writer won; the conflicting loser is quarantined, checksummed.
  const std::vector<JobRecord> merged =
      read_store_records((dir.path / "store.jsonl").string());
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[1].best_power_mw, 1.0);
  const std::string quarantine =
      read_text((dir.path / "store.quarantine.jsonl").string());
  EXPECT_NE(quarantine.find("duplicate_conflict"), std::string::npos);
  std::string payload;
  EXPECT_EQ(io::verify_line_checksum(
                quarantine.substr(0, quarantine.find('\n')), &payload),
            io::ChecksumStatus::kOk);
}

TEST(ShardMerge, CorruptLinesAreQuarantinedNotMerged) {
  const TempDir dir("corrupt");
  write_store((dir.path / shard_store_file(0)).string(), {fake_record(1, 1.0)});
  {
    std::ofstream out((dir.path / shard_store_file(0)).string(), std::ios::app);
    out << "{\"torn\":tr";  // no newline: a torn tail
  }
  const MergeStats stats = merge_shard_stores(dir.str());
  ASSERT_TRUE(stats.ok) << stats.error;
  EXPECT_EQ(stats.merged_records, 1u);
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_TRUE(fs::exists(dir.path / "store.quarantine.jsonl"));
  // The family verifier sees a healthy post-merge state: quarantine lines
  // are themselves checksummed (satellite of store v2).
  const VerifyStats vs = verify_stores(dir.str());
  EXPECT_TRUE(vs.clean()) << vs.summary();
  EXPECT_EQ(vs.records, 1u);
  EXPECT_EQ(vs.ledger_lines, 1u);
}

TEST(ShardVerify, FlagsTamperedStoresAndLedgers) {
  const TempDir dir("verify");
  write_store((dir.path / "store.jsonl").string(),
              {fake_record(1, 1.0), fake_record(2, 2.0)});
  write_store((dir.path / shard_store_file(0)).string(), {fake_record(1, 9.0)});
  {
    std::ofstream out((dir.path / "failed.jsonl").string());
    out << "no checksum here\n";
  }
  const VerifyStats vs = verify_stores(dir.str());
  EXPECT_FALSE(vs.clean());
  EXPECT_EQ(vs.duplicate_keys, 1u);    // key 1 in two store files
  EXPECT_EQ(vs.checksum_failures, 1u);  // the bare ledger line
  EXPECT_EQ(vs.files, 3u);
}

// --- End-to-end supervisor runs (real worker processes) ---------------------

TEST(ShardSupervisor, MatchesSingleProcessBitForBit) {
  const TempDir dir("e2e");
  const std::string spec_path = write_campaign_file(dir);
  const CampaignSpec spec = small_campaign();

  // Reference: the ordinary in-process engine, fresh store.
  CampaignOptions ref;
  ref.cache_dir = (dir.path / "ref_cache").string();
  ref.include_timing = false;
  ref.threads = 2;
  const CampaignResult reference = run_campaign(spec, ref);

  ShardCampaignOptions sopt = sharded_options(dir, spec_path, 3);
  const ShardCampaignResult sharded = run_sharded_campaign(spec, sopt);

  ASSERT_TRUE(sharded.merge.ok) << sharded.merge.error;
  EXPECT_EQ(sharded.merge.conflicts, 0u);
  EXPECT_EQ(sharded.campaign.jobs_total(), reference.jobs_total());
  EXPECT_EQ(records_jsonl(sharded.campaign.records),
            records_jsonl(reference.records));
  EXPECT_GT(sharded.campaign.metrics.value("workers_spawned"), 0.0);
  EXPECT_EQ(sharded.campaign.metrics.value("worker_crashes"), 0.0);

  // The merged store serves a resume run entirely from cache, and the
  // record stream (modulo cache_hit) matches the reference again.
  CampaignOptions res;
  res.cache_dir = sopt.base.cache_dir;
  res.resume = true;
  res.include_timing = false;
  const CampaignResult resumed = run_campaign(spec, res);
  EXPECT_EQ(resumed.cache_hits(), reference.jobs_total());
  EXPECT_EQ(resumed.jobs_run(), 0);
}

TEST(ShardSupervisor, SurvivesWorkerCrashWithIdenticalResults) {
  const TempDir dir("chaos");
  const std::string spec_path = write_campaign_file(dir);
  const CampaignSpec spec = small_campaign();

  CampaignOptions ref;
  ref.cache_dir = (dir.path / "ref_cache").string();
  ref.include_timing = false;
  ref.threads = 2;
  const CampaignResult reference = run_campaign(spec, ref);

  // Every worker SIGKILLs itself at its first job start (workers inherit
  // the env); respawns run with injection disarmed and finish the shard.
  ::setenv("VINOC_FAULT", "shard_crash:1@1", 1);
  ShardCampaignOptions sopt = sharded_options(dir, spec_path, 3);
  const ShardCampaignResult sharded = run_sharded_campaign(spec, sopt);
  ::unsetenv("VINOC_FAULT");

  ASSERT_TRUE(sharded.merge.ok) << sharded.merge.error;
  EXPECT_GT(sharded.campaign.metrics.value("worker_crashes"), 0.0);
  EXPECT_GT(sharded.campaign.metrics.value("worker_respawns"), 0.0);
  EXPECT_EQ(sharded.campaign.quarantined_jobs(), 0);
  // The acceptance bar: records bit-identical to the single-process run.
  EXPECT_EQ(records_jsonl(sharded.campaign.records),
            records_jsonl(reference.records));
  EXPECT_TRUE(verify_stores(sopt.base.cache_dir).clean());
}

TEST(ShardSupervisor, WorkerKilledAfterAGroupKeepsStructureCounters) {
  // One worker at one thread computes its width groups (two jobs each) in
  // order and announces both jobs of a group when the group starts, so a
  // shard_crash whose first fire is the third job start kills it right
  // after its first group finished, before it could report any counters.
  // Derived from the records, the structure counters survive that.
  const TempDir dir("crash_groups");
  const std::string spec_path = write_campaign_file(dir);
  const CampaignSpec spec = small_campaign();

  std::uint64_t seed = 0;
  for (std::uint64_t s = 1; s < 1000 && seed == 0; ++s) {
    ASSERT_TRUE(faultinject::configure("shard_crash:0.5", s));
    int first_fire = 0;
    for (int hit = 1; hit <= 3 && first_fire == 0; ++hit) {
      if (faultinject::should_fire(faultinject::Site::kShardCrash)) {
        first_fire = hit;
      }
    }
    if (first_fire == 3) seed = s;
  }
  faultinject::reset();
  ASSERT_NE(seed, 0u);

  CampaignOptions ref;
  ref.include_timing = false;
  ref.threads = 1;
  const CampaignResult reference = run_campaign(spec, ref);
  ASSERT_GT(reference.structure_groups(), 1);

  ::setenv("VINOC_FAULT", "shard_crash:0.5@1", 1);
  ::setenv("VINOC_FAULT_SEED", std::to_string(seed).c_str(), 1);
  ShardCampaignOptions sopt = sharded_options(dir, spec_path, 1);
  sopt.base.threads = 1;
  sopt.worker_threads = 1;
  const ShardCampaignResult sharded = run_sharded_campaign(spec, sopt);
  ::unsetenv("VINOC_FAULT");
  ::unsetenv("VINOC_FAULT_SEED");

  ASSERT_TRUE(sharded.merge.ok) << sharded.merge.error;
  EXPECT_EQ(sharded.campaign.metrics.value("worker_crashes"), 1);
  EXPECT_EQ(records_jsonl(sharded.campaign.records),
            records_jsonl(reference.records));
  EXPECT_EQ(sharded.campaign.structure_groups(), reference.structure_groups());
  EXPECT_EQ(sharded.campaign.structure_shared_jobs(),
            reference.structure_shared_jobs());
}

TEST(ShardSupervisor, SubMicrosecondJobTimeoutReachesWorkers) {
  // Workers get the supervisor's --job-timeout unrounded: 100 ns times
  // out every job, sharded as in-process.
  const TempDir dir("timeout");
  const std::string spec_path = write_campaign_file(dir);
  const CampaignSpec spec = small_campaign();

  ShardCampaignOptions sopt = sharded_options(dir, spec_path, 2);
  sopt.base.job_timeout_s = 1e-7;
  const ShardCampaignResult sharded = run_sharded_campaign(spec, sopt);

  ASSERT_GT(sharded.campaign.jobs_total(), 0);
  EXPECT_EQ(sharded.campaign.job_timeouts(), sharded.campaign.jobs_total());
  for (const JobRecord& rec : sharded.campaign.records) {
    EXPECT_EQ(rec.status, "timeout") << rec.job;
  }
}

TEST(ShardSupervisor, ExhaustedCrashRetriesQuarantineTheJob) {
  const TempDir dir("quarantine");
  const std::string spec_path = write_campaign_file(dir);
  const CampaignSpec spec = small_campaign();

  // Unbounded crash site + zero crash retries: the first job a worker
  // announces is immediately blamed and quarantined; the respawned worker
  // (injection disarmed) completes the rest.
  ::setenv("VINOC_FAULT", "shard_crash:1@1", 1);
  ShardCampaignOptions sopt = sharded_options(dir, spec_path, 2);
  sopt.crash_retries = 0;
  const ShardCampaignResult sharded = run_sharded_campaign(spec, sopt);
  ::unsetenv("VINOC_FAULT");

  ASSERT_TRUE(sharded.merge.ok) << sharded.merge.error;
  EXPECT_GT(sharded.campaign.quarantined_jobs(), 0);
  // One record per job regardless; quarantined ones carry status "failed".
  EXPECT_EQ(static_cast<int>(sharded.campaign.records.size()),
            sharded.campaign.jobs_total());
  int failed = 0;
  for (const JobRecord& rec : sharded.campaign.records) {
    if (rec.status == "failed") ++failed;
  }
  EXPECT_EQ(failed, sharded.campaign.quarantined_jobs());
  // The quarantine ledger is populated and checksummed.
  const std::string ledger =
      read_text((fs::path(sopt.base.cache_dir) / "failed.jsonl").string());
  EXPECT_FALSE(ledger.empty());
  std::string payload;
  EXPECT_EQ(io::verify_line_checksum(ledger.substr(0, ledger.find('\n')),
                                     &payload),
            io::ChecksumStatus::kOk);
}

TEST(ShardSupervisor, UnspawnableWorkerDegradesInProcess) {
  const TempDir dir("unspawnable");
  const std::string spec_path = write_campaign_file(dir);
  const CampaignSpec spec = small_campaign();

  CampaignOptions ref;
  ref.cache_dir = (dir.path / "ref_cache").string();
  ref.include_timing = false;
  ref.threads = 2;
  const CampaignResult reference = run_campaign(spec, ref);

  // Every worker fails to exec (exit 127): a configuration failure that a
  // respawn would only replay, so each shard goes straight to the
  // in-process fallback.
  ShardCampaignOptions sopt = sharded_options(dir, spec_path, 2);
  sopt.worker_exe = (dir.path / "no-such-vinoc").string();
  const ShardCampaignResult sharded = run_sharded_campaign(spec, sopt);

  ASSERT_TRUE(sharded.merge.ok) << sharded.merge.error;
  EXPECT_EQ(records_jsonl(sharded.campaign.records),
            records_jsonl(reference.records));
  const obs::Registry& m = sharded.campaign.metrics;
  EXPECT_EQ(m.value("fallback_jobs"), reference.jobs_total());
  EXPECT_EQ(m.value("worker_respawns"), 0);
  EXPECT_EQ(m.value("workers_spawned"),
            plan_shards(expand_jobs(spec), 2).populated());
  EXPECT_EQ(sharded.campaign.jobs_run(), reference.jobs_total());
}

TEST(ShardSupervisor, SummaryMatchesInProcess) {
  // At one thread everywhere, the sharded resume_summary carries the same
  // canonical fields as the in-process one, byte for byte: run through
  // interrupted, then the supervisor's own counters, then the same
  // delta_reuse_rate gauge.
  const TempDir dir("summary");
  const std::string spec_path = write_campaign_file(dir);
  const CampaignSpec spec = small_campaign();

  CampaignOptions ref;
  ref.cache_dir = (dir.path / "ref_cache").string();
  ref.include_timing = false;
  ref.threads = 1;
  const std::string in_process =
      io::registry_record("", run_campaign(spec, ref).metrics);

  ShardCampaignOptions sopt = sharded_options(dir, spec_path, 3);
  sopt.base.threads = 1;
  sopt.worker_threads = 1;
  const std::string sharded =
      io::registry_record("", run_sharded_campaign(spec, sopt).campaign.metrics);

  const std::size_t gauge = in_process.find(",\"delta_reuse_rate\":");
  ASSERT_NE(gauge, std::string::npos) << in_process;
  const std::string canonical = in_process.substr(0, gauge);
  EXPECT_EQ(sharded.substr(0, canonical.size() + 10), canonical + ",\"shards\":")
      << sharded;
  const std::string rate = in_process.substr(gauge);
  ASSERT_GE(sharded.size(), rate.size());
  EXPECT_EQ(sharded.substr(sharded.size() - rate.size()), rate) << sharded;
}

}  // namespace
}  // namespace vinoc::campaign
