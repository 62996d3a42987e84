// Fault injection (spec parsing, seeded determinism, fire caps) and the
// supervision behaviors it powers: retry-then-succeed, quarantine after
// exhausted retries, job timeouts, deadlines and external interruption —
// a campaign under injected faults always COMPLETES, one record per job.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "vinoc/campaign/campaign_spec.hpp"
#include "vinoc/campaign/engine.hpp"
#include "vinoc/campaign/report.hpp"
#include "vinoc/exec/cancel.hpp"
#include "vinoc/faultinject/faultinject.hpp"
#include "vinoc/io/jsonl.hpp"

namespace vinoc {
namespace {

namespace fs = std::filesystem;
using faultinject::Site;

/// Disarms injection around every test so armed state never leaks.
class FaultInject : public ::testing::Test {
 protected:
  void SetUp() override { faultinject::reset(); }
  void TearDown() override { faultinject::reset(); }
};

campaign::CampaignSpec tiny_campaign() {
  campaign::CampaignSpec spec;
  spec.name = "chaos";
  campaign::SyntheticScenario family;
  family.params.cores = 9;
  family.params.hubs = 2;
  spec.synthetic.push_back(family);
  spec.strategies = {"logical"};
  spec.island_counts = {2, 3};
  spec.widths = {32, 64};
  return spec;
}

campaign::CampaignOptions fast_options() {
  campaign::CampaignOptions opt;
  opt.threads = 1;
  opt.include_timing = false;
  opt.retry_backoff_ms = 0.0;  // keep chaos tests fast
  return opt;
}

TEST_F(FaultInject, SpecParsing) {
  std::string error;
  EXPECT_TRUE(faultinject::configure("eval:0.5", 1, &error)) << error;
  EXPECT_TRUE(faultinject::armed());
  EXPECT_TRUE(faultinject::configure("eval:0.1,store_write:1@2", 1, &error));
  EXPECT_TRUE(faultinject::configure("", 1, &error));  // empty = disarm
  EXPECT_FALSE(faultinject::armed());

  EXPECT_FALSE(faultinject::configure("bogus_site:0.5", 1, &error));
  EXPECT_FALSE(faultinject::configure("eval", 1, &error));
  EXPECT_FALSE(faultinject::configure("eval:notanumber", 1, &error));
  EXPECT_FALSE(faultinject::configure("eval:2.0", 1, &error));  // rate > 1
  EXPECT_FALSE(faultinject::configure("eval:0.5@", 1, &error));
  EXPECT_FALSE(faultinject::armed());  // a bad spec never half-arms
}

TEST_F(FaultInject, ConfigureFromEnv) {
  ::setenv("VINOC_FAULT", "eval:1@3", 1);
  ::setenv("VINOC_FAULT_SEED", "7", 1);
  faultinject::configure_from_env();
  EXPECT_TRUE(faultinject::armed());

  ::setenv("VINOC_FAULT", "eval:nope", 1);
  EXPECT_THROW(faultinject::configure_from_env(), std::invalid_argument);

  ::unsetenv("VINOC_FAULT");
  ::unsetenv("VINOC_FAULT_SEED");
  faultinject::configure_from_env();
  EXPECT_FALSE(faultinject::armed());
}

TEST_F(FaultInject, DecisionsAreSeededAndDeterministic) {
  auto pattern = [](std::uint64_t seed) {
    std::string error;
    EXPECT_TRUE(faultinject::configure("eval:0.3", seed, &error)) << error;
    std::vector<bool> fires;
    fires.reserve(64);
    for (int i = 0; i < 64; ++i) {
      fires.push_back(faultinject::should_fire(Site::kEval));
    }
    return fires;
  };
  const std::vector<bool> a = pattern(42);
  const std::vector<bool> b = pattern(42);
  EXPECT_EQ(a, b);  // same seed replays exactly
  const std::vector<bool> c = pattern(43);
  EXPECT_NE(a, c);  // different seed, different stream
}

TEST_F(FaultInject, RateZeroOneAndFireCap) {
  std::string error;
  ASSERT_TRUE(faultinject::configure("eval:1", 1, &error));
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(faultinject::should_fire(Site::kEval));

  ASSERT_TRUE(faultinject::configure("eval:1,store_write:0", 1, &error));
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(faultinject::should_fire(Site::kStoreWrite));
  }

  ASSERT_TRUE(faultinject::configure("eval:1@3", 1, &error));
  int fired = 0;
  for (int i = 0; i < 10; ++i) fired += faultinject::should_fire(Site::kEval);
  EXPECT_EQ(fired, 3);  // cap stops the site after 3 fires
  EXPECT_EQ(faultinject::fire_count(Site::kEval), 3u);
  EXPECT_EQ(faultinject::hit_count(Site::kEval), 10u);
}

TEST_F(FaultInject, AlwaysFailingEvalQuarantinesEveryJobButCompletes) {
  std::string error;
  ASSERT_TRUE(faultinject::configure("eval:1", 1, &error));
  const campaign::CampaignSpec spec = tiny_campaign();
  const fs::path dir = fs::path(testing::TempDir()) / "vinoc_chaos_fail";
  fs::remove_all(dir);

  campaign::CampaignOptions opt = fast_options();
  opt.cache_dir = dir.string();
  opt.max_retries = 1;
  const campaign::CampaignResult result = campaign::run_campaign(spec, opt);

  ASSERT_EQ(result.records.size(), 4u);  // one record per job, always
  for (const campaign::JobRecord& rec : result.records) {
    EXPECT_EQ(rec.status, "failed");
    EXPECT_FALSE(rec.feasible);
  }
  EXPECT_EQ(result.quarantined_jobs(), 4);
  EXPECT_GT(result.retries(), 0);
  EXPECT_FALSE(result.interrupted());

  // The quarantine ledger exists, is checksummed, and parses.
  std::ifstream failed(dir / "failed.jsonl");
  ASSERT_TRUE(failed.good());
  std::string line;
  int ledger_lines = 0;
  while (std::getline(failed, line)) {
    ++ledger_lines;
    EXPECT_EQ(io::verify_line_checksum(line, nullptr),
              io::ChecksumStatus::kOk);
    EXPECT_NE(line.find("\"status\":\"failed\""), std::string::npos);
  }
  EXPECT_GT(ledger_lines, 0);
  fs::remove_all(dir);
}

TEST_F(FaultInject, SingleInjectedFaultIsRetriedAndSucceeds) {
  std::string error;
  ASSERT_TRUE(faultinject::configure("eval:1@1", 1, &error));
  const campaign::CampaignSpec spec = tiny_campaign();
  campaign::CampaignOptions opt = fast_options();
  opt.max_retries = 2;
  const campaign::CampaignResult result = campaign::run_campaign(spec, opt);

  ASSERT_EQ(result.records.size(), 4u);
  for (const campaign::JobRecord& rec : result.records) {
    EXPECT_EQ(rec.status, "ok");
  }
  EXPECT_EQ(result.quarantined_jobs(), 0);
  EXPECT_GE(result.retries(), 1);  // exactly one attempt saw the fault
}

TEST_F(FaultInject, StoreWriteFaultsDegradeButNeverFailTheCampaign) {
  std::string error;
  ASSERT_TRUE(faultinject::configure("store_write:1", 1, &error));
  const campaign::CampaignSpec spec = tiny_campaign();
  const fs::path dir = fs::path(testing::TempDir()) / "vinoc_chaos_store";
  fs::remove_all(dir);

  campaign::CampaignOptions opt = fast_options();
  opt.cache_dir = dir.string();
  const campaign::CampaignResult result = campaign::run_campaign(spec, opt);

  ASSERT_EQ(result.records.size(), 4u);
  for (const campaign::JobRecord& rec : result.records) {
    EXPECT_EQ(rec.status, "ok");  // results are fine, only persistence broke
  }
  EXPECT_GT(result.store_write_errors(), 0);
  fs::remove_all(dir);
}

TEST_F(FaultInject, TinyJobTimeoutTimesEveryJobOut) {
  const campaign::CampaignSpec spec = tiny_campaign();
  campaign::CampaignOptions opt = fast_options();
  opt.job_timeout_s = 1e-9;  // expires before the first cancellation poll
  const campaign::CampaignResult result = campaign::run_campaign(spec, opt);

  ASSERT_EQ(result.records.size(), 4u);
  for (const campaign::JobRecord& rec : result.records) {
    EXPECT_EQ(rec.status, "timeout");
  }
  EXPECT_EQ(result.quarantined_jobs(), 4);
  EXPECT_EQ(result.job_timeouts(), 4);  // one per "timeout" record
  EXPECT_EQ(result.retries(), 0);  // timeouts are never retried
}

TEST_F(FaultInject, TinyDeadlineSkipsEveryJob) {
  const campaign::CampaignSpec spec = tiny_campaign();
  campaign::CampaignOptions opt = fast_options();
  opt.deadline_s = 1e-9;
  const campaign::CampaignResult result = campaign::run_campaign(spec, opt);

  ASSERT_EQ(result.records.size(), 4u);
  for (const campaign::JobRecord& rec : result.records) {
    EXPECT_EQ(rec.status, "skipped");
  }
  EXPECT_EQ(result.skipped_jobs(), 4);
  EXPECT_FALSE(result.interrupted());  // a deadline is not an interrupt
}

TEST_F(FaultInject, PreCancelledTokenReportsInterrupted) {
  const campaign::CampaignSpec spec = tiny_campaign();
  exec::CancelToken interrupt;
  interrupt.cancel();
  campaign::CampaignOptions opt = fast_options();
  opt.cancel = &interrupt;
  const campaign::CampaignResult result = campaign::run_campaign(spec, opt);

  ASSERT_EQ(result.records.size(), 4u);
  for (const campaign::JobRecord& rec : result.records) {
    EXPECT_EQ(rec.status, "skipped");
  }
  EXPECT_EQ(result.skipped_jobs(), 4);
  EXPECT_TRUE(result.interrupted());
}

TEST_F(FaultInject, CancelMidCohortYieldsExactlyOneRecordPerJob) {
  // Token chaining under NESTED fan-outs: the campaign fans out over
  // structure groups, each group's synthesize_width_set fans out over
  // candidates on the same pool. Cancelling the PARENT token while the
  // first cohort is mid-flight must reach the nested sweep through the
  // chain, abandon it at a candidate boundary, and still leave exactly one
  // record per job — never zero (lost) or two (replayed).
  const campaign::CampaignSpec spec = tiny_campaign();
  exec::CancelToken interrupt;
  campaign::CampaignOptions opt = fast_options();
  opt.threads = 2;
  opt.cancel = &interrupt;
  std::atomic<int> started{0};
  opt.on_job_start = [&](const campaign::CampaignJob&) {
    if (started.fetch_add(1) == 0) interrupt.cancel();
  };
  const campaign::CampaignResult result = campaign::run_campaign(spec, opt);

  ASSERT_EQ(result.records.size(), 4u);
  std::set<std::uint64_t> keys;
  for (const campaign::JobRecord& rec : result.records) {
    EXPECT_TRUE(keys.insert(rec.key).second) << "duplicate record " << rec.job;
    EXPECT_TRUE(rec.status == "ok" || rec.status == "skipped") << rec.status;
  }
  EXPECT_TRUE(result.interrupted());
  EXPECT_EQ(result.quarantined_jobs(), 0);
  EXPECT_GE(result.skipped_jobs(), 1);
  EXPECT_EQ(result.jobs_run() + result.skipped_jobs(), 4);
}

TEST_F(FaultInject, StallSiteSleepsWithoutFailing) {
  std::string error;
  ASSERT_TRUE(faultinject::configure("eval_stall:1@1", 1, &error));
  faultinject::set_stall_ms(1);
  faultinject::maybe_stall(Site::kEvalStall);  // fires: sleeps 1 ms, no throw
  faultinject::maybe_stall(Site::kEvalStall);  // cap reached: no-op
  EXPECT_EQ(faultinject::fire_count(Site::kEvalStall), 1u);
}

}  // namespace
}  // namespace vinoc
