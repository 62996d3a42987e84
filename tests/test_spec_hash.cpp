// Canonical spec hashing: value-identical inputs hash equal, every
// result-affecting single-field perturbation re-keys the job, wall-clock
// knobs do not, and a cache hit hands back a bit-identical SynthesisResult.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>

#include "vinoc/campaign/campaign_spec.hpp"
#include "vinoc/campaign/result_cache.hpp"
#include "vinoc/campaign/spec_hash.hpp"
#include "vinoc/core/synthesis.hpp"
#include "vinoc/soc/benchmarks.hpp"
#include "vinoc/soc/islanding.hpp"

namespace vinoc::campaign {
namespace {

soc::SocSpec small_spec() {
  const soc::Benchmark bench = soc::make_d16_auto_soc();
  return soc::with_logical_islands(bench.soc, 3, bench.use_cases);
}

TEST(SpecHash, IdenticalInputsHashEqual) {
  const soc::SocSpec a = small_spec();
  const soc::SocSpec b = small_spec();
  const core::SynthesisOptions opt;
  EXPECT_EQ(hash_soc_spec(a), hash_soc_spec(b));
  EXPECT_EQ(job_key(a, opt), job_key(b, opt));
}

TEST(SpecHash, FlowBandwidthPerturbationChangesHash) {
  const soc::SocSpec base = small_spec();
  soc::SocSpec tweaked = base;
  tweaked.flows[0].bandwidth_bits_per_s += 1.0;
  EXPECT_NE(hash_soc_spec(base), hash_soc_spec(tweaked));
}

TEST(SpecHash, IslandAssignmentPerturbationChangesHash) {
  const soc::SocSpec base = small_spec();
  soc::SocSpec tweaked = base;
  tweaked.cores[0].island = (tweaked.cores[0].island + 1) %
                            static_cast<int>(tweaked.islands.size());
  EXPECT_NE(hash_soc_spec(base), hash_soc_spec(tweaked));
}

TEST(SpecHash, ShutdownFlagAndScenarioPerturbationsChangeHash) {
  const soc::SocSpec base = small_spec();
  soc::SocSpec flag = base;
  flag.islands[0].can_shutdown = !flag.islands[0].can_shutdown;
  EXPECT_NE(hash_soc_spec(base), hash_soc_spec(flag));
  ASSERT_FALSE(base.scenarios.empty());
  soc::SocSpec scen = base;
  scen.scenarios[0].time_fraction *= 0.5;
  EXPECT_NE(hash_soc_spec(base), hash_soc_spec(scen));
}

TEST(SpecHash, OptionPerturbationsChangeKey) {
  const soc::SocSpec spec = small_spec();
  const core::SynthesisOptions base;
  const std::uint64_t base_key = job_key(spec, base);

  core::SynthesisOptions width = base;
  width.link_width_bits = 64;
  EXPECT_NE(base_key, job_key(spec, width));

  core::SynthesisOptions alpha = base;
  alpha.alpha += 0.01;
  EXPECT_NE(base_key, job_key(spec, alpha));

  core::SynthesisOptions seed = base;
  seed.partition_seed += 1;
  EXPECT_NE(base_key, job_key(spec, seed));

  core::SynthesisOptions deadlock = base;
  deadlock.enforce_deadlock_freedom = !deadlock.enforce_deadlock_freedom;
  EXPECT_NE(base_key, job_key(spec, deadlock));

  core::SynthesisOptions tech = base;
  tech.tech.fifo_latency_cycles += 1;
  EXPECT_NE(base_key, job_key(spec, tech));
}

TEST(SpecHash, WallClockKnobsDoNotChangeKey) {
  const soc::SocSpec spec = small_spec();
  const core::SynthesisOptions base;
  core::SynthesisOptions threaded = base;
  threaded.threads = 8;
  threaded.on_progress = [](const core::SynthesisProgress&) {};
  EXPECT_EQ(job_key(spec, base), job_key(spec, threaded));
}

TEST(SpecHash, KeyHexRoundTrips) {
  const std::uint64_t key = 0x0123456789abcdefull;
  EXPECT_EQ(key_hex(key), "0123456789abcdef");
  std::uint64_t back = 0;
  ASSERT_TRUE(key_from_hex(key_hex(key), back));
  EXPECT_EQ(back, key);
  EXPECT_FALSE(key_from_hex("123", back));
  EXPECT_FALSE(key_from_hex("0123456789abcdeg", back));
}

TEST(SpecHash, CacheHitReturnsBitIdenticalResult) {
  const soc::SocSpec spec = small_spec();
  core::SynthesisOptions opt;
  opt.threads = 1;
  const std::uint64_t key = job_key(spec, opt);

  auto first = std::make_shared<core::SynthesisResult>(
      core::synthesize(spec, opt));
  ResultCache cache;
  cache.put_result(key, first);

  // The hit IS the stored object — bit-identical by construction.
  const auto hit = cache.find_result(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), first.get());

  // And an independent recomputation fingerprints identically (synthesis is
  // deterministic), so serving the cached object loses nothing.
  const core::SynthesisResult second = core::synthesize(spec, opt);
  EXPECT_EQ(result_fingerprint(*hit), result_fingerprint(second));

  EXPECT_EQ(cache.find_result(key ^ 1), nullptr);
}

TEST(SpecHash, PerturbedSyntheticParamsChangeSpecHash) {
  soc::SyntheticParams params;
  params.cores = 9;
  params.hubs = 2;
  const soc::SyntheticParams variant =
      soc::perturb_synthetic_params(params, 1);
  EXPECT_NE(hash_soc_spec(soc::make_synthetic_soc(params).soc),
            hash_soc_spec(soc::make_synthetic_soc(variant).soc));
  // Perturbation is pure: the same (base, variant) yields the same params.
  const soc::SyntheticParams again = soc::perturb_synthetic_params(params, 1);
  EXPECT_EQ(variant.seed, again.seed);
  EXPECT_EQ(variant.flows_per_core, again.flows_per_core);
  EXPECT_EQ(variant.hub_bw_lo, again.hub_bw_lo);
  // variant 0 is the base itself.
  const soc::SyntheticParams zero = soc::perturb_synthetic_params(params, 0);
  EXPECT_EQ(zero.seed, params.seed);
  EXPECT_EQ(zero.flows_per_core, params.flows_per_core);
}

TEST(SpecHash, ExpandedKeysEqualFromScratchKeys) {
  // expand_jobs hashes each islanded spec once and keys every width from
  // that hash; every stored key must equal the from-scratch key of the
  // job's own (spec, options), over named and synthetic scenarios, all
  // three islanding strategies and two widths.
  CampaignSpec spec;
  spec.benchmarks = {"d16", "d24", "d26"};
  SyntheticScenario family;
  family.params.cores = 12;
  family.params.hubs = 2;
  family.perturbations = 1;
  spec.synthetic.push_back(family);
  spec.strategies = {"spec", "logical", "comm"};
  spec.island_counts = {2, 3, 5};
  spec.widths = {32, 128};
  ExpandStats stats;
  const std::vector<CampaignJob> jobs = expand_jobs(spec, &stats);
  EXPECT_EQ(stats.raw, 5 * 2 * (1 + 2 * 3));
  std::set<std::string> strategies;
  for (const CampaignJob& job : jobs) {
    strategies.insert(job.strategy);
    EXPECT_EQ(job.key, job_key(job.spec, job.options)) << job.name;
    EXPECT_EQ(job.structure_key, structure_key(job.spec, job.options))
        << job.name;
  }
  EXPECT_EQ(strategies.size(), 3u);
}

TEST(SpecHash, KeysArePinnedSoOldStoresStillResume) {
  // Literal keys written by earlier releases: a store keyed by them must
  // keep resuming as all hits, so any change to the canonical hash streams
  // (spec, options, islanding) shows up here first.
  CampaignSpec spec;
  spec.benchmarks = {"d16"};
  spec.strategies = {"spec", "logical", "comm"};
  spec.island_counts = {3};
  spec.widths = {64};
  const std::map<std::string, std::pair<std::string, std::string>> pinned = {
      {"d16/spec/w64", {"e9cb1a696e61e766", "c0a8b187ba3ab662"}},
      {"d16/logical/i3/w64", {"9294e8552bb04698", "e3aa15ce655f5000"}},
      {"d16/comm/i3/w64", {"909468ec27bf5f0c", "ec313f37e82e3b8c"}},
  };
  const std::vector<CampaignJob> jobs = expand_jobs(spec);
  ASSERT_EQ(jobs.size(), pinned.size());
  for (const CampaignJob& job : jobs) {
    const auto it = pinned.find(job.name);
    ASSERT_NE(it, pinned.end()) << job.name;
    EXPECT_EQ(key_hex(job.key), it->second.first) << job.name;
    EXPECT_EQ(key_hex(job.structure_key), it->second.second) << job.name;
  }
}

}  // namespace
}  // namespace vinoc::campaign
