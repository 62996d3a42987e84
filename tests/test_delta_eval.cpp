// Candidate-level delta evaluation: bit-identity of the config-diff replay
// path against from-scratch evaluation (threads x prune on seed benchmarks
// and synthetic multi-island specs), the forced route-equivalence
// certificate (every replayed route re-derived by the flow's own Dijkstra
// and compared hop-by-hop, zero rejects), reuse-counter
// sanity at threads == 1 (the reference always precedes its members), and
// composition with the width sweep on both the default and fine width grids.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "vinoc/campaign/spec_hash.hpp"
#include "vinoc/core/explore.hpp"
#include "vinoc/core/router.hpp"
#include "vinoc/core/synthesis.hpp"
#include "vinoc/soc/benchmarks.hpp"
#include "vinoc/soc/islanding.hpp"

namespace vinoc::core {
namespace {

soc::SocSpec islanded(const soc::Benchmark& bm, int islands) {
  return soc::with_logical_islands(bm.soc, islands, bm.use_cases);
}

std::uint64_t fp(const SynthesisResult& r) {
  return campaign::result_fingerprint(r);
}

/// RAII guard for the process-global forced-certificate knob.
struct ForcedCertGuard {
  explicit ForcedCertGuard(bool enabled) : prev(set_delta_cert_forced(enabled)) {}
  ~ForcedCertGuard() { set_delta_cert_forced(prev); }
  bool prev;
};

TEST(DeltaEval, BitIdenticalToFromScratchForThreadsAndPrune) {
  for (const soc::SocSpec& spec :
       {islanded(soc::make_d26_media_soc(), 4),
        islanded(soc::make_d36_settop_soc(), 3)}) {
    for (const bool prune : {true, false}) {
      // From-scratch reference (delta off, threads == 1).
      SynthesisOptions ref_opt;
      ref_opt.threads = 1;
      ref_opt.prune = prune;
      ref_opt.delta_eval = false;
      const std::uint64_t ref = fp(synthesize(spec, ref_opt));

      for (const int threads : {1, 4}) {
        SynthesisOptions opt;
        opt.threads = threads;
        opt.prune = prune;
        opt.delta_eval = true;
        const SynthesisResult r = synthesize(spec, opt);
        EXPECT_EQ(fp(r), ref) << "threads " << threads << " prune " << prune;
        if (threads == 1) {
          // Sequential evaluation: every group reference finishes before its
          // members start, so replay is always armed and must pay off.
          EXPECT_GT(r.stats.delta_candidates, 0);
          EXPECT_GT(r.stats.delta_flows_reused, 0);
          EXPECT_GT(r.stats.delta_reuse_rate(), 0.0);
        }
        EXPECT_EQ(r.stats.delta_cert_rejects, 0);
      }
    }
  }
}

TEST(DeltaEval, ForcedCertificateAcceptsEveryReplay) {
  // Forced mode re-derives every would-be replayed route with the flow's own
  // solo Dijkstra and compares hop sequences: the certificate must accept
  // every one (the replay machinery claims bit-identity; here it proves it
  // route by route), and the result must still match from-scratch.
  const ForcedCertGuard guard(true);
  for (const soc::SocSpec& spec :
       {islanded(soc::make_d26_media_soc(), 4),
        islanded(soc::make_d64_tile_soc(), 4)}) {
    SynthesisOptions ref_opt;
    ref_opt.delta_eval = false;
    const std::uint64_t ref = fp(synthesize(spec, ref_opt));

    SynthesisOptions opt;
    opt.delta_eval = true;
    const SynthesisResult r = synthesize(spec, opt);
    EXPECT_EQ(fp(r), ref);
    EXPECT_GT(r.stats.delta_flows_certified, 0);
    EXPECT_EQ(r.stats.delta_flows_reused, 0);  // forced mode certifies instead
    EXPECT_EQ(r.stats.delta_cert_rejects, 0);
  }
}

TEST(DeltaEval, ReuseRateIsMeaningfulOnSeedBenchmarks) {
  // The acceptance bar for the perf claim: seed-benchmark sweeps serve > 30%
  // of delta-eligible flows from the group reference instead of running
  // Dijkstra. The rate tracks the intra/cross flow mix (only intra-island
  // flows are replayable — a k_int diff can reroute any cross flow), so it
  // is highest at low island counts; these configurations measure 0.34-0.49.
  for (const auto& [bm, islands] :
       {std::pair{soc::make_d26_media_soc(), 2},
        std::pair{soc::make_d64_tile_soc(), 4}}) {
    const soc::SocSpec spec = islanded(bm, islands);
    SynthesisOptions opt;
    opt.threads = 1;
    const SynthesisResult r = synthesize(spec, opt);
    EXPECT_GT(r.stats.delta_reuse_rate(), 0.3);
  }
}

TEST(DeltaEval, ComposesWithWidthSweepOnDefaultAndFineGrids) {
  const soc::SocSpec spec = islanded(soc::make_d26_media_soc(), 4);
  for (const std::vector<int>& widths :
       {std::vector<int>{32, 64, 128}, std::vector<int>{128, 160, 192, 256}}) {
    SynthesisOptions ref_opt;
    ref_opt.delta_eval = false;
    const WidthSweepResult ref = explore_link_widths(spec, widths, ref_opt);

    for (const int threads : {1, 4}) {
      SynthesisOptions opt;
      opt.threads = threads;
      opt.delta_eval = true;
      const WidthSweepResult sweep = explore_link_widths(spec, widths, opt);
      ASSERT_EQ(sweep.entries.size(), ref.entries.size());
      for (std::size_t i = 0; i < widths.size(); ++i) {
        ASSERT_EQ(sweep.entries[i].feasible, ref.entries[i].feasible)
            << "width " << widths[i];
        if (!ref.entries[i].feasible) continue;
        EXPECT_EQ(fp(sweep.entries[i].result), fp(ref.entries[i].result))
            << "width " << widths[i] << " threads " << threads;
      }
    }
  }
}

}  // namespace
}  // namespace vinoc::core
