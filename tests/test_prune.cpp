// Pareto-bound pruning: the bound oracle itself, front preservation
// (pruned mode must keep the exact Pareto front / best points of the
// unpruned sweep on the seed benchmarks), determinism across thread counts
// (the merge-time replay and checkpoint re-check), and scratch-arena
// bit-identity.
#include <gtest/gtest.h>

#include <cmath>

#include "vinoc/core/candidates.hpp"
#include "vinoc/core/prune.hpp"
#include "vinoc/core/synthesis.hpp"
#include "vinoc/exec/thread_pool.hpp"
#include "vinoc/soc/benchmarks.hpp"
#include "vinoc/soc/islanding.hpp"

namespace vinoc::core {
namespace {

TEST(ParetoBound, EmptyDominatesNothing) {
  ParetoBound b;
  EXPECT_FALSE(b.dominated(1.0, 1.0));
  EXPECT_FALSE(b.dominated(1e9, 1e9));
}

TEST(ParetoBound, DominatedIsComponentwiseLessOrEqual) {
  ParetoBound b;
  b.insert(2.0, 10.0);
  EXPECT_TRUE(b.dominated(2.0, 10.0));   // equality counts (never on front)
  EXPECT_TRUE(b.dominated(3.0, 11.0));   // strictly worse in both
  EXPECT_FALSE(b.dominated(1.9, 11.0));  // better power
  EXPECT_FALSE(b.dominated(3.0, 9.9));   // better latency
}

TEST(ParetoBound, StaircaseKeepsOnlyNonDominatedPoints) {
  ParetoBound b;
  b.insert(2.0, 10.0);
  b.insert(3.0, 8.0);
  b.insert(1.0, 12.0);
  EXPECT_EQ(b.size(), 3u);
  b.insert(2.5, 9.0);  // between (2,10) and (3,8): non-dominated
  EXPECT_EQ(b.size(), 4u);
  b.insert(2.5, 9.5);  // dominated by (2.5, 9.0): ignored
  EXPECT_EQ(b.size(), 4u);
  b.insert(0.5, 7.0);  // dominates everything: staircase collapses
  EXPECT_EQ(b.size(), 1u);
  EXPECT_TRUE(b.dominated(0.5, 7.0));
  EXPECT_FALSE(b.dominated(0.4, 100.0));
}

TEST(ParetoBound, EqualPowerImprovementReplacesThePoint) {
  ParetoBound b;
  b.insert(2.0, 10.0);
  b.insert(2.0, 8.0);  // same power, better latency: supersedes, not appends
  EXPECT_EQ(b.size(), 1u);
  EXPECT_TRUE(b.dominated(2.0, 8.0));
  EXPECT_FALSE(b.dominated(2.0, 7.9));
  b.insert(2.0, 9.0);  // worse again: ignored
  EXPECT_EQ(b.size(), 1u);
}

TEST(SharedParetoBound, SnapshotIsNullUntilFirstPublishThenStable) {
  SharedParetoBound shared;
  EXPECT_EQ(shared.snapshot(), nullptr);
  shared.publish(1.0, 5.0);
  const auto snap = shared.snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_TRUE(snap->dominated(1.0, 5.0));
  // Later publishes do not mutate an already-taken snapshot.
  shared.publish(0.5, 4.0);
  EXPECT_FALSE(snap->dominated(0.9, 4.5));
  EXPECT_TRUE(shared.snapshot()->dominated(0.9, 4.5));
}

struct SeedCase {
  const char* name;
  soc::SocSpec spec;
};

std::vector<SeedCase> seed_cases() {
  std::vector<SeedCase> cases;
  const soc::Benchmark d26 = soc::make_d26_media_soc();
  const soc::Benchmark d36 = soc::make_d36_settop_soc();
  const soc::Benchmark d16 = soc::make_d16_auto_soc();
  // Single-island references (the paper's baseline point — prune-heavy) and
  // multi-island sweeps (base-bound pruning, intermediate VI in play).
  cases.push_back({"d26/l1", soc::with_logical_islands(d26.soc, 1, d26.use_cases)});
  cases.push_back({"d36/l1", soc::with_logical_islands(d36.soc, 1, d36.use_cases)});
  cases.push_back({"d16/l3", soc::with_logical_islands(d16.soc, 3, d16.use_cases)});
  cases.push_back({"d36/c4",
                   soc::with_communication_islands(d36.soc, 4, d36.use_cases)});
  cases.push_back({"d26/l6", soc::with_logical_islands(d26.soc, 6, d26.use_cases)});
  return cases;
}

TEST(Prune, FrontAndBestPointsMatchUnprunedOnSeedBenchmarks) {
  int total_pruned = 0;
  for (const SeedCase& c : seed_cases()) {
    SynthesisOptions on;
    on.prune = true;
    SynthesisOptions off;
    off.prune = false;
    const SynthesisResult pruned = synthesize(c.spec, on);
    const SynthesisResult full = synthesize(c.spec, off);
    total_pruned += pruned.stats.rejected_pruned;

    // Pruning may only drop dominated interior points.
    EXPECT_LE(pruned.points.size(), full.points.size()) << c.name;
    EXPECT_EQ(pruned.stats.rejected_pruned + pruned.stats.configs_routed +
                  pruned.stats.rejected_latency + pruned.stats.rejected_unroutable,
              pruned.stats.configs_explored)
        << c.name;
    EXPECT_EQ(full.stats.rejected_pruned, 0) << c.name;

    // The Pareto front must be METRIC-identical (indices may differ since
    // interior points are gone).
    ASSERT_EQ(pruned.pareto.size(), full.pareto.size()) << c.name;
    for (std::size_t i = 0; i < pruned.pareto.size(); ++i) {
      const Metrics& a = pruned.points[pruned.pareto[i]].metrics;
      const Metrics& b = full.points[full.pareto[i]].metrics;
      EXPECT_EQ(a.noc_dynamic_w, b.noc_dynamic_w) << c.name << " front " << i;
      EXPECT_EQ(a.avg_latency_cycles, b.avg_latency_cycles) << c.name << " front " << i;
    }
    ASSERT_FALSE(pruned.points.empty()) << c.name;
    EXPECT_EQ(pruned.best_power().metrics.noc_dynamic_w,
              full.best_power().metrics.noc_dynamic_w)
        << c.name;
    EXPECT_EQ(pruned.best_latency().metrics.avg_latency_cycles,
              full.best_latency().metrics.avg_latency_cycles)
        << c.name;

    // Every surviving pruned-mode point exists metric-identically in the
    // unpruned run (pruning never invents points).
    for (const DesignPoint& p : pruned.points) {
      bool found = false;
      for (const DesignPoint& q : full.points) {
        if (p.metrics.noc_dynamic_w == q.metrics.noc_dynamic_w &&
            p.metrics.avg_latency_cycles == q.metrics.avg_latency_cycles) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << c.name;
    }
  }
  // The machinery must actually fire somewhere on the seed set, or this
  // whole test is vacuous.
  EXPECT_GT(total_pruned, 0);
}

TEST(Prune, DeterministicAcrossThreadCounts) {
  for (const SeedCase& c : seed_cases()) {
    SynthesisOptions seq;
    seq.prune = true;
    seq.threads = 1;
    const SynthesisResult base = synthesize(c.spec, seq);
    for (const int threads : {2, 4}) {
      SynthesisOptions par = seq;
      par.threads = threads;
      const SynthesisResult r = synthesize(c.spec, par);
      EXPECT_EQ(base.stats.rejected_pruned, r.stats.rejected_pruned)
          << c.name << " t=" << threads;
      EXPECT_EQ(base.stats.configs_saved, r.stats.configs_saved)
          << c.name << " t=" << threads;
      ASSERT_EQ(base.points.size(), r.points.size()) << c.name << " t=" << threads;
      for (std::size_t i = 0; i < base.points.size(); ++i) {
        EXPECT_EQ(base.points[i].metrics.noc_dynamic_w,
                  r.points[i].metrics.noc_dynamic_w);
        EXPECT_EQ(base.points[i].metrics.avg_latency_cycles,
                  r.points[i].metrics.avg_latency_cycles);
        EXPECT_EQ(base.points[i].topology.links.size(),
                  r.points[i].topology.links.size());
      }
      EXPECT_EQ(base.pareto, r.pareto) << c.name << " t=" << threads;
    }
  }
}

TEST(Prune, ScratchPoolReuseIsBitIdenticalAcrossRuns) {
  const soc::Benchmark d16 = soc::make_d16_auto_soc();
  const soc::SocSpec spec = soc::with_logical_islands(d16.soc, 3, d16.use_cases);
  SynthesisOptions opt;  // prune on, threads 1
  const SynthesisResult fresh = synthesize(spec, opt);

  exec::ThreadPool pool(1);
  EvalScratchPool scratch;
  for (int run = 0; run < 3; ++run) {  // arenas carry state across runs
    const SynthesisResult r = synthesize(spec, opt, pool, scratch);
    ASSERT_EQ(fresh.points.size(), r.points.size()) << "run " << run;
    for (std::size_t i = 0; i < fresh.points.size(); ++i) {
      EXPECT_EQ(fresh.points[i].metrics.noc_dynamic_w,
                r.points[i].metrics.noc_dynamic_w);
      EXPECT_EQ(fresh.points[i].metrics.avg_latency_cycles,
                r.points[i].metrics.avg_latency_cycles);
      EXPECT_EQ(fresh.points[i].topology.links.size(),
                r.points[i].topology.links.size());
    }
    EXPECT_EQ(fresh.pareto, r.pareto);
    EXPECT_EQ(fresh.stats.rejected_pruned, r.stats.rejected_pruned);
  }
  EXPECT_GE(scratch.slot_count(), 1u);
}

TEST(Prune, ZeroFlowSpecSynthesizesWithPruningOn) {
  const soc::Benchmark d16 = soc::make_d16_auto_soc();
  soc::SocSpec spec = soc::with_logical_islands(d16.soc, 2, d16.use_cases);
  spec.flows.clear();
  SynthesisOptions opt;  // prune on
  const SynthesisResult r = synthesize(spec, opt);
  ASSERT_FALSE(r.points.empty());
  for (const DesignPoint& p : r.points) {
    EXPECT_TRUE(p.topology.links.empty());
    EXPECT_EQ(p.metrics.avg_latency_cycles, 0.0);
  }
}

TEST(Prune, MergeRechecksThePreRoutingAndLastCheckpoints) {
  // An evaluation that ran against a stale snapshot reaches the merge
  // routed or rejected; the merge must prune it exactly when a sequential
  // run would have pruned it at ANY checkpoint. The pre-routing latency
  // bound divides by the flow count and the router multiplies by its
  // reciprocal, so the last checkpoint can sit one ulp below the
  // pre-routing one: a front point dominating only the pre-routing bounds
  // must still prune.
  SynthesisOptions opt;  // prune on
  SynthesisResult result;
  OutcomeMerger merger(
      opt,
      [](std::size_t, const ParetoBound&) {
        ADD_FAILURE() << "no outcome here needs a replay";
        return CandidateOutcome{};
      },
      result);
  auto outcome = [](EvalStatus status, double base_power, double base_latency,
                    double power, double latency, int signature) {
    CandidateOutcome o;
    o.status = status;
    o.base_lb_power_w = base_power;
    o.base_lb_latency_cycles = base_latency;
    o.lb_power_w = power;
    o.lb_latency_cycles = latency;
    o.point.metrics.noc_dynamic_w = power;
    o.point.metrics.avg_latency_cycles = latency;
    o.signature = {signature};
    return o;
  };
  // Saved: puts (1.0, 3.0) on the merge front.
  merger.add(outcome(EvalStatus::kRouted, 0.5, 2.0, 1.0, 3.0, 0));
  // Pre-routing bounds dominated, last ones one ulp below in latency.
  merger.add(outcome(EvalStatus::kRouted, 1.1, 3.0, 1.2,
                     std::nextafter(3.0, 0.0), 1));
  // Failed on a later flow after a dominated checkpoint.
  merger.add(outcome(EvalStatus::kRejectedLatency, 0.9, 2.0, 1.5, 3.5, 2));
  // Dominated at no checkpoint: saved.
  merger.add(outcome(EvalStatus::kRouted, 0.6, 2.0, 0.8, 3.2, 3));
  merger.finish();
  EXPECT_EQ(result.stats.configs_explored, 4);
  EXPECT_EQ(result.stats.rejected_pruned, 2);
  EXPECT_EQ(result.stats.rejected_latency, 0);
  EXPECT_EQ(result.stats.configs_saved, 2);
  ASSERT_EQ(result.points.size(), 2u);
  EXPECT_EQ(result.points[1].metrics.noc_dynamic_w, 0.8);
}

}  // namespace
}  // namespace vinoc::core
