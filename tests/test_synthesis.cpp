// Tests for the full synthesis flow (Algorithm 1).
#include <gtest/gtest.h>

#include <set>

#include "vinoc/core/shutdown_safety.hpp"
#include "vinoc/core/synthesis.hpp"
#include "vinoc/soc/benchmarks.hpp"
#include "vinoc/soc/islanding.hpp"

namespace vinoc::core {
namespace {

soc::SocSpec d26_spec(int islands) {
  const soc::Benchmark d26 = soc::make_d26_media_soc();
  return soc::with_logical_islands(d26.soc, islands, d26.use_cases);
}

TEST(Synthesis, ProducesDesignPointsOnD26) {
  const SynthesisResult r = synthesize(d26_spec(6));
  ASSERT_FALSE(r.points.empty());
  EXPECT_GT(r.stats.configs_explored, 0);
  EXPECT_EQ(r.stats.configs_saved, static_cast<int>(r.points.size()));
}

TEST(Synthesis, EveryPointIsStructurallyValidAndSafe) {
  const soc::SocSpec spec = d26_spec(6);
  const SynthesisResult r = synthesize(spec);
  ASSERT_FALSE(r.points.empty());
  for (const DesignPoint& p : r.points) {
    EXPECT_TRUE(p.topology.validate(spec).empty());
    EXPECT_TRUE(verify_shutdown_safety(p.topology, spec).empty());
  }
}

TEST(Synthesis, LatencyBudgetsHoldOnEveryPoint) {
  const soc::SocSpec spec = d26_spec(7);
  const SynthesisResult r = synthesize(spec);
  ASSERT_FALSE(r.points.empty());
  for (const DesignPoint& p : r.points) {
    for (std::size_t f = 0; f < spec.flows.size(); ++f) {
      EXPECT_LE(p.topology.routes[f].latency_cycles,
                spec.flows[f].max_latency_cycles + 1e-9);
    }
  }
}

TEST(Synthesis, SwitchPortCapsHold) {
  const soc::SocSpec spec = d26_spec(6);
  const SynthesisResult r = synthesize(spec);
  ASSERT_FALSE(r.points.empty());
  for (const DesignPoint& p : r.points) {
    for (std::size_t s = 0; s < p.topology.switches.size(); ++s) {
      const soc::IslandId isl = p.topology.switches[s].island;
      const int cap =
          isl == kIntermediateIsland
              ? r.intermediate_params.max_sw_size
              : r.island_params[static_cast<std::size_t>(isl)].max_sw_size;
      EXPECT_LE(p.topology.switch_ports_in(static_cast<int>(s)), cap);
      EXPECT_LE(p.topology.switch_ports_out(static_cast<int>(s)), cap);
    }
  }
}

TEST(Synthesis, CoresAttachOnlyToOwnIslandSwitches) {
  const soc::SocSpec spec = d26_spec(5);
  const SynthesisResult r = synthesize(spec);
  ASSERT_FALSE(r.points.empty());
  for (const DesignPoint& p : r.points) {
    for (std::size_t c = 0; c < spec.cores.size(); ++c) {
      const int sw = p.topology.switch_of_core[c];
      EXPECT_EQ(p.topology.switches[static_cast<std::size_t>(sw)].island,
                spec.cores[c].island);
    }
  }
}

TEST(Synthesis, ParetoFrontIsNonDominatedAndSorted) {
  const SynthesisResult r = synthesize(d26_spec(6));
  ASSERT_FALSE(r.pareto.empty());
  double prev_power = -1.0;
  double prev_lat = std::numeric_limits<double>::infinity();
  for (const std::size_t idx : r.pareto) {
    const Metrics& m = r.points[idx].metrics;
    EXPECT_GE(m.noc_dynamic_w, prev_power);
    EXPECT_LT(m.avg_latency_cycles, prev_lat);
    prev_power = m.noc_dynamic_w;
    prev_lat = m.avg_latency_cycles;
  }
  // No saved point may dominate a front member.
  for (const std::size_t idx : r.pareto) {
    const Metrics& front = r.points[idx].metrics;
    for (const DesignPoint& p : r.points) {
      const bool dominates =
          p.metrics.noc_dynamic_w < front.noc_dynamic_w - 1e-12 &&
          p.metrics.avg_latency_cycles < front.avg_latency_cycles - 1e-12;
      EXPECT_FALSE(dominates);
    }
  }
}

TEST(Synthesis, BestSelectorsAgreeWithScan) {
  const SynthesisResult r = synthesize(d26_spec(4));
  ASSERT_FALSE(r.points.empty());
  double min_p = std::numeric_limits<double>::infinity();
  double min_l = std::numeric_limits<double>::infinity();
  for (const DesignPoint& p : r.points) {
    min_p = std::min(min_p, p.metrics.noc_dynamic_w);
    min_l = std::min(min_l, p.metrics.avg_latency_cycles);
  }
  EXPECT_DOUBLE_EQ(r.best_power().metrics.noc_dynamic_w, min_p);
  EXPECT_DOUBLE_EQ(r.best_latency().metrics.avg_latency_cycles, min_l);
}

TEST(Synthesis, SingleIslandReferenceHasNoFifos) {
  const SynthesisResult r = synthesize(d26_spec(1));
  ASSERT_FALSE(r.points.empty());
  for (const DesignPoint& p : r.points) {
    EXPECT_EQ(p.metrics.fifo_count, 0);
    EXPECT_EQ(p.intermediate_switches, 0);
  }
}

TEST(Synthesis, EveryCoreAloneStillSynthesizes) {
  const SynthesisResult r = synthesize(d26_spec(26));
  ASSERT_FALSE(r.points.empty());
  // Every flow crosses islands: at least one FIFO per flow.
  const DesignPoint& p = r.best_power();
  EXPECT_GT(p.metrics.fifo_count, 0);
  EXPECT_GE(p.metrics.avg_latency_cycles, 8.0 - 1e-9);
}

TEST(Synthesis, DeterministicForFixedSeed) {
  const soc::SocSpec spec = d26_spec(6);
  const SynthesisResult a = synthesize(spec);
  const SynthesisResult b = synthesize(spec);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.points[i].metrics.noc_dynamic_w,
                     b.points[i].metrics.noc_dynamic_w);
    EXPECT_EQ(a.points[i].topology.links.size(), b.points[i].topology.links.size());
  }
}

TEST(Synthesis, MorePointsWithIntermediateAllowedOrEqual) {
  const soc::SocSpec spec = d26_spec(6);
  SynthesisOptions with;
  with.allow_intermediate_island = true;
  SynthesisOptions without;
  without.allow_intermediate_island = false;
  EXPECT_GE(synthesize(spec, with).stats.configs_explored,
            synthesize(spec, without).stats.configs_explored);
}

TEST(Synthesis, InvalidSpecRejected) {
  soc::SocSpec bad;
  bad.name = "bad";
  // A core referencing a non-existent island.
  soc::CoreSpec c;
  c.name = "x";
  c.island = 3;
  bad.cores.push_back(c);
  EXPECT_THROW((void)synthesize(bad), std::invalid_argument);
}

TEST(Synthesis, InfeasibleWidthThrowsInfeasibleWidthError) {
  SynthesisOptions opts;
  opts.link_width_bits = 1;  // no switch frequency sustains the NI links
  try {
    (void)synthesize(d26_spec(2), opts);
    FAIL() << "expected InfeasibleWidthError";
  } catch (const InfeasibleWidthError& e) {
    EXPECT_STREQ(e.what(),
                 "synthesize: an NI link exceeds attainable bandwidth; widen "
                 "links");
  }
}

TEST(Synthesis, InvalidOptionsRejected) {
  const soc::SocSpec spec = d26_spec(2);
  SynthesisOptions opts;
  opts.alpha = 1.5;
  EXPECT_THROW((void)synthesize(spec, opts), std::invalid_argument);
  opts.alpha = 0.5;
  opts.alpha_power = -0.2;
  EXPECT_THROW((void)synthesize(spec, opts), std::invalid_argument);
}

TEST(Synthesis, UnroutableBandwidthReportedAsWidthProblem) {
  soc::SocSpec spec = d26_spec(2);
  spec.flows[0].bandwidth_bits_per_s = 50e9;  // beyond 32 bit x 1 GHz
  EXPECT_THROW((void)synthesize(spec), std::invalid_argument);
  // Doubling the width resolves it.
  SynthesisOptions opts;
  opts.link_width_bits = 64;
  EXPECT_NO_THROW((void)synthesize(spec, opts));
}

TEST(Synthesis, StatsAreConsistent) {
  const SynthesisResult r = synthesize(d26_spec(6));
  EXPECT_EQ(r.stats.configs_explored,
            r.stats.configs_routed + r.stats.rejected_latency +
                r.stats.rejected_unroutable + r.stats.rejected_pruned);
  EXPECT_EQ(r.stats.configs_routed,
            r.stats.configs_saved + r.stats.rejected_duplicate +
                r.stats.rejected_deadlock);
  EXPECT_GE(r.stats.elapsed_seconds, 0.0);
  // With pruning off every candidate is fully evaluated.
  SynthesisOptions off;
  off.prune = false;
  const SynthesisResult full = synthesize(d26_spec(6), off);
  EXPECT_EQ(full.stats.rejected_pruned, 0);
  EXPECT_EQ(full.stats.configs_explored,
            full.stats.configs_routed + full.stats.rejected_latency +
                full.stats.rejected_unroutable);
}

TEST(Synthesis, MinimumSwitchCountIsExplored) {
  // Documented deviation from the paper's loop indexing: the minimum-switch
  // configuration must appear among the explored configs.
  const SynthesisResult r = synthesize(d26_spec(6));
  ASSERT_FALSE(r.points.empty());
  std::set<int> totals;
  for (const DesignPoint& p : r.points) {
    int total = 0;
    for (const int k : p.switches_per_island) total += k;
    totals.insert(total);
  }
  int min_total = 0;
  for (const IslandNocParams& p : r.island_params) {
    min_total += std::max(p.min_switches, p.core_count > 0 ? 1 : 0);
  }
  EXPECT_TRUE(totals.count(min_total) == 1)
      << "minimum-switch config (" << min_total << " switches) not explored";
}

class SynthesisSweepTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(SynthesisSweepTest, AllIslandCountsYieldValidSafePoints) {
  const auto [islands, comm] = GetParam();
  const soc::Benchmark d26 = soc::make_d26_media_soc();
  const soc::SocSpec spec =
      comm ? soc::with_communication_islands(d26.soc, islands, d26.use_cases)
           : soc::with_logical_islands(d26.soc, islands, d26.use_cases);
  const SynthesisResult r = synthesize(spec);
  ASSERT_FALSE(r.points.empty()) << "islands=" << islands << " comm=" << comm;
  const DesignPoint& best = r.best_power();
  EXPECT_TRUE(best.topology.validate(spec).empty());
  EXPECT_TRUE(verify_shutdown_safety(best.topology, spec).empty());
  EXPECT_GT(best.metrics.noc_dynamic_w, 0.0);
  EXPECT_GE(best.metrics.avg_latency_cycles, 3.0);
}

INSTANTIATE_TEST_SUITE_P(
    D26, SynthesisSweepTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 7, 26),
                       ::testing::Bool()));

}  // namespace
}  // namespace vinoc::core
