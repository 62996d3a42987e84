// Golden QoR table: synthesize() and explore_link_widths() pinned to a
// committed reference (tests/golden/synthesis.tsv) instead of to each other.
// Rows cover d16/d24/d26/d36 x {logical, comm} islanding x islands
// {1,2,3,4,6} x widths {32,64}, widths 16 and 128 at islands {2,4}, plus
// d64/logical-{2,3,6}/w32. Each row holds the result_fingerprint (stats,
// points, routes, Pareto front), best power, min latency, point count and
// Pareto size; an infeasible width has feasible 0.
//
// An intentional QoR change regenerates the table in the same change:
//   VINOC_GOLDEN_WRITE=tests/golden/synthesis.tsv ./build/test_golden
// writes the threads == 1 synthesize() rows to that path (and fails, so a
// regeneration is never mistaken for a passing run).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "vinoc/campaign/spec_hash.hpp"
#include "vinoc/core/explore.hpp"
#include "vinoc/core/synthesis.hpp"
#include "vinoc/soc/benchmarks.hpp"
#include "vinoc/soc/islanding.hpp"

namespace vinoc::core {
namespace {

constexpr const char* kHeader =
    "# row\tfeasible\tresult_fingerprint\tbest_power_mw\tmin_latency_cycles"
    "\tpoints\tpareto_points";

/// One islanded spec of the grid and the widths it is pinned at.
struct Case {
  std::string name;  ///< "<bench>/<strategy>/i<islands>"
  soc::SocSpec spec;
  std::vector<int> widths;
};

std::vector<Case> golden_cases() {
  const std::vector<std::pair<std::string, soc::Benchmark>> benches = {
      {"d16", soc::make_d16_auto_soc()},
      {"d24", soc::make_d24_imaging_soc()},
      {"d26", soc::make_d26_media_soc()},
      {"d36", soc::make_d36_settop_soc()},
  };
  std::vector<Case> cases;
  for (const auto& [name, bm] : benches) {
    for (const std::string strategy : {"logical", "comm"}) {
      for (const int islands : {1, 2, 3, 4, 6}) {
        cases.push_back(
            {name + "/" + strategy + "/i" + std::to_string(islands),
             strategy == "logical"
                 ? soc::with_logical_islands(bm.soc, islands, bm.use_cases)
                 : soc::with_communication_islands(bm.soc, islands,
                                                   bm.use_cases),
             islands == 2 || islands == 4 ? std::vector<int>{16, 32, 64, 128}
                                          : std::vector<int>{32, 64}});
      }
    }
  }
  const soc::Benchmark d64 = soc::make_d64_tile_soc();
  for (const int islands : {2, 3, 6}) {
    cases.push_back({"d64/logical/i" + std::to_string(islands),
                     soc::with_logical_islands(d64.soc, islands, d64.use_cases),
                     {32}});
  }
  return cases;
}

/// Table row of one (case, width); `result` is null for an infeasible width.
std::string golden_row(const std::string& name, const SynthesisResult* result) {
  char buf[512];
  if (result == nullptr) {
    std::snprintf(buf, sizeof buf, "%s\t0\t-\t0\t0\t0\t0", name.c_str());
    return buf;
  }
  double best_power_mw = 0.0;
  double min_latency = 0.0;
  if (!result->points.empty()) {
    best_power_mw = result->best_power().metrics.noc_dynamic_w * 1e3;
    min_latency = result->best_latency().metrics.avg_latency_cycles;
  }
  std::snprintf(buf, sizeof buf, "%s\t1\t%s\t%.17g\t%.17g\t%zu\t%zu",
                name.c_str(),
                campaign::key_hex(campaign::result_fingerprint(*result)).c_str(),
                best_power_mw, min_latency, result->points.size(),
                result->pareto.size());
  return buf;
}

std::string row_name(const Case& c, int width) {
  return c.name + "/w" + std::to_string(width);
}

std::string golden_path() {
  return std::string(VINOC_SOURCE_DIR) + "/tests/golden/synthesis.tsv";
}

/// Row name -> full row of the committed table.
std::map<std::string, std::string> load_golden() {
  std::map<std::string, std::string> rows;
  std::ifstream in(golden_path());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    rows[line.substr(0, line.find('\t'))] = line;
  }
  return rows;
}

std::string synthesize_row(const Case& c, int width, int threads) {
  SynthesisOptions opt;
  opt.link_width_bits = width;
  opt.threads = threads;
  try {
    const SynthesisResult r = synthesize(c.spec, opt);
    return golden_row(row_name(c, width), &r);
  } catch (const InfeasibleWidthError&) {
    return golden_row(row_name(c, width), nullptr);
  }
}

TEST(Golden, TableCoversExactlyTheGrid) {
  const std::map<std::string, std::string> golden = load_golden();
  std::size_t expected = 0;
  for (const Case& c : golden_cases()) {
    for (const int w : c.widths) {
      ++expected;
      EXPECT_EQ(golden.count(row_name(c, w)), 1u) << row_name(c, w);
    }
  }
  EXPECT_EQ(golden.size(), expected) << golden_path();
}

TEST(Golden, SynthesizeMatchesTableAtThreads1And4) {
  const char* write_path = std::getenv("VINOC_GOLDEN_WRITE");
  if (write_path != nullptr) {
    std::ofstream out(write_path);
    out << kHeader << '\n';
    for (const Case& c : golden_cases()) {
      for (const int w : c.widths) out << synthesize_row(c, w, 1) << '\n';
    }
    FAIL() << "wrote " << write_path << "; unset VINOC_GOLDEN_WRITE to check";
  }
  const std::map<std::string, std::string> golden = load_golden();
  for (const Case& c : golden_cases()) {
    for (const int w : c.widths) {
      const auto it = golden.find(row_name(c, w));
      ASSERT_NE(it, golden.end()) << row_name(c, w);
      for (const int threads : {1, 4}) {
        EXPECT_EQ(synthesize_row(c, w, threads), it->second)
            << "threads " << threads;
      }
    }
  }
}

TEST(Golden, WidthSweepMatchesTable) {
  const std::map<std::string, std::string> golden = load_golden();
  for (const Case& c : golden_cases()) {
    if (c.widths.size() < 2) continue;  // the one-width d64 rows
    SynthesisOptions opt;
    opt.threads = 4;
    const WidthSweepResult sweep = explore_link_widths(c.spec, c.widths, opt);
    ASSERT_EQ(sweep.entries.size(), c.widths.size());
    for (const WidthSweepEntry& e : sweep.entries) {
      const std::string name = row_name(c, e.width_bits);
      const auto it = golden.find(name);
      ASSERT_NE(it, golden.end()) << name;
      EXPECT_EQ(golden_row(name, e.feasible ? &e.result : nullptr), it->second);
    }
  }
}

}  // namespace
}  // namespace vinoc::core
