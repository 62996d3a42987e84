// Correctness checks of the benchmark, run outside every timed region:
// failure tally, the seven-invariant audit of every design point, and the
// golden QoR table.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

#include "bench.hpp"
#include "vinoc/campaign/spec_hash.hpp"
#include "vinoc/core/deadlock.hpp"
#include "vinoc/core/shutdown_safety.hpp"
#include "vinoc/sim/simulator.hpp"

namespace perfbench {

namespace campaign = vinoc::campaign;
namespace core = vinoc::core;

void CheckTally::note(const std::string& line) {
  if (notes.size() < 8) notes.push_back(line);
}

std::string strip_wall_ms(const std::string& line) {
  const std::string key = ",\"wall_ms\":";
  const std::size_t pos = line.find(key);
  if (pos == std::string::npos) return line;
  std::size_t end = pos + key.size();
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(0, pos) + line.substr(end);
}

std::string normalized_stream(const OpResult& op) {
  std::string out;
  for (const JobOutput& job : op.jobs) {
    out += strip_wall_ms(job.line);
    out += '\n';
  }
  return out;
}

void tally_failures(const Setup& setup, const OpResult& op, CheckTally& tally) {
  const auto jobs = static_cast<long long>(setup.jobs.size());
  tally.attempted += jobs;
  if (op.threw) {
    tally.failed += jobs;
    tally.note("operation threw: " + op.error);
    return;
  }
  for (const JobOutput& job : op.jobs) {
    if (job.record.status != "ok" || !job.record.feasible) {
      ++tally.failed;
      tally.note(job.record.job + ": status " + job.record.status +
                 (job.record.feasible ? "" : ", infeasible"));
    }
  }
}

namespace {

/// The invariants of tests/test_properties.cpp, through public functions
/// only. Each failed invariant of a point counts as one violation.
void audit_result(const campaign::CampaignJob& job,
                  const core::SynthesisResult& result, CheckTally& tally) {
  const vinoc::soc::SocSpec& spec = job.spec;
  const auto& tech = job.options.tech;
  for (const core::DesignPoint& point : result.points) {
    ++tally.audited_points;
    const core::NocTopology& topo = point.topology;
    const auto fail = [&](const char* invariant) {
      ++tally.audit_violations;
      tally.note(job.name + ": " + invariant);
    };
    // 1. structural consistency
    if (!topo.validate(spec).empty()) fail("structure");
    // 2. shutdown safety
    if (!core::verify_shutdown_safety(topo, spec).empty()) fail("shutdown safety");
    // 3. deadlock freedom
    if (!core::is_deadlock_free(topo)) fail("deadlock freedom");
    // 4. latency budgets
    bool within_budget = topo.routes.size() == spec.flows.size();
    for (std::size_t f = 0; within_budget && f < spec.flows.size(); ++f) {
      within_budget = core::route_latency_cycles(topo, topo.routes[f], tech) <=
                      spec.flows[f].max_latency_cycles + 1e-9;
    }
    if (!within_budget) fail("latency budget");
    // 5. bandwidth headroom
    if (vinoc::sim::find_saturation_scale(topo, spec, job.width) < 1.0 - 1e-9) {
      fail("bandwidth headroom");
    }
    // 6. port caps
    bool within_caps = true;
    for (std::size_t s = 0; s < topo.switches.size(); ++s) {
      const vinoc::soc::IslandId island = topo.switches[s].island;
      const int cap =
          island == core::kIntermediateIsland
              ? result.intermediate_params.max_sw_size
              : result.island_params.at(static_cast<std::size_t>(island)).max_sw_size;
      within_caps = within_caps && topo.switch_ports_in(static_cast<int>(s)) <= cap &&
                    topo.switch_ports_out(static_cast<int>(s)) <= cap;
    }
    if (!within_caps) fail("port caps");
    // 7. metric consistency
    const core::Metrics fresh = core::compute_metrics(topo, spec, tech, job.width);
    if (std::abs(fresh.noc_dynamic_w - point.metrics.noc_dynamic_w) >
            1e-9 * std::max(1.0, point.metrics.noc_dynamic_w) ||
        std::abs(fresh.avg_latency_cycles - point.metrics.avg_latency_cycles) > 1e-9) {
      fail("metric consistency");
    }
  }
}

std::string golden_row(const campaign::CampaignJob& job, const JobOutput& out) {
  const std::string fingerprint =
      out.result ? campaign::key_hex(campaign::result_fingerprint(*out.result)) : "-";
  char buf[512];
  std::snprintf(buf, sizeof buf, "%s\t%d\t%s\t%.17g\t%.17g\t%d\t%d",
                job.name.c_str(), out.record.feasible ? 1 : 0,
                fingerprint.c_str(), out.record.best_power_mw,
                out.record.min_latency_cycles, out.record.points,
                out.record.pareto_points);
  return buf;
}

constexpr const char* kGoldenHeader =
    "# job\tfeasible\tresult_fingerprint\tbest_power_mw\tmin_latency_cycles"
    "\tpoints\tpareto_points\n";

}  // namespace

void audit_outputs(const Setup& setup, const OpResult& op, CheckTally& tally) {
  if (op.threw) return;
  for (std::size_t i = 0; i < setup.jobs.size(); ++i) {
    if (op.jobs[i].result) audit_result(setup.jobs[i], *op.jobs[i].result, tally);
  }
}

std::string golden_path(const Config& config) {
  const bool campaign = config.kind == Kind::kCampaign || config.kind == Kind::kSharded;
  return config.golden_dir + "/" + (campaign ? "campaign-mix" : config.workload) +
         ".tsv";
}

bool compare_golden(const Config& config, const Setup& setup, const OpResult& op,
                    CheckTally& tally) {
  // The synthetic families of the campaign matrix follow the seed; the
  // synth and sweep inputs do not.
  const bool seeded = config.kind == Kind::kCampaign || config.kind == Kind::kSharded;
  if (seeded && config.seed != kGoldenSeed) return false;
  std::map<std::string, std::string> golden;
  std::ifstream in(golden_path(config));
  if (!in) {
    ++tally.qor_mismatches;
    tally.note("missing golden table " + golden_path(config));
    return true;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    golden[line.substr(0, line.find('\t'))] = line;
  }
  if (op.threw) {
    tally.qor_mismatches += static_cast<long long>(setup.jobs.size());
    return true;
  }
  for (std::size_t i = 0; i < setup.jobs.size(); ++i) {
    const std::string row = golden_row(setup.jobs[i], op.jobs[i]);
    const auto it = golden.find(setup.jobs[i].name);
    if (it == golden.end() || it->second != row) {
      ++tally.qor_mismatches;
      tally.note("golden mismatch: " + row);
    }
  }
  if (golden.size() != setup.jobs.size()) {
    ++tally.qor_mismatches;
    tally.note("golden table has " + std::to_string(golden.size()) + " rows for " +
               std::to_string(setup.jobs.size()) + " jobs");
  }
  return true;
}

void write_golden(const Config& config, const Setup& setup, const OpResult& op) {
  std::ofstream out(golden_path(config));
  out << kGoldenHeader;
  for (std::size_t i = 0; i < setup.jobs.size(); ++i) {
    out << golden_row(setup.jobs[i], op.jobs[i]) << '\n';
  }
}

}  // namespace perfbench
