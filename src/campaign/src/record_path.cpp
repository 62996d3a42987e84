#include "record_path.hpp"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>

#include "vinoc/campaign/spec_hash.hpp"
#include "vinoc/io/jsonl.hpp"

namespace vinoc::campaign {

RecordEmitter::RecordEmitter(const CampaignOptions& options,
                               std::size_t jobs)
    : options_(options), have_(jobs, false), records_(jobs) {}

void RecordEmitter::emit(std::size_t index, JobRecord record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (have_[index]) return;
  have_[index] = true;
  records_[index] = std::move(record);
  for (; next_ < have_.size() && have_[next_]; ++next_) {
    const JobRecord& rec = records_[next_];
    if (options_.stream != nullptr) {
      const std::string line =
          record_to_jsonl(rec, options_.include_timing) + "\n";
      std::fputs(line.c_str(), options_.stream);
      std::fflush(options_.stream);
    }
    if (options_.on_record) options_.on_record(rec);
  }
}

bool RecordEmitter::has(std::size_t index) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return have_[index];
}

std::vector<JobRecord> RecordEmitter::take() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return std::move(records_);
}

void FailureLedger::append(const std::string& campaign, const CampaignJob& job,
                           std::string_view status, std::string_view error,
                           int attempts) {
  if (path_.empty()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!out_.is_open()) out_.open(path_, std::ios::app);
  if (!out_) return;
  io::JsonlWriter w;
  w.field("campaign", campaign)
      .field("job", job.name)
      .field("key", key_hex(job.key))
      .field("status", status)
      .field("error", error)
      .field("attempts", attempts);
  out_ << io::add_line_checksum(w.line()) << '\n' << std::flush;
}

obs::Registry campaign_summary(const std::vector<CampaignJob>& jobs,
                               const std::vector<JobRecord>& records,
                               const obs::Registry& telemetry,
                               bool interrupted) {
  std::int64_t run = 0, hits = 0, infeasible = 0;
  std::int64_t timeouts = 0, quarantined = 0, skipped = 0;
  std::map<std::uint64_t, std::int64_t> computed_per_structure;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const JobRecord& rec = records[i];
    if (rec.status == "ok") {
      ++(rec.cache_hit ? hits : run);
      if (!rec.cache_hit) ++computed_per_structure[jobs[i].structure_key];
      if (!rec.feasible) ++infeasible;
    } else if (rec.status == "skipped") {
      ++skipped;
    } else {
      ++quarantined;
      if (rec.status == "timeout") ++timeouts;
    }
  }
  // A width group shared its structure when two or more of its jobs were
  // computed (the engine synthesizes them in one synthesize_width_set).
  std::int64_t shared_groups = 0, shared_jobs = 0;
  for (const auto& [structure, computed] : computed_per_structure) {
    if (computed < 2) continue;
    ++shared_groups;
    shared_jobs += computed;
  }
  const auto t = [&telemetry](const char* name) {
    return telemetry.value(name);
  };
  obs::Registry m;
  m.add("run", run);
  m.add("cache_hits", hits);
  m.add("infeasible", infeasible);
  m.add("total", static_cast<std::int64_t>(records.size()));
  m.add("structure_groups", shared_groups);
  m.add("structure_shared_jobs", shared_jobs);
  // A memory bound, not a throughput counter: max-merged.
  m.record_max("peak_buffered_outcomes", t("peak_buffered_outcomes"));
  m.add("delta_candidates", t("delta_candidates"));
  m.add("delta_flows_reused", t("delta_flows_reused"));
  m.add("delta_flows_certified", t("delta_flows_certified"));
  m.add("delta_flows_rerouted", t("delta_flows_rerouted"));
  m.add("delta_cert_rejects", t("delta_cert_rejects"));
  m.add("retries", t("retries"));
  m.add("job_timeouts", timeouts);
  m.add("quarantined_jobs", quarantined);
  m.add("skipped_jobs", skipped);
  m.add("recovered_records", t("recovered_records"));
  m.add("evicted_records", t("evicted_records"));
  m.add("store_write_errors", t("store_write_errors"));
  m.add("interrupted", interrupted ? 1 : 0);
  const std::int64_t reused =
      t("delta_flows_reused") + t("delta_flows_certified");
  const std::int64_t flows = reused + t("delta_flows_rerouted");
  m.set_gauge("delta_reuse_rate",
              flows > 0 ? static_cast<double>(reused) / static_cast<double>(flows)
                        : 0.0);
  return m;
}

obs::Registry summary_from_fields(
    const std::map<std::string, std::string>& fields) {
  const obs::Registry shape = campaign_summary({}, {}, obs::Registry{}, false);
  obs::Registry out;
  for (const obs::Registry::Entry& e : shape.entries()) {
    const auto it = fields.find(e.name);
    if (it != fields.end()) {
      out.add(e.name, std::strtoll(it->second.c_str(), nullptr, 10), e.op);
    }
  }
  return out;
}

}  // namespace vinoc::campaign
