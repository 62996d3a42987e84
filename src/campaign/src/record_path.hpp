// The record path shared by the in-process engine and the shard supervisor:
// job-ordered emission, the failure ledger, and the canonical
// resume_summary registry. Both runners produce their records and counters
// through these pieces, so a sharded run cannot drift from a single-process
// one in stream order, ledger shape or summary fields.
#pragma once

#include <cstddef>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "vinoc/campaign/engine.hpp"
#include "vinoc/obs/registry.hpp"

namespace vinoc::campaign {

/// Collects one record per job, arriving in any order, and flushes each
/// (stream line + on_record callback) as soon as every earlier job has been
/// flushed: streaming, but in job order. The first record delivered for a
/// job wins; later ones (a respawned worker's duplicates) are dropped.
/// Thread-safe.
class RecordEmitter {
 public:
  RecordEmitter(const CampaignOptions& options, std::size_t jobs);

  void emit(std::size_t index, JobRecord record);
  [[nodiscard]] bool has(std::size_t index) const;
  /// Every record, job order (call once all jobs have been emitted).
  [[nodiscard]] std::vector<JobRecord> take();

 private:
  const CampaignOptions& options_;
  mutable std::mutex mutex_;
  std::vector<bool> have_;
  std::vector<JobRecord> records_;
  std::size_t next_ = 0;
};

/// Appender for a failed*.jsonl quarantine ledger: one checksummed line per
/// job given up on, opened on first use. An empty path disables it. Ledger
/// I/O never fails a campaign. Thread-safe.
class FailureLedger {
 public:
  explicit FailureLedger(std::string path) : path_(std::move(path)) {}

  void append(const std::string& campaign, const CampaignJob& job,
              std::string_view status, std::string_view error, int attempts);

 private:
  std::mutex mutex_;
  std::string path_;
  std::ofstream out_;
};

/// The resume_summary registry, counters in canonical order (test_campaign
/// locks it in; new fields go after the existing ones). run, cache_hits,
/// infeasible, total, job_timeouts, quarantined_jobs and skipped_jobs are
/// derived from `records`; every other counter is read from `telemetry`.
/// The delta_reuse_rate gauge is set from the delta counters.
[[nodiscard]] obs::Registry campaign_summary(
    const std::vector<JobRecord>& records, const obs::Registry& telemetry,
    bool interrupted);

/// A resume_summary line parsed back (io::parse_jsonl_object) into a
/// registry whose counters carry the merge ops campaign_summary gives them,
/// ready for Registry::merge_from.
[[nodiscard]] obs::Registry summary_from_fields(
    const std::map<std::string, std::string>& fields);

}  // namespace vinoc::campaign
