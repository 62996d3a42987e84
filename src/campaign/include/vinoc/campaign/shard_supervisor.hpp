// Multi-process campaign supervision: a crash-isolation mode, not a speedup.
//
// `vinoc campaign --shards N` turns the CLI into a SUPERVISOR: the expanded
// job matrix is partitioned by content hash into N shards (shard.hpp), each
// owned by a `vinoc campaign-worker` child process that appends to its own
// store-<k>.jsonl and streams checksummed status lines (io/shard_wire.hpp)
// up a pipe — start heartbeats, done records, a final metrics summary. The
// supervisor multiplexes the pipes, re-emits records in GLOBAL job order
// through the engine's own emitter (the same stream a single-process run
// produces, modulo wall_ms), and watches for trouble:
//
//  * CRASH (SIGKILL, segfault, undocumented exit code): the in-flight jobs
//    — attributed through the worker's last start heartbeats — get a
//    bounded number of crash retries; past the budget they are quarantined
//    to failed.jsonl with status "failed" (a job that kills its worker
//    twice is treated as the cause, not a victim). The worker is respawned
//    over the same manifest with fault injection disarmed, up to
//    kMaxRespawns (2) times per shard; its shard store serves everything
//    already computed, so a respawn costs one job, not a shard.
//  * STALL (no pipe traffic past the watchdog budget, derived from
//    --job-timeout): the worker is SIGKILLed and handled as a crash. Only
//    active with a job timeout configured — without one, "slow" and
//    "stalled" cannot be told apart.
//  * FALLBACK: a shard whose respawns are spent, or whose worker cannot
//    start at all (exec failure, usage/spec exit codes), leaves its
//    remaining jobs to the ordinary single-process engine, run in-process
//    after the last worker exits — a sharded campaign never ends with less
//    than one record per job.
//  * CANCEL (SIGINT/SIGTERM): relayed as SIGTERM so workers checkpoint and
//    flush like any CLI run; stragglers are SIGKILLed after a grace period
//    and unfinished jobs are emitted with status "skipped".
//
// After the last worker exits, the shard stores are merged back into the
// canonical store.jsonl (shard_merge.hpp) so a follow-up --resume or
// --shards M run starts from one authoritative store.
#pragma once

#include <string>
#include <vector>

#include "vinoc/campaign/campaign_spec.hpp"
#include "vinoc/campaign/engine.hpp"
#include "vinoc/campaign/shard_merge.hpp"

namespace vinoc::campaign {

struct ShardCampaignOptions {
  /// Engine options shared with workers. Used fields: cache_dir (REQUIRED —
  /// the manifests and shard stores live there), resume, include_timing,
  /// stream, on_record, job_timeout_s, max_retries, retry_backoff_ms,
  /// deadline_s, cancel, failed_file (the supervisor's own ledger), threads
  /// (the in-process fallback); job_keys/on_job_start are supervisor-owned
  /// and ignored.
  CampaignOptions base;
  /// Worker process count (>= 1). Shards the hash leaves empty spawn no
  /// process.
  int shards = 2;
  /// Path to the vinoc binary to exec as `campaign-worker` (normally
  /// /proc/self/exe; tests point it at the built CLI).
  std::string worker_exe;
  /// Campaign spec file the workers re-parse (the supervisor's own parsed
  /// spec and this file must agree — the CLI passes its input path through).
  std::string spec_path;
  /// --threads forwarded to each worker; 0 = each worker sizes itself.
  int worker_threads = 0;
  /// Crash retries per JOB: how many times a job may be in flight during a
  /// worker crash before it is quarantined as the likely cause.
  int crash_retries = 1;
};

struct ShardCampaignResult {
  /// Same shape as a single-process run: job-ordered records, expand stats,
  /// canonical-order metrics (supervisor counters appended after the
  /// engine's), wall_s.
  CampaignResult campaign;
  /// Outcome of the final shard-store merge.
  MergeStats merge;
};

/// Runs `spec` across worker processes (see file header). Throws
/// std::invalid_argument for an unusable configuration (empty cache_dir /
/// worker_exe / spec_path); everything else degrades rather than throws.
[[nodiscard]] ShardCampaignResult run_sharded_campaign(
    const CampaignSpec& spec, const ShardCampaignOptions& options);

}  // namespace vinoc::campaign
