// Shard planning for multi-process campaigns.
//
// The supervisor partitions the expanded job matrix into N shards, one
// worker process each. The unit of assignment is the STRUCTURE GROUP (all
// jobs sharing a width-excluded content hash — spec_hash.hpp), never the
// single job: splitting a width-sharing group across processes would
// recompute its shared structures once per shard and silently lose the
// width-set sharing the engine is built around.
//
// Assignment is BY CONTENT HASH: a group lands on shard
// mix64(structure_key) % N. That makes the plan a pure function of the job
// matrix — independent of enumeration order, stable when unrelated jobs are
// added or removed, and reproducible across supervisor restarts (a respawned
// worker re-reads the same manifest; a re-planned campaign puts every
// surviving group right back where it was). The price is best-effort balance
// instead of perfect balance; for job matrices worth sharding (tens to
// thousands of groups) the hash spreads well.
//
// Each shard's assignment is persisted as a manifest file
// (<cache>/shards/<k>.manifest, io::write_shard_manifest) that the worker
// process reads back — the pipe carries status, never work assignments, so
// a torn pipe cannot corrupt what a worker believes it owns.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "vinoc/campaign/campaign_spec.hpp"

namespace vinoc::campaign {

/// Deterministic job -> shard assignment (see file header).
struct ShardPlan {
  /// assignment[k] = content keys of the jobs shard k owns, in campaign job
  /// order. Shards may be empty (the supervisor spawns no worker for them).
  std::vector<std::vector<std::uint64_t>> assignment;

  [[nodiscard]] int shards() const { return static_cast<int>(assignment.size()); }
  /// Shards with at least one job.
  [[nodiscard]] int populated() const;
};

/// Plans `shards` shards over the expanded matrix (routing on each job's
/// stored CampaignJob::structure_key). `shards` < 1 is treated as 1; the
/// plan never splits a structure group.
[[nodiscard]] ShardPlan plan_shards(const std::vector<CampaignJob>& jobs,
                                    int shards);

// --- Layout of a sharded campaign inside the cache dir ----------------------
//
//   <cache>/shards/<k>.manifest   shard k's assigned keys (supervisor-written)
//   <cache>/store-<k>.jsonl       shard k's private result store
//   <cache>/failed-<k>.jsonl      shard k's private quarantine ledger
//
// Worker stores/ledgers reuse the v2 checksum + recovery machinery verbatim
// (ResultCache with a per-shard store file name); `vinoc store merge` unions
// them back into the canonical store.jsonl.

[[nodiscard]] std::string shards_dir(const std::string& cache_dir);
[[nodiscard]] std::string shard_manifest_path(const std::string& cache_dir,
                                              int shard);
[[nodiscard]] std::string shard_store_file(int shard);   ///< "store-<k>.jsonl"
[[nodiscard]] std::string shard_failed_file(int shard);  ///< "failed-<k>.jsonl"

}  // namespace vinoc::campaign
