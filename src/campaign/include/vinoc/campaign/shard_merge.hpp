// Merging shard stores back into the canonical store — and verifying the
// whole store family.
//
// A sharded campaign leaves one store-<k>.jsonl per worker beside the
// canonical store.jsonl. merge_shard_stores() unions them: every line is
// checksum-verified (torn or corrupt lines go to store.quarantine.jsonl in
// the standard envelope), duplicate keys are resolved by ASSERTING
// bit-identity — two processes that computed the same content key must have
// produced the same record (synthesis is deterministic; wall_ms, the one
// measured field, is excluded from the comparison). An identical duplicate
// collapses silently; a conflicting one keeps the FIRST record and
// quarantines the loser with reason "duplicate_conflict" — a conflict means
// determinism was violated somewhere and must stay visible, not be papered
// over.
//
// The merged store is republished atomically (io::write_file, same as
// ResultCache recovery) in job order when the caller supplies one —
// byte-identical to what a --shards 1 run would have left, modulo wall_ms
// and keys the order map does not know (appended last, key-sorted). Shard
// stores are deleted only AFTER the rename lands, so a crash mid-merge
// loses nothing: re-running the merge is idempotent.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "vinoc/campaign/result_cache.hpp"

namespace vinoc::campaign {

struct MergeStats {
  bool ok = false;          ///< merged store was republished (or nothing to do)
  std::string error;        ///< why not, when !ok
  std::size_t shard_files = 0;     ///< store-<k>.jsonl files consumed
  std::size_t merged_records = 0;  ///< records in the republished store
  std::size_t duplicates = 0;      ///< identical duplicate keys collapsed
  std::size_t conflicts = 0;  ///< duplicate keys with DIFFERENT payloads —
                              ///< first kept, rest quarantined
  std::size_t quarantined = 0;  ///< torn/corrupt lines quarantined
};

/// Unions store.jsonl + every store-<k>.jsonl under `cache_dir` into a
/// canonical store.jsonl (see file header). `job_order`, when non-null,
/// orders the output records (keys absent from it come last, key-sorted);
/// null keeps first-seen order. With no shard stores present and a clean
/// canonical store the call is a no-op (ok, rewritten nothing).
[[nodiscard]] MergeStats merge_shard_stores(
    const std::string& cache_dir,
    const std::vector<std::uint64_t>* job_order = nullptr);

struct VerifyStats {
  std::size_t files = 0;              ///< store + ledger files inspected
  std::size_t records = 0;            ///< valid records across store files
  std::size_t ledger_lines = 0;       ///< valid ledger lines
  std::size_t checksum_failures = 0;  ///< lines failing _crc verification
  std::size_t parse_failures = 0;     ///< checksummed lines that do not parse
  std::size_t duplicate_keys = 0;     ///< keys seen in more than one store line
  std::size_t legacy_lines = 0;       ///< v1 lines without a _crc field

  /// Healthy: nothing corrupt, nothing duplicated (legacy v1 lines are
  /// tolerated — the next recovery pass upgrades them).
  [[nodiscard]] bool clean() const {
    return checksum_failures == 0 && parse_failures == 0 &&
           duplicate_keys == 0;
  }
  /// One-line human summary ("store verify: ...").
  [[nodiscard]] std::string summary() const;
};

/// Validates checksums and key uniqueness across the whole store family
/// under `cache_dir`: store.jsonl, every store-<k>.jsonl, failed*.jsonl and
/// store.quarantine.jsonl. Ledger lines are checksum-verified only (their
/// payloads are failure envelopes, not records). Read-only.
[[nodiscard]] VerifyStats verify_stores(const std::string& cache_dir);

}  // namespace vinoc::campaign
