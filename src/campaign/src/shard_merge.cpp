#include "vinoc/campaign/shard_merge.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "vinoc/campaign/result_cache.hpp"
#include "vinoc/io/exports.hpp"
#include "vinoc/io/jsonl.hpp"

namespace vinoc::campaign {

namespace {

namespace fs = std::filesystem;

/// The store files of one cache dir: canonical store.jsonl first (its
/// records predate any shard's), then store-<k>.jsonl sorted by path so the
/// input order — and with it every first-wins decision — is deterministic.
std::vector<std::string> store_family(const std::string& cache_dir) {
  std::vector<std::string> files;
  const fs::path canonical = fs::path(cache_dir) / "store.jsonl";
  if (fs::exists(canonical)) files.push_back(canonical.string());
  std::vector<std::string> shards;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(cache_dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("store-", 0) == 0 &&
        name.size() > 12 &&  // "store-" + k + ".jsonl"
        name.compare(name.size() - 6, 6, ".jsonl") == 0) {
      shards.push_back(entry.path().string());
    }
  }
  std::sort(shards.begin(), shards.end());
  files.insert(files.end(), shards.begin(), shards.end());
  return files;
}

std::vector<std::string> ledger_family(const std::string& cache_dir) {
  std::vector<std::string> files;
  std::vector<std::string> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(cache_dir, ec)) {
    const std::string name = entry.path().filename().string();
    const bool failed_ledger =
        name.rfind("failed", 0) == 0 &&
        name.compare(name.size() - 6, 6, ".jsonl") == 0;
    if (failed_ledger || name == "store.quarantine.jsonl") {
      found.push_back(entry.path().string());
    }
  }
  std::sort(found.begin(), found.end());
  return found;
}

}  // namespace

MergeStats merge_shard_stores(const std::string& cache_dir,
                              const std::vector<std::uint64_t>* job_order) {
  MergeStats stats;
  if (cache_dir.empty() || !fs::exists(cache_dir)) {
    stats.error = "cache dir does not exist";
    return stats;
  }
  const std::vector<std::string> files = store_family(cache_dir);
  const bool has_canonical =
      !files.empty() && fs::path(files.front()).filename() == "store.jsonl";
  stats.shard_files = files.size() - (has_canonical ? 1 : 0);
  if (stats.shard_files == 0) {
    // Nothing to union — leave the canonical store exactly as is (its own
    // recovery pass runs on next open).
    stats.ok = true;
    return stats;
  }

  std::vector<std::string> quarantined_lines;
  // First-seen record per key, plus its timing-stripped identity for the
  // bit-identity assertion on duplicates.
  std::vector<std::uint64_t> first_seen_order;
  std::unordered_map<std::uint64_t, JobRecord> records;
  std::unordered_map<std::uint64_t, std::string> identity;
  std::string text;
  std::string payload;
  JobRecord rec;
  for (const std::string& file : files) {
    if (!io::read_file(file, text)) continue;
    for (std::string_view rest = text; !rest.empty();) {
      const std::string_view line = io::next_line(rest);
      if (line.empty()) continue;
      const StoreLine kind = classify_store_line(line, payload, rec);
      if (kind == StoreLine::kBadChecksum || kind == StoreLine::kBadRecord) {
        quarantined_lines.push_back(
            io::quarantine_envelope(line, "merge: corrupt line"));
        ++stats.quarantined;
        continue;
      }
      // wall_ms is the one measured field — two workers computing the same
      // key legitimately differ there and nowhere else.
      const std::string id = record_to_jsonl(rec, /*include_timing=*/false);
      const auto it = identity.find(rec.key);
      if (it == identity.end()) {
        identity.emplace(rec.key, id);
        first_seen_order.push_back(rec.key);
        records.emplace(rec.key, std::move(rec));
        continue;
      }
      if (it->second == id) {
        ++stats.duplicates;
      } else {
        ++stats.conflicts;
        quarantined_lines.push_back(
            io::quarantine_envelope(line, "merge: duplicate_conflict"));
      }
    }
  }

  // Output order: the supplied campaign job order, then unknown keys
  // (records from other campaigns sharing the store) key-sorted — total
  // order is a pure function of the inputs either way.
  std::vector<std::uint64_t> ordered;
  ordered.reserve(records.size());
  if (job_order != nullptr) {
    std::unordered_set<std::uint64_t> placed;
    for (const std::uint64_t key : *job_order) {
      if (records.count(key) != 0 && placed.insert(key).second) {
        ordered.push_back(key);
      }
    }
    std::vector<std::uint64_t> rest;
    for (const std::uint64_t key : first_seen_order) {
      if (placed.count(key) == 0) rest.push_back(key);
    }
    std::sort(rest.begin(), rest.end());
    ordered.insert(ordered.end(), rest.begin(), rest.end());
  } else {
    ordered = first_seen_order;
  }

  text.clear();
  for (const std::uint64_t key : ordered) {
    text += io::add_line_checksum(record_to_jsonl(records.at(key)));
    text += '\n';
  }
  try {
    io::write_file((fs::path(cache_dir) / "store.jsonl").string(), text);
  } catch (const std::exception& e) {
    stats.error = e.what();
    return stats;
  }
  if (!quarantined_lines.empty()) {
    std::ofstream out((fs::path(cache_dir) / "store.quarantine.jsonl").string(),
                      std::ios::app);
    if (out) {
      for (const std::string& line : quarantined_lines) out << line << '\n';
    }
  }
  // The merged store is durable — only now do the shard stores go away.
  // A crash before this point re-merges idempotently (identical duplicates
  // collapse); a crash mid-removal leaves some shards to collapse next time.
  std::error_code ec;
  for (const std::string& file : files) {
    if (fs::path(file).filename() != "store.jsonl") fs::remove(file, ec);
  }
  stats.merged_records = ordered.size();
  stats.ok = true;
  return stats;
}

std::string VerifyStats::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "store verify: %zu files, %zu records, %zu ledger lines — "
                "%zu checksum failures, %zu parse failures, %zu duplicate "
                "keys, %zu legacy lines — %s",
                files, records, ledger_lines, checksum_failures, parse_failures,
                duplicate_keys, legacy_lines, clean() ? "clean" : "ISSUES");
  return buf;
}

VerifyStats verify_stores(const std::string& cache_dir) {
  VerifyStats stats;
  if (cache_dir.empty() || !fs::exists(cache_dir)) return stats;
  std::unordered_set<std::uint64_t> seen;
  std::string text;
  std::string payload;
  JobRecord rec;
  for (const std::string& file : store_family(cache_dir)) {
    ++stats.files;
    if (!io::read_file(file, text)) continue;
    for (std::string_view rest = text; !rest.empty();) {
      const std::string_view line = io::next_line(rest);
      if (line.empty()) continue;
      switch (classify_store_line(line, payload, rec)) {
        case StoreLine::kBadChecksum: ++stats.checksum_failures; continue;
        case StoreLine::kBadRecord: ++stats.parse_failures; continue;
        case StoreLine::kLegacyRecord: ++stats.legacy_lines; break;
        case StoreLine::kRecord: break;
      }
      ++stats.records;
      if (!seen.insert(rec.key).second) ++stats.duplicate_keys;
    }
  }
  for (const std::string& file : ledger_family(cache_dir)) {
    ++stats.files;
    if (!io::read_file(file, text)) continue;
    for (std::string_view rest = text; !rest.empty();) {
      const std::string_view line = io::next_line(rest);
      if (line.empty()) continue;
      const io::ChecksumStatus cs = io::verify_line_checksum(line, &payload);
      if (cs != io::ChecksumStatus::kOk) {
        // Side ledgers are always written checksummed (satellite of store
        // v2): anything else is damage, including checksum-less lines.
        ++stats.checksum_failures;
        continue;
      }
      std::map<std::string, std::string> obj;
      if (!io::parse_jsonl_object(payload, obj)) {
        ++stats.parse_failures;
        continue;
      }
      ++stats.ledger_lines;
    }
  }
  return stats;
}

}  // namespace vinoc::campaign
