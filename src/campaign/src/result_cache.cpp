#include "vinoc/campaign/result_cache.hpp"

#include <filesystem>
#include <fstream>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "vinoc/faultinject/faultinject.hpp"
#include "vinoc/io/exports.hpp"
#include "vinoc/io/jsonl.hpp"

namespace vinoc::campaign {

namespace {

/// Append failures tolerated before the cache stops touching the disk store
/// for the rest of its lifetime (memory tiers keep serving). Three strikes:
/// one flaky write is worth retrying on the next record, a dead disk is not
/// worth stalling every job on.
constexpr std::uint64_t kDegradeAfterErrors = 3;

}  // namespace

StoreLine classify_store_line(std::string_view line, std::string& payload,
                              JobRecord& rec) {
  const io::ChecksumStatus cs = io::verify_line_checksum(line, &payload);
  if (cs != io::ChecksumStatus::kOk && cs != io::ChecksumStatus::kAbsent) {
    return StoreLine::kBadChecksum;
  }
  if (!record_from_jsonl(payload, rec)) return StoreLine::kBadRecord;
  return cs == io::ChecksumStatus::kOk ? StoreLine::kRecord
                                       : StoreLine::kLegacyRecord;
}

std::vector<JobRecord> read_store_records(const std::string& path) {
  std::vector<JobRecord> records;
  std::string text;
  if (!io::read_file(path, text)) return records;
  std::string payload;
  JobRecord rec;
  for (std::string_view rest = text; !rest.empty();) {
    const std::string_view line = io::next_line(rest);
    if (line.empty()) continue;
    const StoreLine kind = classify_store_line(line, payload, rec);
    if (kind == StoreLine::kRecord || kind == StoreLine::kLegacyRecord) {
      records.push_back(std::move(rec));
    }
  }
  return records;
}

ResultCache::ResultCache(std::string dir, std::string store_file)
    : dir_(std::move(dir)), store_file_(std::move(store_file)) {
  if (!dir_.empty()) std::filesystem::create_directories(dir_);
}

std::shared_ptr<const core::SynthesisResult> ResultCache::find_result(
    std::uint64_t key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = results_.find(key);
  return it == results_.end() ? nullptr : it->second;
}

void ResultCache::put_result(
    std::uint64_t key, std::shared_ptr<const core::SynthesisResult> result) {
  const std::lock_guard<std::mutex> lock(mutex_);
  results_.emplace(key, std::move(result));  // first writer wins
}

std::optional<JobRecord> ResultCache::find_record(std::uint64_t key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = records_.find(key);
  if (it == records_.end()) return std::nullopt;
  return it->second;
}

std::string ResultCache::record_line(const JobRecord& record) const {
  return io::add_line_checksum(record_to_jsonl(record));
}

void ResultCache::put_record(const JobRecord& record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!records_.emplace(record.key, record).second) return;  // already stored
  if (dir_.empty() || degraded_) return;
  const std::string line = record_line(record);
  bool ok = false;
  try {
    faultinject::maybe_fail(faultinject::Site::kStoreWrite, "store append");
    std::ofstream out(store_path(), std::ios::app);
    if (out) {
      out << line << '\n';
      out.flush();
      ok = static_cast<bool>(out);
    }
  } catch (const std::exception&) {
    ok = false;
  }
  if (!ok) {
    // Graceful degradation, not an abort: the record stays served from
    // memory, the campaign keeps running, and the error is surfaced through
    // the store_write_errors counter (the CLI degrades the exit code).
    ++store_write_errors_;
    if (store_write_errors_ >= kDegradeAfterErrors) degraded_ = true;
    return;
  }
  store_order_.push_back(record.key);
  store_bytes_ += line.size() + 1;
  if (store_max_bytes_ > 0 && store_bytes_ > store_max_bytes_) {
    evict_to_cap_locked();
  }
}

void ResultCache::rewrite_store_locked(const std::vector<std::uint64_t>& keys) {
  std::string text;
  for (const std::uint64_t key : keys) {
    text += record_line(records_.at(key));
    text += '\n';
  }
  try {
    io::write_file(store_path(), text);
  } catch (const std::exception&) {
    ++store_write_errors_;
    if (store_write_errors_ >= kDegradeAfterErrors) degraded_ = true;
    return;
  }
  store_order_ = keys;
  store_bytes_ = text.size();
}

void ResultCache::evict_to_cap_locked() {
  // Keep the longest NEWEST-record suffix that fits the cap (always at
  // least the newest record). Evicted records stay in the memory tier; only
  // their on-disk lines go, so a fresh process recomputes them on --resume.
  std::uint64_t bytes = 0;
  std::size_t keep_from = store_order_.size();
  while (keep_from > 0) {
    const std::uint64_t line_bytes =
        record_line(records_.at(store_order_[keep_from - 1])).size() + 1;
    if (bytes + line_bytes > store_max_bytes_ &&
        keep_from != store_order_.size()) {
      break;
    }
    bytes += line_bytes;
    --keep_from;
  }
  if (keep_from == 0) return;  // everything fits
  evicted_records_ += keep_from;
  const std::vector<std::uint64_t> kept(store_order_.begin() +
                                            static_cast<std::ptrdiff_t>(keep_from),
                                        store_order_.end());
  rewrite_store_locked(kept);
}

StoreRecoveryStats ResultCache::load_store() {
  const std::lock_guard<std::mutex> lock(mutex_);
  StoreRecoveryStats stats;
  store_order_.clear();
  store_bytes_ = 0;
  if (dir_.empty()) return stats;
  std::string text;
  if (!io::read_file(store_path(), text)) return stats;
  // A store that does not end in '\n' has a crash-torn tail: the final
  // append was cut mid-line. The torn line itself almost always fails its
  // checksum below; republishing the store is what matters either way,
  // because appending after a newline-less tail would CONCATENATE the next
  // record onto the torn bytes and corrupt both.
  bool needs_rewrite = !text.empty() && text.back() != '\n';
  std::vector<std::string_view> quarantined;
  std::unordered_set<std::uint64_t> on_disk;
  std::string payload;
  JobRecord rec;
  for (std::string_view rest = text; !rest.empty();) {
    const std::string_view line = io::next_line(rest);
    if (line.empty()) {
      needs_rewrite = true;  // stray blank line: drop on republish
      continue;
    }
    const StoreLine kind = classify_store_line(line, payload, rec);
    if (kind == StoreLine::kBadChecksum || kind == StoreLine::kBadRecord) {
      quarantined.push_back(line);
      ++stats.recovered;
      needs_rewrite = true;
      continue;
    }
    if (kind == StoreLine::kLegacyRecord) needs_rewrite = true;  // v1 upgrade
    if (!on_disk.insert(rec.key).second) {
      needs_rewrite = true;  // duplicate line: drop on republish
      continue;
    }
    const std::uint64_t key = rec.key;
    if (records_.emplace(key, std::move(rec)).second) ++stats.loaded;
    store_order_.push_back(key);
    // The line's own on-disk bytes: a store that needs no rewrite holds
    // exactly these, and a rewrite recounts what it writes.
    store_bytes_ += line.size() + 1;
  }
  recovered_records_ += stats.recovered;
  if (!quarantined.empty()) {
    std::ofstream out(quarantine_path(), std::ios::app);
    if (out) {
      // Each rejected line rides inside a checksummed envelope so the
      // quarantine ledger itself stays verifiable (vinoc store verify).
      for (const std::string_view line : quarantined) {
        out << io::quarantine_envelope(line, "store recovery") << '\n';
      }
    }
  }
  if (needs_rewrite) {
    rewrite_store_locked(store_order_);
    stats.rewritten = true;
  }
  if (store_max_bytes_ > 0 && store_bytes_ > store_max_bytes_) {
    const std::uint64_t evicted_before = evicted_records_;
    evict_to_cap_locked();  // republishes the store itself
    stats.evicted = static_cast<std::size_t>(evicted_records_ - evicted_before);
    stats.rewritten = stats.rewritten || stats.evicted > 0;
  }
  return stats;
}

std::size_t ResultCache::load_side_store(const std::string& path) {
  std::vector<JobRecord> side = read_store_records(path);
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t loaded = 0;
  for (JobRecord& rec : side) {
    // Memory tier only: deliberately NOT added to store_order_, so these
    // records are never rewritten or evicted into this cache's own store.
    const std::uint64_t key = rec.key;
    if (records_.emplace(key, std::move(rec)).second) ++loaded;
  }
  return loaded;
}

void ResultCache::set_store_max_bytes(std::uint64_t max_bytes) {
  const std::lock_guard<std::mutex> lock(mutex_);
  store_max_bytes_ = max_bytes;
}

std::string ResultCache::store_path() const {
  if (dir_.empty()) return {};
  return (std::filesystem::path(dir_) / store_file_).string();
}

std::string ResultCache::quarantine_path() const {
  if (dir_.empty()) return {};
  return (std::filesystem::path(dir_) / "store.quarantine.jsonl").string();
}

std::size_t ResultCache::result_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return results_.size();
}

std::size_t ResultCache::record_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

std::uint64_t ResultCache::recovered_records() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return recovered_records_;
}

std::uint64_t ResultCache::evicted_records() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return evicted_records_;
}

std::uint64_t ResultCache::store_write_errors() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return store_write_errors_;
}

bool ResultCache::store_degraded() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return degraded_;
}

}  // namespace vinoc::campaign
