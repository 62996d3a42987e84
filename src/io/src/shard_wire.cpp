#include "vinoc/io/shard_wire.hpp"

#include <map>
#include <string_view>

#include "vinoc/io/exports.hpp"
#include "vinoc/io/jsonl.hpp"

namespace vinoc::io {

namespace {

const char* event_name(ShardEventType type) {
  switch (type) {
    case ShardEventType::kStart: return "start";
    case ShardEventType::kDone: return "done";
    case ShardEventType::kSummary: return "summary";
  }
  return "?";
}

}  // namespace

std::string encode_shard_event(const ShardEvent& event) {
  JsonlWriter w;
  w.field("ev", event_name(event.type));
  switch (event.type) {
    case ShardEventType::kStart:
      w.field("key", key_hex(event.key));
      break;
    case ShardEventType::kDone:
      w.field("key", key_hex(event.key));
      w.field("rec", event.payload);
      break;
    case ShardEventType::kSummary:
      w.field("metrics", event.payload);
      break;
  }
  return add_line_checksum(w.line());
}

std::optional<ShardEvent> decode_shard_event(const std::string& line) {
  std::string payload;
  if (verify_line_checksum(line, &payload) != ChecksumStatus::kOk) {
    return std::nullopt;  // torn, corrupt, or not one of ours
  }
  std::map<std::string, std::string> obj;
  if (!parse_jsonl_object(payload, obj)) return std::nullopt;
  const auto ev = obj.find("ev");
  if (ev == obj.end()) return std::nullopt;
  ShardEvent out;
  if (ev->second == "start" || ev->second == "done") {
    const auto key = obj.find("key");
    if (key == obj.end() || !key_from_hex(key->second, out.key)) {
      return std::nullopt;
    }
    if (ev->second == "start") {
      out.type = ShardEventType::kStart;
      return out;
    }
    const auto rec = obj.find("rec");
    if (rec == obj.end()) return std::nullopt;
    out.type = ShardEventType::kDone;
    out.payload = rec->second;
    return out;
  }
  if (ev->second == "summary") {
    const auto metrics = obj.find("metrics");
    if (metrics == obj.end()) return std::nullopt;
    out.type = ShardEventType::kSummary;
    out.payload = metrics->second;
    return out;
  }
  return std::nullopt;
}

bool write_shard_manifest(const std::string& path,
                          const std::vector<std::uint64_t>& keys) {
  std::string text;
  for (const std::uint64_t key : keys) {
    JsonlWriter w;
    w.field("key", key_hex(key));
    text += add_line_checksum(w.line());
    text += '\n';
  }
  try {
    write_file(path, text);  // atomic temp + rename
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

std::optional<std::vector<std::uint64_t>> read_shard_manifest(
    const std::string& path) {
  std::string text;
  if (!read_file(path, text)) return std::nullopt;
  std::vector<std::uint64_t> keys;
  std::string payload;
  std::map<std::string, std::string> obj;
  for (std::string_view rest = text; !rest.empty();) {
    const std::string_view line = next_line(rest);
    if (line.empty()) continue;
    obj.clear();
    if (verify_line_checksum(line, &payload) != ChecksumStatus::kOk ||
        !parse_jsonl_object(payload, obj)) {
      return std::nullopt;
    }
    const auto it = obj.find("key");
    std::uint64_t key = 0;
    if (it == obj.end() || !key_from_hex(it->second, key)) return std::nullopt;
    keys.push_back(key);
  }
  return keys;
}

}  // namespace vinoc::io
