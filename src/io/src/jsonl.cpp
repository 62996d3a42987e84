#include "vinoc/io/jsonl.hpp"

#include <cstdio>
#include <cstdlib>

namespace vinoc::io {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonlWriter::key_prefix(std::string_view key) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += json_escape(key);
  body_ += "\":";
}

JsonlWriter& JsonlWriter::field(std::string_view key, std::string_view value) {
  key_prefix(key);
  body_ += '"';
  body_ += json_escape(value);
  body_ += '"';
  return *this;
}

JsonlWriter& JsonlWriter::field(std::string_view key, double value) {
  key_prefix(key);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  body_ += buf;
  return *this;
}

JsonlWriter& JsonlWriter::field(std::string_view key, std::int64_t value) {
  key_prefix(key);
  body_ += std::to_string(value);
  return *this;
}

JsonlWriter& JsonlWriter::field(std::string_view key, std::uint64_t value) {
  key_prefix(key);
  body_ += std::to_string(value);
  return *this;
}

JsonlWriter& JsonlWriter::field(std::string_view key, bool value) {
  key_prefix(key);
  body_ += value ? "true" : "false";
  return *this;
}

namespace {

void skip_ws(std::string_view s, std::size_t& i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\r' ||
                          s[i] == '\n')) {
    ++i;
  }
}

/// Parses a JSON string literal starting at the opening quote; leaves `i`
/// one past the closing quote.
bool parse_string(std::string_view s, std::size_t& i, std::string& out) {
  if (i >= s.size() || s[i] != '"') return false;
  ++i;
  out.clear();
  while (i < s.size()) {
    const char c = s[i];
    if (c == '"') {
      ++i;
      return true;
    }
    if (c == '\\') {
      if (i + 1 >= s.size()) return false;
      const char esc = s[i + 1];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (i + 5 >= s.size()) return false;
          char* end = nullptr;
          const std::string hex(s.substr(i + 2, 4));
          const long code = std::strtol(hex.c_str(), &end, 16);
          if (end != hex.c_str() + 4) return false;
          // Writer only emits \u00xx control escapes; decode the latin-1
          // subset and reject the rest (out of scope).
          if (code > 0xFF) return false;
          out += static_cast<char>(code);
          i += 4;
          break;
        }
        default: return false;
      }
      i += 2;
      continue;
    }
    out += c;
    ++i;
  }
  return false;  // unterminated
}

}  // namespace

bool parse_jsonl_object(std::string_view line,
                        std::map<std::string, std::string>& out) {
  out.clear();
  std::size_t i = 0;
  skip_ws(line, i);
  if (i >= line.size() || line[i] != '{') return false;
  ++i;
  skip_ws(line, i);
  if (i < line.size() && line[i] == '}') {
    ++i;
  } else {
    for (;;) {
      skip_ws(line, i);
      std::string key;
      if (!parse_string(line, i, key)) return false;
      skip_ws(line, i);
      if (i >= line.size() || line[i] != ':') return false;
      ++i;
      skip_ws(line, i);
      if (i >= line.size()) return false;
      std::string value;
      if (line[i] == '"') {
        if (!parse_string(line, i, value)) return false;
      } else if (line[i] == '{' || line[i] == '[') {
        return false;  // nesting is out of scope
      } else {
        // Number / true / false / null: raw token up to ',' or '}'.
        const std::size_t start = i;
        while (i < line.size() && line[i] != ',' && line[i] != '}') ++i;
        std::size_t end = i;
        while (end > start &&
               (line[end - 1] == ' ' || line[end - 1] == '\t')) {
          --end;
        }
        if (end == start) return false;
        value.assign(line.substr(start, end - start));
      }
      out[key] = std::move(value);
      skip_ws(line, i);
      if (i >= line.size()) return false;
      if (line[i] == ',') {
        ++i;
        continue;
      }
      if (line[i] == '}') {
        ++i;
        break;
      }
      return false;
    }
  }
  skip_ws(line, i);
  return i == line.size();
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

constexpr std::string_view kCrcPrefix = ",\"_crc\":\"";
constexpr std::size_t kCrcHexDigits = 16;

}  // namespace

std::string key_hex(std::uint64_t key) {
  char buf[kCrcHexDigits + 1];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

bool key_from_hex(std::string_view hex, std::uint64_t& key) {
  if (hex.size() != kCrcHexDigits) return false;
  std::uint64_t value = 0;
  for (const char c : hex) {
    int digit = 0;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return false;
    }
    value = (value << 4) | static_cast<std::uint64_t>(digit);
  }
  key = value;
  return true;
}

std::string add_line_checksum(std::string_view line) {
  const std::string hex = key_hex(fnv1a64(line));
  std::string out(line.substr(0, line.size() - 1));  // drop closing '}'
  // An empty object has no field to follow, so no separating comma.
  out += line == "{}" ? std::string_view("\"_crc\":\"")
                      : std::string_view(kCrcPrefix);
  out += hex;
  out += "\"}";
  return out;
}

ChecksumStatus verify_line_checksum(std::string_view line,
                                    std::string* payload_out) {
  if (line.size() < 2 || line.front() != '{' || line.back() != '}') {
    return ChecksumStatus::kMalformed;
  }
  // Suffix shape: ,"_crc":"<16 hex>"}  (or without the comma after "{").
  const std::size_t suffix = kCrcPrefix.size() + kCrcHexDigits + 2;
  std::string payload;
  std::string_view hex;
  if (line.size() >= suffix &&
      line.substr(line.size() - suffix, kCrcPrefix.size()) == kCrcPrefix &&
      line.substr(line.size() - 2) == "\"}") {
    hex = line.substr(line.size() - kCrcHexDigits - 2, kCrcHexDigits);
    payload = std::string(line.substr(0, line.size() - suffix)) + "}";
  } else if (line.size() == suffix &&
             line.substr(1, kCrcPrefix.size() - 1) == kCrcPrefix.substr(1)) {
    hex = line.substr(kCrcPrefix.size(), kCrcHexDigits);
    payload = "{}";
  } else {
    if (payload_out != nullptr) *payload_out = std::string(line);
    return ChecksumStatus::kAbsent;
  }
  for (const char c : hex) {
    const bool is_hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!is_hex) return ChecksumStatus::kMismatch;
  }
  if (key_hex(fnv1a64(payload)) != hex) return ChecksumStatus::kMismatch;
  if (payload_out != nullptr) *payload_out = std::move(payload);
  return ChecksumStatus::kOk;
}

bool read_file(const std::string& path, std::string& out) {
  out.clear();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  long size = -1;
  if (std::fseek(f, 0, SEEK_END) == 0) size = std::ftell(f);
  std::rewind(f);
  if (size > 0) {
    out.resize(static_cast<std::size_t>(size));
    out.resize(std::fread(out.data(), 1, out.size(), f));
  }
  // Whatever lies past the measured size: a file still being appended to,
  // or one that cannot report its size.
  char buf[1 << 14];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;) {
    out.append(buf, n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

std::string quarantine_envelope(std::string_view line, std::string_view reason) {
  JsonlWriter w;
  w.field("quarantined", line);
  w.field("reason", reason);
  return add_line_checksum(w.line());
}

}  // namespace vinoc::io
