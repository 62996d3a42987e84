// Minimal JSON-lines support, shared by the campaign subsystem's result
// store / streaming reporter and the CLI's --json output — one writer, one
// format, instead of each caller inventing its own.
//
// Scope is deliberately tiny: FLAT single-line objects whose values are
// strings, numbers or booleans. The writer is deterministic — fields appear
// in insertion order and doubles are printed with "%.17g", which round-trips
// bit-exactly through strtod — so two runs that compute identical values
// emit identical bytes (the campaign determinism guarantee builds on this).
// The parser reads exactly what the writer emits (plus whitespace); it is
// not a general JSON parser and rejects nested objects/arrays.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace vinoc::io {

/// Escapes `s` for use inside a JSON string literal (quotes not included).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Builds one flat JSON object, rendered as a single line.
class JsonlWriter {
 public:
  JsonlWriter& field(std::string_view key, std::string_view value);
  JsonlWriter& field(std::string_view key, const char* value) {
    return field(key, std::string_view(value));
  }
  JsonlWriter& field(std::string_view key, double value);
  JsonlWriter& field(std::string_view key, std::int64_t value);
  JsonlWriter& field(std::string_view key, int value) {
    return field(key, static_cast<std::int64_t>(value));
  }
  JsonlWriter& field(std::string_view key, std::uint64_t value);
  JsonlWriter& field(std::string_view key, bool value);

  /// The rendered object, e.g. `{"a":1,"b":"x"}`. No trailing newline.
  [[nodiscard]] std::string line() const { return "{" + body_ + "}"; }

 private:
  void key_prefix(std::string_view key);
  std::string body_;
};

/// Parses one flat JSON object line into key -> value. String values are
/// unescaped; numbers and booleans keep their raw JSON spelling (use strtod
/// / comparison with "true"). Returns false on malformed input or on any
/// nested object/array value.
[[nodiscard]] bool parse_jsonl_object(std::string_view line,
                                      std::map<std::string, std::string>& out);

// --- Per-line checksums (durable store v2) ----------------------------------
//
// A checksummed line is the original flat object with one trailing
// `"_crc":"<16 hex>"` field spliced in before the closing brace — still a
// valid flat JSON line (parse_jsonl_object reads it; record parsers ignore
// the extra key), so v2 stores stay greppable and hand-editable. The
// checksum (FNV-1a 64 of the original line text) is what lets a recovery
// pass tell a crash-torn or bit-rotted record from a good one.

/// 16 lowercase hex digits, zero-padded: the JSONL spelling of a 64-bit key
/// (job keys, shard-wire keys and line checksums all use it).
[[nodiscard]] std::string key_hex(std::uint64_t key);
/// Inverse of key_hex (either case accepted); returns false on anything but
/// exactly 16 hex digits.
[[nodiscard]] bool key_from_hex(std::string_view hex, std::uint64_t& key);

/// FNV-1a 64-bit over `bytes`.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes);

/// `{"a":1}` -> `{"a":1,"_crc":"<hex of fnv1a64 of the input>"}`. The input
/// must be a one-line object (starts '{', ends '}').
[[nodiscard]] std::string add_line_checksum(std::string_view line);

enum class ChecksumStatus {
  kOk,         ///< trailing _crc present and it matches the payload
  kAbsent,     ///< well-formed line without a _crc field (legacy v1 store)
  kMismatch,   ///< _crc present but wrong — torn or corrupted line
  kMalformed,  ///< not even shaped like a JSON object line
};

/// Verifies and strips the trailing _crc field. On kOk/kAbsent,
/// *payload_out (when non-null) receives the line without the checksum
/// field — the exact text add_line_checksum was given.
[[nodiscard]] ChecksumStatus verify_line_checksum(std::string_view line,
                                                  std::string* payload_out);

/// Reads the whole file at `path` into `out` with one sized read (the JSONL
/// stores and ledgers are read this way, then walked line by line). Returns
/// false when the file cannot be opened or a read fails; `out` is then
/// empty or partial.
[[nodiscard]] bool read_file(const std::string& path, std::string& out);

/// Pops the next line off the front of `rest` and returns it without its
/// '\n' (the final line may lack one). Walk a buffer with
/// `for (std::string_view rest = text; !rest.empty();)`.
[[nodiscard]] inline std::string_view next_line(std::string_view& rest) {
  const std::size_t nl = rest.find('\n');
  const std::string_view line = rest.substr(0, nl);
  rest.remove_prefix(nl == std::string_view::npos ? rest.size() : nl + 1);
  return line;
}

/// Canonical envelope for a REJECTED line bound for a quarantine ledger:
/// `{"quarantined":"<escaped original bytes>","reason":"...","_crc":...}`.
/// The original line is usually torn or corrupt — not valid JSON — so it
/// rides as an escaped string inside a fresh checksummed object; the ledger
/// itself stays verifiable line by line (every side ledger carries _crc,
/// same as the store).
[[nodiscard]] std::string quarantine_envelope(std::string_view line,
                                              std::string_view reason);

}  // namespace vinoc::io
