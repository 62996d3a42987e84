// Deterministic fault injection — the chaos-testing backbone.
//
// Every injection point is a named SITE compiled into a hot path (an eval
// throw, a store-write failure, an artificial stall). Sites are inert until
// armed through configure() or the environment:
//
//   VINOC_FAULT="eval:0.1,store_write:1@2"   site:rate[@max_fires], comma-sep
//   VINOC_FAULT_SEED=7                        decision-stream seed (default 1)
//   VINOC_FAULT_STALL_MS=50                   stall duration (default 10)
//
// Decisions are DETERMINISTIC: the n-th hit of a site fires iff
// splitmix64(seed, site, n) < rate — independent of threading, wall clock
// or address layout — so a chaos test that fails replays exactly with the
// same seed. `rate 1` always fires; `@N` stops after N fires, which is how
// tests script "fail the first attempt, then succeed" for retry coverage.
//
// The disarmed fast path is one relaxed atomic load, so production builds
// keep the sites compiled in (no macro soup, no perf tax worth measuring
// next to a millisecond-scale candidate evaluation).
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace vinoc::faultinject {

/// Thrown by maybe_fail(). Deliberately a plain runtime_error subclass: the
/// supervision layer must classify it as a TRANSIENT failure exactly like a
/// real I/O error, not special-case injected ones.
struct InjectedFault : std::runtime_error {
  using std::runtime_error::runtime_error;
};

enum class Site : int {
  kStoreWrite = 0,  ///< ResultCache::put_record disk append
  kEval,            ///< candidate evaluation (throws)
  kEvalStall,       ///< candidate evaluation (sleeps, for kill-window tests)
  kShardCrash,      ///< campaign worker: SIGKILLs itself at a job start —
                    ///< simulates a hard crash (OOM kill, segfault) for the
                    ///< shard supervisor's respawn/fallback ladder
  kShardStall,      ///< campaign worker: stalls at a job start without any
                    ///< cooperative cancel poll — only the supervisor's
                    ///< heartbeat watchdog can reclaim the shard
  kHeartbeatDrop,   ///< campaign worker: swallows one status line — tests
                    ///< the supervisor's tolerance of lost heartbeats
  kCount
};

/// Canonical spec name of a site ("store_write", "eval", "eval_stall",
/// "shard_crash", "shard_stall", "heartbeat_drop").
[[nodiscard]] const char* site_name(Site site);

/// True once any site has a non-zero rate (one relaxed atomic load).
[[nodiscard]] bool armed();

/// Arms sites from a spec string (see file header). Empty spec = disarm.
/// Returns false (and fills *error when non-null) on a malformed spec;
/// previously armed state is cleared either way.
bool configure(const std::string& spec, std::uint64_t seed,
               std::string* error = nullptr);

/// configure() from VINOC_FAULT / VINOC_FAULT_SEED / VINOC_FAULT_STALL_MS.
/// Unset VINOC_FAULT = disarmed. Throws std::invalid_argument on a
/// malformed value (a chaos run with a typoed spec must not silently run
/// fault-free).
void configure_from_env();

/// Disarms every site and resets hit/fire counters.
void reset();

/// Stall duration used by maybe_stall (configure_from_env reads
/// VINOC_FAULT_STALL_MS).
void set_stall_ms(int ms);

/// Records a hit at `site` and returns whether it fires this time.
[[nodiscard]] bool should_fire(Site site);

/// Throws InjectedFault{what} when the site fires.
inline void maybe_fail(Site site, const char* what) {
  if (armed() && should_fire(site)) {
    throw InjectedFault(std::string("injected fault at ") + site_name(site) +
                        ": " + what);
  }
}

/// Sleeps for the configured stall when the site fires.
void maybe_stall(Site site);

/// Total hits / fires observed at `site` since the last configure()/reset().
[[nodiscard]] std::uint64_t hit_count(Site site);
[[nodiscard]] std::uint64_t fire_count(Site site);

}  // namespace vinoc::faultinject
