// Persistent run ledger: one JSONL line per completed or aborted
// coordinated operation (`zapc.obs.ledger.v1`).
//
// The Manager appends a LedgerEntry at every op-terminal path — success,
// terminal abort, AND the abort that precedes a retry (retries mint a
// fresh op id, so every attempt is its own line, flagged will_retry).
// Aborted ops are covered by the same discipline as the atomic image
// commit: the line is written before the op state is torn down, so a
// run's ledger is a complete history even when everything failed.
//
// Each line is self-describing (schema tag on every line) and written
// with a single fwrite + flush, so a crash can tear at most the final
// line; the loader counts and skips a torn tail instead of failing.
#pragma once

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "obs/critpath.h"
#include "obs/json.h"
#include "util/status.h"

namespace zapc::obs {

struct LedgerEntry {
  OpId op = 0;
  std::string kind;     // "ckpt" | "restart"
  std::string outcome;  // "ok" | "aborted"
  std::string error;    // abort reason ("" on success)
  bool transient = false;
  bool will_retry = false;  // a follow-up attempt (fresh op id) is queued
  u32 attempt = 1;          // 1-based attempt number within the request
  Time start_us = 0;
  Time end_us = 0;
  /// Application downtime: op start → every pod resumed.  For blocking
  /// checkpoints and restarts this equals latency_us; a COW checkpoint
  /// keeps running its background drains after the pods resume, so its
  /// latency exceeds its downtime (DESIGN.md §11).
  Time downtime_us = 0;
  /// Full op latency (start → terminal).
  Time latency_us = 0;
  u32 pods = 0;  // agents that reported completion
  // Slowest per-phase duration across pods ("suspend", "netckpt",
  // "standalone", "barrier" / "connectivity", "netstate", "standalone").
  std::map<std::string, Time> phase_us;
  u64 image_bytes = 0;    // largest per-pod committed image
  u64 network_bytes = 0;  // largest per-pod network-state image
  u64 logical_bytes = 0;  // largest per-pod logical (pre-delta) size
  std::string straggler_pod;    // live-health straggler, "" if none
  std::string straggler_phase;  // phase the straggler was lagging in
  Time straggler_lag_us = 0;
  bool has_attrib = false;  // critical-path attribution succeeded
  OpAttribution attrib;     // valid only when has_attrib
  /// Who initiated the op: "manual" (operator/test code) or
  /// "supervisor" (periodic-checkpoint policy or a recovery restart).
  /// Loader back-compat: lines written before the supervisor carry no
  /// trigger field and fold back to "manual".
  std::string trigger = "manual";
  /// Recovery restarts only: failure detection → application restored
  /// (downtime end − detect time), the MTTR the supervisor is graded on.
  /// 0 = not a recovery.
  Time mttr_us = 0;
  /// Lazy restarts only (DESIGN.md §13): demand faults taken during the
  /// fill window and cold bytes restored off the downtime path.  Loader
  /// back-compat: absent fields fold to 0.
  u64 lazy_faults = 0;
  u64 lazy_bytes = 0;
  /// COW drains only: slowest per-pod drain time spent while the SAN QoS
  /// scheduler throttled it behind a foreground stream vs. while it
  /// merely contended with sibling drains, and the worst (lowest)
  /// granted drain bandwidth.  Loader back-compat: absent fields fold
  /// to 0 (pre-QoS lines).
  Time drain_throttled_us = 0;
  Time drain_contended_us = 0;
  u64 drain_granted_bps = 0;
};

Json ledger_entry_to_json(const LedgerEntry& e);
Result<LedgerEntry> ledger_entry_from_json(const Json& j);

/// Append-only JSONL ledger.  Default-constructed it records in memory
/// only (tests, benches that dump at the end); with a path it appends
/// each entry to the file as it arrives.
class Ledger {
 public:
  Ledger() = default;
  explicit Ledger(const std::string& path);
  ~Ledger();

  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  /// True when a path was given and the file opened.
  bool persistent() const { return file_ != nullptr; }

  /// Records the entry (and appends its line to the file when
  /// persistent).  The line is one fwrite + fflush: all or nothing up to
  /// an OS crash tearing the final line.
  Status append(const LedgerEntry& e);

  const std::vector<LedgerEntry>& entries() const { return entries_; }

  /// Dumps all in-memory entries to `path` (overwrite), one line each —
  /// how benches persist a Testbed's in-memory ledger next to their
  /// evidence JSON.
  Status write_file(const std::string& path) const;

  struct LoadResult {
    std::vector<LedgerEntry> entries;
    int skipped_torn = 0;  // unparsable trailing line(s) skipped
  };
  /// Loads a ledger file.  A torn final line (crash mid-append) is
  /// skipped and counted; malformed lines elsewhere are Err::PROTO.
  static Result<LoadResult> load(const std::string& path);

 private:
  std::vector<LedgerEntry> entries_;
  std::FILE* file_ = nullptr;
};

}  // namespace zapc::obs
