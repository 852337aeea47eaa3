// The benchmark's workloads and one measured round of each.
//
// A round builds a fresh simulated cluster, launches the application,
// arms the self-healing supervisor (periodic policy off) and runs the
// workload's fixed, seed-derived script of coordinated operations
// through the public Manager API: live migrations, SAN checkpoints
// alternating blocking and COW, one restart, and a node kill that the
// supervisor detects and recovers unattended.  The application then
// runs to completion and its SAN result object is compared with an
// uninterrupted reference run of the same seed.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "probe.h"
#include "sim/engine.h"
#include "util/types.h"

namespace zapc::perfbench {

struct Spec {
  std::string name;
  std::string app;    // "bt" | "bratu"
  int ranks = 1;      // one pod per rank
  int set_nodes = 1;  // nodes per set; two sets, pods start on set A
  // Application sizing; grid and workspace vary ±1% by seed.
  u32 grid_n = 0;
  u32 iterations = 0;  // BT steps / Bratu sweeps
  sim::Time cost_per_row = 0;
  u64 workspace_bytes = 0;  // per pod
  // Script: migrations back and forth between the sets, then SAN
  // checkpoints (alternating blocking and COW) with `restarts` restarts
  // spread among them, then `kills` node kills, each recovered by the
  // supervisor.  Every op follows a guest gap of gap_us ±5%.
  sim::Time warmup_us = 0;
  sim::Time gap_us = 0;
  int migrations = 0;
  int checkpoints = 0;  // a multiple of `restarts`
  int restarts = 1;
  int kills = 1;
  bool destroy_before_restart = false;  // else restart in place
  bool lazy_restart = false;            // pipelined + lazy restore
};

/// The named workloads (bigimage, manypods, migrate); nullptr if unknown.
const Spec* find_spec(const std::string& name);

/// Host time and event count of one coordinated op, call to callback.
struct OpSample {
  std::string kind;  // "ckpt" | "restart" | "migrate"
  double host_ms = 0;
  u64 events = 0;
};

/// Host rates of the layers' byte-path functions, replayed on the
/// images a round produced (traced rounds only).
struct Replay {
  double capture_mb_s = 0;  // ckpt::Standalone::save_processes, live pods
  double encode_mb_s = 0;   // ckpt::encode_image
  double decode_mb_s = 0;   // ckpt::decode_image
  double codec_saved_frac = 0;  // zero-elide + dedup saved / logical
  double crc32_mb_s = 0;        // util crc32 over the committed image
  double san_write_mb_s = 0;    // os::VirtualSAN::write
  double san_read_mb_s = 0;     // os::VirtualSAN::read (whole object)
  double san_read_at_mb_s = 0;  // os::VirtualSAN::read_at, 256 KiB
};

struct RoundResult {
  // ---- Virtual (cost model; identical for a given seed) ----
  std::vector<double> ckpt_downtime_ms;
  std::vector<double> ckpt_latency_ms;
  std::vector<double> image_mb;  // per SAN checkpoint, summed over pods
  std::vector<double> restart_downtime_ms;
  std::vector<double> restart_latency_ms;
  std::vector<double> migrate_ms;
  std::vector<double> mttr_ms;    // supervisor recoveries
  std::vector<double> detect_ms;  // node kill -> death confirmed
  double job_virtual_s = 0;
  std::map<std::string, double> phase_ms;  // critical path, all ops
  obs::MetricsSnapshot counts;             // measured-phase diff
  u64 san_bytes = 0;
  u64 san_objects = 0;
  // ---- Host ----
  double setup_s = 0;  // cluster build, launch, supervisor, warm-up
  double wall_s = 0;   // measured phase (replays excluded)
  std::vector<OpSample> ops;
  double guest_host_s = 0;  // Cluster::run_for with no op in flight
  u64 guest_events = 0;
  Replay replay;
  // ---- Correctness ----
  u64 attempted = 0;  // op attempts (retries included) + checks
  u64 failed = 0;
  std::vector<std::string> problems;

  /// Every virtual metric and count, rendered for exact comparison.
  std::string virtual_signature() const;
};

/// Uninterrupted run of the job: its SAN result object (empty on
/// failure) is the reference every round of the same seed is compared
/// against.
Bytes reference_result(const Spec& spec, u64 seed, HostTracer& tr);

/// One measured round.  `replay` also runs the byte-path replays.
RoundResult run_round(const Spec& spec, u64 seed, const Bytes& ref,
                      HostTracer& tr, bool replay);

}  // namespace zapc::perfbench
