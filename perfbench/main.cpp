// zapc_perfbench: the repository benchmark driver.
//
//   zapc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--trace-out PATH]
//
// Runs one workload (bigimage, manypods, migrate) in this process: three
// uninterrupted reference runs, then measured rounds of the workload's
// seed-derived script until S host seconds of measured phase have
// accumulated (at least two rounds).  Every round replays the same seed,
// so rounds must agree exactly in virtual time; a mismatch is a failed
// check.  The last line of stdout is one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// per-layer set, measured from driver spans around each call into a
// layer (written to --trace-out at exit) and from byte-path replays on
// the images the rounds produced.  Traced and untraced rounds alternate
// in a traced run, so the tracing overhead is measured, not assumed.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/json.h"
#include "util/log.h"
#include "probe.h"
#include "workload.h"

namespace zapc::perfbench {

namespace {

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return find_spec(a.workload) != nullptr && a.seconds > 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Collects the result metrics and echoes each one as a readable line.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    obs::Json m = obs::Json::object();
    m["value"] = value;
    m["unit"] = unit;
    doc_[name] = std::move(m);
    std::printf("  %-24s %14.4f %-6s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
  }
  obs::Json take() { return std::move(doc_); }

 private:
  obs::Json doc_ = obs::Json::object();
};

u64 count(const RoundResult& r, const std::string& name) {
  auto it = r.counts.counters.find(name);
  return it == r.counts.counters.end() ? 0 : it->second;
}

std::vector<double> op_ms(const std::vector<const RoundResult*>& rounds,
                          const std::string& kind = "") {
  std::vector<double> v;
  for (const RoundResult* r : rounds) {
    for (const OpSample& o : r->ops) {
      if (kind.empty() || o.kind == kind) v.push_back(o.host_ms);
    }
  }
  return v;
}

/// Host ms per driver op: each round's mean, then the median over
/// rounds.  The rounds mix op kinds in fixed proportions, and a mean keeps
/// every kind in view where the median of a bimodal mix would jump
/// between modes.
double op_host_ms(const std::vector<const RoundResult*>& rounds) {
  std::vector<double> means;
  for (const RoundResult* r : rounds) {
    std::vector<double> v = op_ms({r});
    double sum = 0;
    for (double x : v) sum += x;
    if (!v.empty()) means.push_back(sum / static_cast<double>(v.size()));
  }
  return median(means);
}

template <typename Fn>
double median_of(const std::vector<const RoundResult*>& rounds, Fn fn) {
  std::vector<double> v;
  for (const RoundResult* r : rounds) v.push_back(fn(*r));
  return median(v);
}

/// "median (pNN over n=..)" note for a host timing, when n allows.
std::string tail_note(const std::vector<double>& v) {
  int p = tail_percentile(v.size());
  char buf[96];
  if (p == 0) {
    std::snprintf(buf, sizeof(buf), "median, n=%zu", v.size());
  } else {
    std::snprintf(buf, sizeof(buf), "median, p%d=%.4f, n=%zu", p,
                  percentile(v, p), v.size());
  }
  return buf;
}

/// Median of a round's deterministic samples, noting count and range.
void add_samples(Metrics& m, const std::string& name,
                 const std::vector<double>& v, const std::string& unit) {
  char note[96];
  auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  std::snprintf(note, sizeof(note), "median, n=%zu, %.3f..%.3f",
                v.size(), v.empty() ? 0 : *lo, v.empty() ? 0 : *hi);
  m.add(name, median(v), unit, note);
}

void end_to_end(Metrics& m, const RoundResult& first,
                const std::vector<const RoundResult*>& rounds,
                double setup_s) {
  add_samples(m, "ckpt_downtime_ms", first.ckpt_downtime_ms, "ms");
  add_samples(m, "ckpt_latency_ms", first.ckpt_latency_ms, "ms");
  add_samples(m, "restart_downtime_ms", first.restart_downtime_ms, "ms");
  add_samples(m, "restart_latency_ms", first.restart_latency_ms, "ms");
  add_samples(m, "migrate_ms", first.migrate_ms, "ms");
  add_samples(m, "mttr_ms", first.mttr_ms, "ms");
  m.add("job_virtual_s", first.job_virtual_s, "s", "virtual");
  add_samples(m, "image_mb", first.image_mb, "MB");
  std::vector<double> walls;
  for (const RoundResult* r : rounds) walls.push_back(r->wall_s);
  m.add("wall_s", median(walls), "s", tail_note(walls));
  m.add("op_host_ms", op_host_ms(rounds), "ms",
        "per-op mean; all ops " + tail_note(op_ms(rounds)));
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  m.add("setup_s", setup_s, "s", "median reference run + median round set-up");
}

void per_layer(Metrics& m, const RoundResult& first,
               const std::vector<const RoundResult*>& traced,
               double overhead_s, std::size_t spans) {
  // sim
  m.add("sim.events",
        static_cast<double>(count(first, "sim.events_dispatched")), "count");
  double guest_s = 0, guest_ev = 0;
  for (const RoundResult* r : traced) {
    guest_s += r->guest_host_s;
    guest_ev += static_cast<double>(r->guest_events);
  }
  m.add("sim.host_ns_per_event", guest_ev > 0 ? guest_s * 1e9 / guest_ev : 0,
        "ns");
  // apps + mpi
  m.add("apps.guest_host_ms",
        median_of(traced, [](const RoundResult& r) {
          return r.guest_host_s * 1e3;
        }),
        "ms");
  // Byte path: the ckpt + util + os share of an op's host time.
  auto rate = [&](double Replay::*f) {
    return median_of(traced, [f](const RoundResult& r) { return r.replay.*f; });
  };
  const double capture = rate(&Replay::capture_mb_s);
  const double encode = rate(&Replay::encode_mb_s);
  const double crc = rate(&Replay::crc32_mb_s);
  const double san_w = rate(&Replay::san_write_mb_s);
  const double image_mb = median(first.image_mb);
  double est_ms = 0;
  for (double r : {capture, encode, crc, san_w}) {
    if (r > 0) est_ms += image_mb / r * 1e3;
  }
  const double op_host = op_host_ms(traced);
  // core
  m.add("core.ckpt_host_ms", median(op_ms(traced, "ckpt")), "ms");
  m.add("core.restart_host_ms", median(op_ms(traced, "restart")), "ms");
  m.add("core.migrate_host_ms", median(op_ms(traced, "migrate")), "ms");
  u64 op_events = 0;
  for (const OpSample& o : first.ops) op_events += o.events;
  m.add("core.op_events", static_cast<double>(op_events), "count");
  m.add("core.self_host_ms", op_host - est_ms, "ms",
        "per-op mean host time minus byte-path estimate");
  m.add("core.retries",
        static_cast<double>(count(first, "mgr.ckpt.retries") +
                            count(first, "mgr.restart.retries")),
        "count");
  m.add("core.deadline_expired",
        static_cast<double>(count(first, "mgr.phase.deadline_expired")),
        "count");
  for (const auto& [phase, v] : first.phase_ms) {
    m.add("phase." + phase + "_ms", v, "ms", "virtual, all ops");
  }
  // ckpt / util / os
  m.add("ckpt.capture_mb_s", capture, "MB/s");
  m.add("ckpt.encode_mb_s", encode, "MB/s");
  m.add("ckpt.decode_mb_s", rate(&Replay::decode_mb_s), "MB/s");
  m.add("ckpt.codec_saved_frac", rate(&Replay::codec_saved_frac), "frac");
  m.add("ckpt.image_bytes", image_mb * (1 << 20), "bytes",
        "per checkpoint, all pods");
  m.add("util.crc32_mb_s", crc, "MB/s");
  m.add("os.san_write_mb_s", san_w, "MB/s");
  m.add("os.san_read_mb_s", rate(&Replay::san_read_mb_s), "MB/s");
  m.add("os.san_read_at_mb_s", rate(&Replay::san_read_at_mb_s), "MB/s",
        "256 KiB chunks");
  m.add("os.san_bytes", static_cast<double>(first.san_bytes), "bytes");
  m.add("os.san_objects", static_cast<double>(first.san_objects), "count");
  // net
  for (const char* c :
       {"net.tcp.retransmits", "net.altq.installs", "net.filter.dropped"}) {
    m.add(c, static_cast<double>(count(first, c)), "count");
  }
  // super / obs
  m.add("super.detect_ms", median(first.detect_ms), "ms", "virtual");
  m.add("super.beacons", static_cast<double>(count(first, "super.beacons")),
        "count");
  m.add("super.recovery.attempts",
        static_cast<double>(count(first, "super.recovery.attempts")), "count");
  m.add("obs.ledger_appends",
        static_cast<double>(count(first, "mgr.ledger.appends")), "count");
  m.add("obs.hb_sent", static_cast<double>(count(first, "agent.hb.sent") +
                                           count(first, "agent.node_hb.sent")),
        "count");
  // The byte-path share and the cost of tracing itself.
  m.add("bytepath.est_ms", est_ms, "ms", "image / (capture,encode,crc,san)");
  m.add("bytepath.share", op_host > 0 ? est_ms / op_host : 0, "frac",
        "of op_host_ms");
  m.add("trace.overhead_s", overhead_s, "s", "traced - untraced wall_s");
  m.add("trace.spans", static_cast<double>(spans), "count");
}

/// The first `;`-separated field where two signatures disagree.
std::string first_difference(const std::string& a, const std::string& b) {
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  std::size_t from = a.rfind(';', i == 0 ? 0 : i - 1);
  from = from == std::string::npos ? 0 : from + 1;
  std::size_t to_a = a.find(';', i), to_b = b.find(';', i);
  return a.substr(from, to_a - from) + " vs " + b.substr(from, to_b - from);
}

int run(const Args& a) {
  const Spec& spec = *find_spec(a.workload);
  HostTracer tr;
  tr.set_on(a.trace);
  std::printf("perfbench: workload %s, seed %llu, %.0f s, trace %d\n",
              spec.name.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);

  // The reference run is set-up too; it runs three times so setup_s is a
  // median, and its runs must agree byte for byte.
  u64 attempted = 0;
  u64 failed = 0;
  Bytes ref;
  std::vector<double> ref_s;
  for (int i = 0; i < 3; ++i) {
    const double t = host_s();
    Bytes r = reference_result(spec, a.seed, tr);
    ref_s.push_back(host_s() - t);
    ++attempted;
    if (r.empty() || (i > 0 && r != ref)) {
      ++failed;
      std::printf("  FAIL: reference run %d %s\n", i + 1,
                  r.empty() ? "produced no result" : "differs from run 1");
    }
    if (i == 0) ref = std::move(r);
  }

  // Rounds until the measured phases add up to --seconds: at least three,
  // so a median over rounds rejects one disturbed round, and a hard stop
  // well inside the per-run time limit.
  std::vector<RoundResult> rounds;
  double measured = 0;
  const double t_start = host_s();
  while (rounds.size() < 3 ||
         (measured < a.seconds && rounds.size() < 12 &&
          host_s() - t_start < 90)) {
    // A traced run alternates traced and untraced rounds.
    const bool traced = a.trace && rounds.size() % 2 == 0;
    tr.set_on(traced);
    rounds.push_back(run_round(spec, a.seed, ref, tr, traced));
    const RoundResult& r = rounds.back();
    measured += r.wall_s;
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& p : r.problems) {
      std::printf("  FAIL (round %zu): %s\n", rounds.size(), p.c_str());
    }
    // Every round replays the same seed: virtual results must agree.
    if (rounds.size() > 1) {
      ++attempted;
      if (r.virtual_signature() != rounds.front().virtual_signature()) {
        ++failed;
        std::printf("  FAIL (round %zu): virtual results differ from round 1: "
                    "%s\n",
                    rounds.size(),
                    first_difference(rounds.front().virtual_signature(),
                                     r.virtual_signature())
                        .c_str());
      }
    }
  }
  tr.set_on(a.trace);

  std::vector<const RoundResult*> all, traced, untraced;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    all.push_back(&rounds[i]);
    (a.trace && i % 2 == 0 ? traced : untraced).push_back(&rounds[i]);
  }
  const double setup_s =
      median(ref_s) +
      median_of(all, [](const RoundResult& r) { return r.setup_s; });
  std::printf("  rounds %zu, measured %.3f s, ops %zu\n", rounds.size(),
              measured, op_ms(all).size());

  Metrics m;
  if (!a.trace) {
    end_to_end(m, rounds.front(), all, setup_s);
  } else {
    const double overhead =
        median_of(traced, [](const RoundResult& r) { return r.wall_s; }) -
        median_of(untraced, [](const RoundResult& r) { return r.wall_s; });
    per_layer(m, rounds.front(), traced, overhead, tr.spans().size());
    if (!a.trace_out.empty() && !tr.write(a.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   a.trace_out.c_str());
    }
  }
  std::printf("  op_fail_frac %.6f (%llu of %llu)\n",
              static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  obs::Json out = obs::Json::object();
  out["correct"] = failed == 0;
  out["attempted"] = attempted;
  out["failed"] = failed;
  out["metrics"] = m.take();
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace
}  // namespace zapc::perfbench

int main(int argc, char** argv) {
  zapc::perfbench::Args a;
  if (!zapc::perfbench::parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: zapc_perfbench --workload bigimage|manypods|migrate "
                 "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n");
    return 2;
  }
  // The node kill is expected; keep its warnings out of the output.
  if (std::getenv("ZAPC_LOG_LEVEL") == nullptr) {
    zapc::set_log_level(zapc::LogLevel::ERROR);
  }
  return zapc::perfbench::run(a);
}
