#include "workload.h"

#include <cmath>
#include <memory>
#include <sstream>

#include "apps/bratu.h"
#include "apps/bt.h"
#include "apps/launcher.h"
#include "ckpt/image.h"
#include "ckpt/standalone.h"
#include "core/agent.h"
#include "core/manager.h"
#include "fault/fault.h"
#include "obs/stats.h"
#include "os/cluster.h"
#include "super/supervisor.h"
#include "tools/trace_analysis.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace zapc::perfbench {
namespace {

constexpr sim::Time kMs = sim::kMillisecond;

// Sizes keep one untraced run of each workload near half a minute on a
// 4-core host while keeping its character (see NOTES.md).  Where TCP
// peers exist, each script repeats every op kind enough that a single
// slow op (one extra retransmission timeout during a restore, say)
// cannot move a median on its own.
const std::vector<Spec>& specs() {
  static const std::vector<Spec> all = [] {
    std::vector<Spec> v;
    {
      // One big BT pod: the byte path (capture, encode, CRC, SAN) is the
      // host cost; core and net are idle with one pod and no peers.
      Spec s;
      s.name = "bigimage";
      s.app = "bt";
      s.ranks = 1;
      s.set_nodes = 1;
      s.grid_n = 512;
      s.iterations = 120;
      s.cost_per_row = 36;
      s.workspace_bytes = 48ull << 20;
      s.warmup_us = 100 * kMs;
      s.gap_us = 150 * kMs;
      s.migrations = 1;
      s.checkpoints = 4;
      s.restarts = 2;
      s.kills = 2;
      s.destroy_before_restart = true;
      s.lazy_restart = true;
      v.push_back(s);
    }
    {
      // Sixteen tiny Bratu pods with constant halo traffic: the host cost
      // is the coordination protocol, the engine, TCP and the supervisor.
      Spec s;
      s.name = "manypods";
      s.app = "bratu";
      s.ranks = 16;
      s.set_nodes = 16;
      s.grid_n = 128;
      s.iterations = 2500;
      s.cost_per_row = 40;
      s.workspace_bytes = 256ull << 10;
      s.warmup_us = 50 * kMs;
      s.gap_us = 40 * kMs;
      s.migrations = 3;
      s.checkpoints = 12;
      s.restarts = 6;
      s.kills = 3;
      v.push_back(s);
    }
    {
      // Four mid-size Bratu pods streamed agent to agent, back and forth:
      // every op encodes and decodes, and the bytes cross TCP.
      Spec s;
      s.name = "migrate";
      s.app = "bratu";
      s.ranks = 4;
      s.set_nodes = 4;
      s.grid_n = 128;
      s.iterations = 2000;
      s.cost_per_row = 40;
      s.workspace_bytes = 12ull << 20;
      s.warmup_us = 50 * kMs;
      s.gap_us = 60 * kMs;
      s.migrations = 4;
      s.checkpoints = 3;
      s.restarts = 3;
      s.kills = 3;
      v.push_back(s);
    }
    return v;
  }();
  return all;
}

/// The application's inputs: grid and workspace sizes, each the spec's
/// value ±1% by seed, so every cost-model time varies a little by seed.
struct AppInputs {
  u32 grid_n = 0;
  u64 workspace_bytes = 0;
};

AppInputs app_inputs(const Spec& s, u64 seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0xA9ull);
  auto scale = [&](double v) { return v * (0.99 + 0.02 * rng.uniform()); };
  AppInputs in;
  in.grid_n = static_cast<u32>(std::lround(scale(s.grid_n)));
  in.workspace_bytes =
      static_cast<u64>(scale(static_cast<double>(s.workspace_bytes))) &
      ~u64{63};
  return in;
}

std::unique_ptr<os::Program> make_rank(const Spec& s, const AppInputs& in,
                                       i32 rank) {
  if (s.app == "bt") {
    apps::BtProgram::Params p;
    p.rank = rank;
    p.size = s.ranks;
    p.n = in.grid_n;
    p.steps = s.iterations;
    p.cost_per_row = s.cost_per_row;
    p.workspace_bytes = in.workspace_bytes;
    return std::make_unique<apps::BtProgram>(p);
  }
  apps::BratuProgram::Params p;
  p.rank = rank;
  p.size = s.ranks;
  p.n = in.grid_n;
  p.iterations = s.iterations;
  p.reduce_every = 10;
  p.tol = 0;  // fixed work, so every run computes the same residual
  p.cost_per_row = s.cost_per_row;
  p.workspace_bytes = in.workspace_bytes;
  return std::make_unique<apps::BratuProgram>(p);
}

std::string result_path(const Spec& s) { return "results/" + s.app; }

/// The application's result object: BT writes its final and initial
/// norms and its step count, Bratu its residual and its sweep count.
struct AppResult {
  std::vector<double> values;
  u32 count = 0;
  bool ok = false;

  static AppResult parse(const Spec& s, const Bytes& blob) {
    AppResult r;
    Decoder d(blob);
    for (int i = 0; i < (s.app == "bt" ? 2 : 1); ++i) {
      Result<double> v = d.f64_();
      if (!v) return r;
      r.values.push_back(v.value());
    }
    Result<u32> n = d.u32_();
    if (!n) return r;
    r.count = n.value();
    r.ok = true;
    return r;
  }

  /// Same step count, and values equal up to the rounding of a sum taken
  /// in a different order: the MPI allreduce adds contributions in
  /// arrival order, and pausing pods changes that order.
  bool matches(const AppResult& ref) const {
    if (!ok || !ref.ok || count != ref.count ||
        values.size() != ref.values.size()) {
      return false;
    }
    for (std::size_t i = 0; i < values.size(); ++i) {
      double tol = 1e-12 * std::max(1.0, std::abs(ref.values[i]));
      if (!(std::abs(values[i] - ref.values[i]) <= tol)) return false;
    }
    return true;
  }

  std::string str() const {
    std::ostringstream o;
    o.precision(17);
    for (double v : values) o << v << " ";
    o << "after " << count;
    return o.str();
  }
};

/// A simulated cluster: the manager node, two sets of `set_nodes`
/// application nodes, and `spares` more nodes for recoveries to use; an
/// agent on each application node.
struct Testbed {
  os::Cluster cl;
  core::Trace trace;
  obs::Ledger ledger;
  os::Node* mgr = nullptr;
  std::vector<os::Node*> nodes;
  std::vector<std::unique_ptr<core::Agent>> agent_store;
  std::vector<core::Agent*> agents;
  std::unique_ptr<core::Manager> manager;
  // Declared last: destroyed first, while its channels' peers live.
  std::unique_ptr<super::Supervisor> supervisor;

  explicit Testbed(int app_nodes) {
    trace.recorder().set_clock([this] { return cl.now(); });
    mgr = &cl.add_node("mgr");
    for (int i = 0; i < app_nodes; ++i) {
      nodes.push_back(&cl.add_node("n" + std::to_string(i + 1)));
      agent_store.push_back(std::make_unique<core::Agent>(
          *nodes.back(), core::Agent::kDefaultPort, core::CostModel{},
          &trace));
      agents.push_back(agent_store.back().get());
    }
    manager = std::make_unique<core::Manager>(*mgr, &trace);
    manager->set_ledger(&ledger);
  }

  int agent_index(const net::SockAddr& addr) const {
    for (std::size_t i = 0; i < agents.size(); ++i) {
      if (agents[i]->addr() == addr) return static_cast<int>(i);
    }
    return -1;
  }
};

apps::JobHandle launch(Testbed& tb, const Spec& s, const AppInputs& in) {
  std::vector<core::Agent*> set_a(tb.agents.begin(),
                                  tb.agents.begin() + s.set_nodes);
  apps::JobHandle job = apps::launch_mpi_job(
      set_a, s.app, s.ranks, [&](i32 r) { return make_rank(s, in, r); });
  job.all_agents = tb.agents;  // pods move between the sets
  return job;
}

/// Where each pod lives, skipping agents on failed nodes (a killed
/// node's stranded pods are not the application any more).
pod::Pod* locate_live(Testbed& tb, const std::string& pod_name) {
  for (std::size_t i = 0; i < tb.agents.size(); ++i) {
    if (tb.nodes[i]->failed()) continue;
    if (pod::Pod* p = tb.agents[i]->find_pod(pod_name)) return p;
  }
  return nullptr;
}

/// -1 while running, else the worst exit code across ranks.
int job_exit(Testbed& tb, const apps::JobHandle& job) {
  int worst = 0;
  for (std::size_t i = 0; i < job.pod_names.size(); ++i) {
    pod::Pod* p = locate_live(tb, job.pod_names[i]);
    if (p == nullptr) return -1;
    os::Process* proc = p->find_process(job.vpids[i]);
    if (proc == nullptr || proc->state() != os::ProcState::EXITED) return -1;
    worst = std::max(worst, static_cast<int>(proc->exit_code()));
  }
  return worst;
}

/// Runs to completion, polled every virtual millisecond so the
/// completion time is exact to 1 ms (budget 600 s); exit code or -1.
int run_to_exit(Testbed& tb, const apps::JobHandle& job) {
  for (sim::Time t = 0; t < 600 * sim::kSecond; t += kMs) {
    int ec = job_exit(tb, job);
    if (ec >= 0) return ec;
    tb.cl.run_for(kMs);
  }
  return job_exit(tb, job);
}

core::Manager::Deadlines deadlines() {
  core::Manager::Deadlines d;
  d.connect_us = 5 * sim::kSecond;
  d.meta_us = 30 * sim::kSecond;
  d.done_us = 30 * sim::kSecond;
  d.restart_us = 60 * sim::kSecond;
  d.agent_barrier_us = 30 * sim::kSecond;
  d.agent_stream_us = 60 * sim::kSecond;
  d.drain_us = 60 * sim::kSecond;
  d.lazy_us = 60 * sim::kSecond;
  return d;
}

core::Manager::RetryPolicy retry() {
  core::Manager::RetryPolicy r;
  r.max_retries = 1;
  return r;
}

u64 events_now() { return obs::stats::sim_events_dispatched().value; }

double ms(sim::Time t) { return static_cast<double>(t) / 1000.0; }

/// One round's script and the state its steps share.  The seed drives
/// every choice (gap lengths ±5%, kill victims), so every round of a run
/// replays the same script.
struct Round {
  const Spec& spec;
  Testbed& tb;
  apps::JobHandle& job;
  HostTracer& tr;
  RoundResult& out;
  Rng rng;
  std::vector<int> host;  // agent index per pod
  int ckpts_taken = 0;

  void problem(const std::string& what) {
    ++out.failed;
    out.problems.push_back(what);
  }

  sim::Time gap() {
    double f = 0.95 + 0.1 * rng.uniform();
    return std::max<sim::Time>(
        kMs, static_cast<sim::Time>(static_cast<double>(spec.gap_us) * f /
                                    kMs) *
                 kMs);
  }

  /// Guest phase: the application runs with no coordinated op in flight.
  void guest(sim::Time t) {
    u64 ev0 = events_now();
    Probe p(tr, "os.Cluster::run_for");
    tb.cl.run_for(t);
    out.guest_host_s += p.stop();
    out.guest_events += events_now() - ev0;
  }

  /// Issues one coordinated op and steps the engine until its completion
  /// callback; records host time and events, call to callback.
  template <typename Report, typename Issue, typename OpOf>
  Report drive(const std::string& kind, const std::string& probe,
               Issue issue, OpOf op_of) {
    Report rep;
    bool done = false;
    double t_done = 0;
    u64 ev0 = events_now();
    Probe p(tr, probe);
    double t0 = host_s();
    issue([&](Report r) {
      rep = std::move(r);
      t_done = host_s();
      done = true;
    });
    for (int i = 0; i < 600000 && !done; ++i) tb.cl.run_for(kMs);
    p.stop(op_of(rep));
    if (!done) {
      problem(kind + " did not complete");
      return rep;
    }
    out.ops.push_back({kind, (t_done - t0) * 1e3, events_now() - ev0});
    return rep;
  }

  std::vector<core::Manager::Target> san_targets() const {
    std::vector<core::Manager::Target> t;
    for (std::size_t i = 0; i < job.pod_names.size(); ++i) {
      t.push_back({tb.agents[static_cast<std::size_t>(host[i])]->addr(),
                   job.pod_names[i], "san://ckpt/" + job.pod_names[i],
                   job.vips[i]});
    }
    return t;
  }

  /// Live migration of every pod to the matching node of the other set.
  void migrate() {
    auto other = [&](int h) {
      return h < spec.set_nodes ? h + spec.set_nodes : h - spec.set_nodes;
    };
    std::vector<core::Manager::MigrateTarget> move;
    for (std::size_t i = 0; i < job.pod_names.size(); ++i) {
      move.push_back(
          {tb.agents[static_cast<std::size_t>(host[i])]->addr(),
           tb.agents[static_cast<std::size_t>(other(host[i]))]->addr(),
           job.pod_names[i], job.vips[i]});
    }
    core::Manager::MigrateOptions mo;
    mo.deadlines = deadlines();
    auto rep = drive<core::Manager::MigrateReport>(
        "migrate", "core.Manager::migrate",
        [&](auto done) { tb.manager->migrate(move, done, mo); },
        [](const auto& x) { return x.checkpoint.op_id; });
    if (!rep.ok) {
      problem("migration failed: " + rep.error);
      return;
    }
    for (int& h : host) h = other(h);
    out.migrate_ms.push_back(ms(rep.total_us));
  }

  /// SAN checkpoint; consecutive checkpoints alternate blocking and COW.
  void checkpoint() {
    core::Manager::CkptOptions co;
    co.cow = ckpts_taken++ % 2 == 1;
    co.deadlines = deadlines();
    co.retry = retry();
    auto targets = san_targets();
    auto rep = drive<core::Manager::CheckpointReport>(
        "ckpt", "core.Manager::checkpoint",
        [&](auto done) {
          tb.manager->checkpoint(targets, core::CkptMode::SNAPSHOT, done, co);
        },
        [](const auto& x) { return x.op_id; });
    if (!rep.ok) {
      problem("checkpoint failed: " + rep.error);
      return;
    }
    out.ckpt_downtime_ms.push_back(ms(rep.downtime_us));
    out.ckpt_latency_ms.push_back(ms(rep.total_us));
    u64 bytes = 0;
    for (const std::string& name : job.pod_names) {
      Result<std::size_t> sz = tb.cl.san().size_of("ckpt/" + name);
      if (!sz) problem("no committed image for " + name);
      bytes += sz ? sz.value() : 0;
    }
    out.image_mb.push_back(static_cast<double>(bytes) / (1 << 20));
  }

  /// Restart from the last checkpoint: after destroying the pods, or in
  /// place over the running ones.
  void restart() {
    core::Manager::RestartOptions ro;
    ro.deadlines = deadlines();
    ro.retry = retry();
    ro.pipelined = spec.lazy_restart;
    ro.lazy = spec.lazy_restart;
    if (spec.destroy_before_restart) {
      for (std::size_t i = 0; i < job.pod_names.size(); ++i) {
        Probe p(tr, "core.Agent::destroy_pod");
        core::Agent* a = tb.agents[static_cast<std::size_t>(host[i])];
        if (!a->destroy_pod(job.pod_names[i])) {
          problem("destroy_pod failed for " + job.pod_names[i]);
        }
      }
      guest(gap());
    } else {
      ro.replace_existing = true;
    }
    auto targets = san_targets();
    auto rep = drive<core::Manager::RestartReport>(
        "restart", "core.Manager::restart",
        [&](auto done) { tb.manager->restart(targets, {}, done, ro); },
        [](const auto& x) { return x.op_id; });
    if (!rep.ok) {
      problem("restart failed: " + rep.error);
      return;
    }
    out.restart_downtime_ms.push_back(ms(rep.downtime_us));
    out.restart_latency_ms.push_back(ms(rep.total_us));
  }

  /// Crashes the node hosting a seed-chosen pod after a gap, and waits
  /// for the supervisor to detect it and restore the job unattended.
  void kill_and_recover() {
    if (job_exit(tb, job) >= 0) problem("application ended before a kill");
    const int victim_pod =
        static_cast<int>(rng.below(static_cast<u64>(spec.ranks)));
    const std::string victim =
        tb.nodes[static_cast<std::size_t>(
                     host[static_cast<std::size_t>(victim_pod)])]
            ->name();
    const u32 before = tb.supervisor->recoveries();
    const sim::Time kill_at = tb.cl.now() + gap();
    fault::FaultSpec kill;
    kill.kind = fault::FaultKind::NODE_CRASH_AT_TIME;
    kill.node = victim;
    kill.at_us = kill_at;
    fault::injector().arm(kill);
    {
      Probe p(tr, "super.Supervisor[recovery]");
      for (int i = 0; i < 60000; ++i) {
        tb.cl.run_for(kMs);
        if (tb.supervisor->recoveries() > before && !tb.manager->busy()) break;
        if (tb.supervisor->state() == super::Supervisor::State::DEGRADED) {
          break;
        }
      }
    }
    fault::injector().clear();
    const auto& lr = tb.supervisor->last_recovery();
    if (tb.supervisor->recoveries() <= before || !lr.ok) {
      problem("supervisor did not recover the kill of " + victim);
      return;
    }
    out.mttr_ms.push_back(ms(lr.mttr_us));
    out.detect_ms.push_back(ms(lr.detect_us - kill_at));
    // The recovery moved the dead node's pods; follow them.
    for (const core::Manager::Target& t : tb.supervisor->targets()) {
      for (std::size_t i = 0; i < job.pod_names.size(); ++i) {
        if (job.pod_names[i] == t.pod_name) host[i] = tb.agent_index(t.agent);
      }
    }
  }
};

/// Host MB/s of `fn` over `bytes`: repeats until ≥ 40 ms per sample,
/// median of three samples.
template <typename Fn>
double rate_mb_s(HostTracer& tr, const std::string& name, u64 bytes, Fn fn) {
  std::vector<double> rates;
  for (int k = 0; k < 3; ++k) {
    Probe p(tr, name);
    double t0 = host_s();
    u64 reps = 0;
    do {
      fn();
      ++reps;
    } while (host_s() - t0 < 0.04 && reps < 100000);
    double dt = p.stop();
    rates.push_back(static_cast<double>(bytes * reps) / (1 << 20) / dt);
  }
  return median(rates);
}

/// Standalone capture of every live pod (read-only: the engine is idle
/// between run_for calls, so the pods are quiescent).
double capture_rate(Round& r) {
  std::vector<pod::Pod*> pods;
  u64 bytes = 0;
  for (const std::string& name : r.job.pod_names) {
    pod::Pod* p = locate_live(r.tb, name);
    if (p == nullptr) continue;
    pods.push_back(p);
    bytes += p->memory_bytes();
  }
  if (pods.empty() || bytes == 0) return 0;
  return rate_mb_s(r.tr, "ckpt.Standalone::save_processes", bytes, [&] {
    for (pod::Pod* p : pods) {
      std::vector<ckpt::ProcessImage> imgs =
          ckpt::Standalone::save_processes(*p);
      if (imgs.empty()) r.problem("capture returned no processes");
    }
  });
}

/// Replays the byte-path functions on the round's committed SAN images.
void replay_images(Round& r, Replay& rep) {
  std::vector<Bytes> blobs;
  u64 bytes = 0;
  for (const std::string& name : r.job.pod_names) {
    Result<Bytes> b = r.tb.cl.san().read("ckpt/" + name);
    if (!b) {
      r.problem("replay: no committed image for " + name);
      return;
    }
    bytes += b.value().size();
    blobs.push_back(std::move(b.value()));
  }
  std::vector<ckpt::PodImage> images;
  for (const Bytes& b : blobs) {
    Result<ckpt::PodImage> img = ckpt::decode_image(b);
    if (!img) {
      r.problem("replay: committed image does not decode");
      return;
    }
    images.push_back(std::move(img.value()));
  }
  rep.decode_mb_s = rate_mb_s(r.tr, "ckpt.decode_image", bytes, [&] {
    for (const Bytes& b : blobs) {
      if (!ckpt::decode_image(b)) r.problem("replay: decode failed");
    }
  });
  rep.encode_mb_s = rate_mb_s(r.tr, "ckpt.encode_image", bytes, [&] {
    for (const ckpt::PodImage& im : images) {
      if (ckpt::encode_image(im).empty()) r.problem("replay: empty encode");
    }
  });
  {
    // Codec savings on the same images: zero elision plus dedup.
    obs::Counter& zero = obs::metrics().counter("ckpt.codec.zero_saved_bytes");
    obs::Counter& dedup =
        obs::metrics().counter("ckpt.codec.dedup_saved_bytes");
    u64 saved0 = zero.value + dedup.value;
    u64 logical = 0;
    Probe p(r.tr, "ckpt.encode_image[zero+dedup]");
    for (ckpt::PodImage im : images) {
      im.header.codec_flags |= ckpt::kCodecZeroElide | ckpt::kCodecDedup;
      for (const ckpt::ProcessImage& pi : im.processes) {
        for (const auto& [region, data] : pi.regions) logical += data.size();
      }
      (void)ckpt::encode_image(im);
    }
    p.stop();
    u64 saved = zero.value + dedup.value - saved0;
    rep.codec_saved_frac =
        logical == 0 ? 0 : static_cast<double>(saved) / logical;
  }
  rep.crc32_mb_s = rate_mb_s(r.tr, "util.crc32", bytes, [&] {
    u32 acc = 0;
    for (const Bytes& b : blobs) acc ^= crc32(b);
    if (acc == 0xFFFFFFFFu) r.problem("replay: degenerate crc");
  });
  // Written from a kept buffer, as the agents do: the copy into the
  // by-value argument is part of the cost.
  os::VirtualSAN san;
  rep.san_write_mb_s = rate_mb_s(r.tr, "os.VirtualSAN::write", bytes, [&] {
    for (std::size_t i = 0; i < blobs.size(); ++i) {
      if (!san.write("replay/" + std::to_string(i), blobs[i])) {
        r.problem("replay: SAN write failed");
      }
    }
  });
  rep.san_read_mb_s = rate_mb_s(r.tr, "os.VirtualSAN::read", bytes, [&] {
    for (std::size_t i = 0; i < blobs.size(); ++i) {
      if (!san.read("replay/" + std::to_string(i))) {
        r.problem("replay: SAN read failed");
      }
    }
  });
  constexpr std::size_t kChunk = 256 << 10;
  rep.san_read_at_mb_s =
      rate_mb_s(r.tr, "os.VirtualSAN::read_at", bytes, [&] {
        for (std::size_t i = 0; i < blobs.size(); ++i) {
          const std::string path = "replay/" + std::to_string(i);
          for (std::size_t off = 0; off < blobs[i].size(); off += kChunk) {
            if (!san.read_at(path, off, kChunk)) {
              r.problem("replay: SAN read_at failed");
            }
          }
        }
      });
}

/// Critical-path virtual ms per phase over every op of the round.
void attribute_phases(const obs::Ledger& ledger, RoundResult& out) {
  static const std::map<std::string, std::string> kPhase = {
      {"ckpt.suspend", "suspend"},
      {"ckpt.netckpt", "netckpt"},
      {"ckpt.standalone", "standalone"},
      {"ckpt.stream", "stream"},
      {"ckpt.barrier", "barrier"},
      {"ckpt.cowmark", "cowmark"},
      {"restart.connectivity", "connectivity"},
      {"restart.netstate", "netstate"},
      {"restart.standalone", "restore"},
  };
  for (const auto& [span, phase] : kPhase) out.phase_ms[phase] = 0;
  for (const char* p : {"other", "drain_wait", "lazy_wait"}) {
    out.phase_ms[p] = 0;
  }
  for (const obs::LedgerEntry& e : ledger.entries()) {
    // The background legs run after the pods resume: off the downtime
    // path, so they come from the latency beyond downtime.
    double tail = ms(e.latency_us > e.downtime_us
                         ? e.latency_us - e.downtime_us
                         : 0);
    out.phase_ms[e.kind == "ckpt" ? "drain_wait" : "lazy_wait"] += tail;
    if (!e.has_attrib) continue;
    for (const auto& [label, us] : e.attrib.phase_totals()) {
      auto it = kPhase.find(label);
      out.phase_ms[it == kPhase.end() ? "other" : it->second] += ms(us);
    }
  }
}

}  // namespace

const Spec* find_spec(const std::string& name) {
  for (const Spec& s : specs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string RoundResult::virtual_signature() const {
  std::ostringstream o;
  o.precision(17);
  auto list = [&](const char* k, const std::vector<double>& v) {
    o << k << "=";
    for (double x : v) o << x << ",";
    o << ";";
  };
  list("ckpt_downtime", ckpt_downtime_ms);
  list("ckpt_latency", ckpt_latency_ms);
  list("image_mb", image_mb);
  list("restart_downtime", restart_downtime_ms);
  list("restart_latency", restart_latency_ms);
  list("migrate", migrate_ms);
  list("mttr", mttr_ms);
  list("detect", detect_ms);
  o << "job=" << job_virtual_s << ";san_objects=" << san_objects << ";";
  // san_bytes stays out: the supervisor's catalog lines carry op ids,
  // which are process-global, so their length grows with the round.
  for (const auto& [k, v] : phase_ms) o << k << "=" << v << ";";
  for (const auto& [k, v] : counts.counters) {
    // A counter first registered by a later round shows up there as 0.
    if (v != 0) o << k << "=" << v << ";";
  }
  return o.str();
}

Bytes reference_result(const Spec& spec, u64 seed, HostTracer& tr) {
  Probe p(tr, "perfbench.reference");
  Testbed tb(spec.set_nodes);
  apps::JobHandle job = launch(tb, spec, app_inputs(spec, seed));
  {
    Probe g(tr, "os.Cluster::run_for");
    if (run_to_exit(tb, job) != 0) return {};
  }
  Result<Bytes> res = tb.cl.san().read(result_path(spec));
  return res ? res.value() : Bytes{};
}

RoundResult run_round(const Spec& spec, u64 seed, const Bytes& ref,
                      HostTracer& tr, bool replay) {
  RoundResult out;
  // No fault armed by earlier code may leak into this round.
  fault::injector().clear();

  // ---- Set-up: cluster, launch, supervisor, warm-up ----
  const int round_span = tr.begin("perfbench.round");
  Probe setup(tr, "perfbench.setup");
  Testbed tb(2 * spec.set_nodes + spec.kills);
  apps::JobHandle job = [&] {
    Probe p(tr, "apps::launch_mpi_job");
    return launch(tb, spec, app_inputs(spec, seed));
  }();
  Round r{spec, tb, job, tr, out,
          Rng(seed * 0x9E3779B97F4A7C15ull + 0xB3ull), {}};
  for (core::Agent* a : job.hosts()) {
    r.host.push_back(tb.agent_index(a->addr()));
  }
  {
    Probe p(tr, "super.Supervisor::start");
    super::Supervisor::Options so;
    so.heartbeat_us = 20 * kMs;
    so.coalesce_us = 10 * kMs;
    so.recovery_backoff_us = 50 * kMs;
    so.ckpt_interval_us = 0;  // periodic policy off
    so.restart.deadlines = deadlines();
    so.restart.pipelined = spec.lazy_restart;
    so.restart.lazy = spec.lazy_restart;
    std::vector<super::Supervisor::AgentRef> refs;
    for (std::size_t i = 0; i < tb.agents.size(); ++i) {
      refs.push_back({tb.agents[i]->addr(), tb.nodes[i]->name()});
    }
    tb.supervisor = std::make_unique<super::Supervisor>(
        *tb.mgr, *tb.manager, std::move(refs), so, &tb.trace);
    tb.supervisor->start(r.san_targets());
  }
  {
    Probe p(tr, "os.Cluster::run_for");
    tb.cl.run_for(spec.warmup_us);
  }
  out.setup_s = setup.stop();

  // ---- Measured phase ----
  // Counts are diffed against a baseline taken here, so set-up work and
  // earlier rounds never leak into them.
  const obs::MetricsSnapshot base = obs::metrics().snapshot();
  const double t0 = host_s();
  double replay_s = 0;  // excluded from wall_s

  for (int m = 0; m < spec.migrations; ++m) {
    r.guest(r.gap());
    r.migrate();
  }
  // Restarts spread evenly over the checkpoints, each right after one.
  const int per_restart = spec.checkpoints / spec.restarts;
  for (int c = 0; c < spec.checkpoints; ++c) {
    r.guest(r.gap());
    r.checkpoint();
    if ((c + 1) % per_restart == 0) {
      r.guest(r.gap());
      r.restart();
    }
  }
  if (replay) {
    // Capture replay on the live pods, between ops.
    double t = host_s();
    out.replay.capture_mb_s = capture_rate(r);
    replay_s += host_s() - t;
  }
  // The catalog's newest set matches the current placement here, and
  // again after each checkpoint that follows a recovery.
  for (int k = 0; k < spec.kills; ++k) {
    if (k > 0) {
      r.guest(r.gap());
      r.checkpoint();
    }
    r.kill_and_recover();
  }

  int ec;
  {
    Probe p(tr, "os.Cluster::run_for[to completion]");
    ec = run_to_exit(tb, job);
  }
  out.job_virtual_s = static_cast<double>(tb.cl.now()) / sim::kSecond;
  out.wall_s = host_s() - t0 - replay_s;
  out.counts = obs::metrics().snapshot().diff_since(base);
  out.san_bytes = tb.cl.san().total_bytes();
  out.san_objects = tb.cl.san().object_count();

  // ---- Correctness ----
  {
    Probe p(tr, "perfbench.check");
    ++out.attempted;
    if (ec != 0) r.problem("application exit code " + std::to_string(ec));
    ++out.attempted;
    Result<Bytes> res = tb.cl.san().read(result_path(spec));
    if (!res) {
      r.problem("no result object " + result_path(spec));
    } else {
      AppResult got = AppResult::parse(spec, res.value());
      AppResult want = AppResult::parse(spec, ref);
      if (!got.matches(want)) {
        r.problem("result " + got.str() + " differs from the reference " +
                  want.str());
      }
    }
    ++out.attempted;
    std::vector<std::string> bad =
        tools::validate_ops(tb.trace.recorder().spans());
    if (!bad.empty()) r.problem("validate_ops: " + bad.front());
    // One ledger line per op attempt, retries and recoveries included.
    for (const obs::LedgerEntry& e : tb.ledger.entries()) {
      ++out.attempted;
      if (e.outcome != "ok") {
        r.problem(e.kind + " op " + std::to_string(e.op) + " " + e.outcome +
                  ": " + e.error);
      }
    }
  }
  attribute_phases(tb.ledger, out);

  if (replay) replay_images(r, out.replay);
  tr.end(round_span);
  return out;
}

}  // namespace zapc::perfbench
