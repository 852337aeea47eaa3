#include "core/manager.h"

#include <algorithm>
#include <type_traits>

#include "obs/flight.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/vtime.h"
#include "util/log.h"

namespace zapc::core {

Manager::Manager(os::Node& node, Trace* trace)
    : node_(node), trace_(trace) {
  // Touch the failure-handling counters up front so metric exports (bench
  // JSON, postmortems) always carry them, even at zero.
  obs::metrics().counter("mgr.ckpt.retries");
  obs::metrics().counter("mgr.restart.retries");
  obs::metrics().counter("mgr.phase.deadline_expired");
  obs::metrics().counter("ckpt.commit.committed");
  obs::metrics().counter("ckpt.commit.gc_tmp");
  obs::metrics().counter("fault.injected");
  obs::metrics().counter("mgr.hb.received");
  obs::metrics().counter("mgr.progress.received");
  obs::metrics().counter("mgr.health.early_warnings");
  obs::metrics().counter("mgr.ledger.appends");
  obs::metrics().counter("mgr.ledger.attrib_failures");
}

Manager::~Manager() { *alive_ = false; }

void Manager::trace(const std::string& what) {
  if (trace_ != nullptr) trace_->add(node_.now(), "manager", what);
}

void Manager::trace_op(const std::string& what, obs::OpId op,
                       obs::SpanId parent) {
  if (trace_ != nullptr) {
    trace_->add(node_.now(), "manager", what, parent, op);
  }
}

// ---- The coordinated-op lifecycle -------------------------------------------
//
// Checkpoint and restart run the same lifecycle (paper §4): broadcast
// the command, wait for per-pod reports, end the downtime once every pod
// has resumed, wait out an optional background leg (COW drain / lazy
// fill), and on failure abort every agent and retry transient failures
// with a fresh op id.  What differs per kind is data: the tables below,
// plus the command, the checkpoint's continue barrier and the reports.

const Manager::PhaseSpec Manager::kPhases[kPhaseCount] = {
    {"connect", nullptr, &Deadlines::connect_us},
    {"meta_wait", "mgr.ckpt.meta_wait", &Deadlines::meta_us},
    {"done_wait", "mgr.ckpt.done_wait", &Deadlines::done_us},
    {"restart_wait", nullptr, &Deadlines::restart_us},
    {"drain_wait", "mgr.ckpt.drain_wait", &Deadlines::drain_us},
    {"lazy_wait", "mgr.restart.lazy_wait", &Deadlines::lazy_us},
};

const Manager::KindSpec Manager::kKinds[2] = {
    {.kind = "ckpt", .noun = "checkpoint", .root_span = "mgr.ckpt",
     .first = META_WAIT, .done = DONE_WAIT, .background = DRAIN_WAIT,
     .done_closes_health = false,
     .send_trace = "1: send 'checkpoint' to ",
     .done_trace = "4: 'done' received from ",
     .background_start_trace =
         "4b: all pods resumed (downtime over); drains in flight",
     .background_trace = "5: 'drain-done' received from ",
     .bad_done = "bad done report", .bad_background = "bad drain report",
     .done_failure = "agent reported failure for ",
     .background_failure = "agent reported drain failure for ",
     .fail_tag = "ckpt_fail", .ops_metric = "mgr.checkpoints",
     .failures_metric = "mgr.checkpoint_failures",
     .retries_metric = "mgr.ckpt.retries",
     .total_metric = "mgr.ckpt.total_us",
     .downtime_metric = "mgr.ckpt.downtime_us"},
    {.kind = "restart", .noun = "restart", .root_span = "mgr.restart",
     .first = RESTART_WAIT, .done = RESTART_WAIT, .background = LAZY_WAIT,
     .done_closes_health = true,
     .send_trace = "1: send 'restart' + meta-data to ",
     .done_trace = "2: 'done' received from ",
     .background_start_trace =
         "3b: all pods resumed (downtime over); lazy fills in flight",
     .background_trace = "6: 'lazy-done' received from ",
     .bad_done = "bad restart report", .bad_background = "bad lazy report",
     .done_failure = "agent reported restart failure for ",
     .background_failure = "agent reported lazy-restore failure for ",
     .fail_tag = "restart_fail", .ops_metric = "mgr.restarts",
     .failures_metric = "mgr.restart_failures",
     .retries_metric = "mgr.restart.retries",
     .total_metric = "mgr.restart.total_us",
     .downtime_metric = "mgr.restart.downtime_us"},
};

// ---- Op ledger (DESIGN.md §10) ----------------------------------------------

void Manager::ledger_attribute(obs::LedgerEntry& e) {
  obs::SpanRecorder* r = rec();
  if (r == nullptr) return;  // tracing off: no tree to attribute
  auto attrib = obs::attribute_op(r->spans(), e.op);
  if (!attrib.is_ok()) {
    obs::metrics().counter("mgr.ledger.attrib_failures").inc();
    return;
  }
  e.attrib = std::move(attrib).value();
  e.has_attrib = true;
}

void Manager::ledger(const Op& o, const std::string& outcome,
                     const std::string& error, bool transient,
                     bool will_retry) {
  if (ledger_ == nullptr) return;
  obs::LedgerEntry e;
  e.op = o.op_id;
  e.kind = kKinds[o.in.kind].kind;
  e.outcome = outcome;
  e.error = error;
  e.transient = transient;
  e.will_retry = will_retry;
  e.attempt = o.attempt;
  e.start_us = o.t_start;
  e.end_us = node_.now();
  // Downtime ends when every pod has resumed; a COW drain or a lazy fill
  // keeps the op's latency running past it, so the two fields diverge
  // (DESIGN.md §11, §13).  On a failure before all pods resumed, both
  // collapse to the abort instant.
  const sim::Time dt_end =
      o.t_downtime_end != 0 ? o.t_downtime_end : node_.now();
  e.downtime_us = dt_end - o.t_start;
  e.latency_us = node_.now() - o.t_start;
  // Slowest pod per phase: the ledger's no-tracing attribution floor.
  auto slowest = [&e](const char* name, u64 us) {
    if (us > 0) e.phase_us[name] = std::max(e.phase_us[name], obs::Time{us});
  };
  for (const Peer& p : o.peers) {
    if (!p.done_received) continue;
    e.pods++;
    if (o.in.kind == RESTART) {
      slowest("connectivity", p.restart.connectivity_us);
      slowest("netstate", p.restart.net_restore_us);
      slowest("standalone", p.restart.standalone_us);
      slowest("fetch", p.restart.fetch_us);
      if (p.bg_received) {
        slowest("lazy", p.lazy.lazy_us);
        e.lazy_faults += p.lazy.faults;
        e.lazy_bytes += p.lazy.lazy_bytes;
      }
      continue;
    }
    e.image_bytes =
        std::max({e.image_bytes, p.ckpt.image_bytes, p.drain.image_bytes});
    e.network_bytes = std::max(e.network_bytes, p.ckpt.network_bytes);
    e.logical_bytes = std::max(e.logical_bytes, p.ckpt.logical_bytes);
    slowest("suspend", p.ckpt.suspend_us);
    slowest("netckpt", p.ckpt.netckpt_us);
    slowest("standalone", p.ckpt.standalone_us);
    slowest("barrier", p.ckpt.barrier_us);
    slowest("cowmark", p.ckpt.cowmark_us);
    slowest("drain", p.drain.drain_us);
    if (p.bg_received) {
      // Worst-case QoS picture across pods: most throttled/contended
      // drain time and the lowest bandwidth grant — the inputs
      // zapc-report uses to attribute a slow drain.
      e.drain_throttled_us =
          std::max(e.drain_throttled_us, obs::Time{p.drain.throttled_us});
      e.drain_contended_us =
          std::max(e.drain_contended_us, obs::Time{p.drain.contended_us});
      if (p.drain.granted_bps != 0 &&
          (e.drain_granted_bps == 0 ||
           p.drain.granted_bps < e.drain_granted_bps)) {
        e.drain_granted_bps = p.drain.granted_bps;
      }
    }
  }
  obs::Straggler s = health_.straggler(o.op_id);
  e.straggler_pod = s.pod;
  e.straggler_phase = s.phase;
  e.straggler_lag_us = s.lag_us;
  e.trigger = o.in.kind == CKPT ? o.in.copts.trigger : o.in.ropts.trigger;
  // MTTR only on the restart attempt that actually restored the
  // application — and it ends when the pods resume, not when the lazy
  // tail drains.
  if (o.in.kind == RESTART && o.in.ropts.detect_us != 0 && outcome == "ok") {
    e.mttr_us = dt_end - o.in.ropts.detect_us;
  }
  ledger_attribute(e);
  obs::metrics().counter("mgr.ledger.appends").inc();
  if (Status st = ledger_->append(e); !st) {
    ZLOG_WARN("manager: ledger append failed: " << st.to_string());
  }
}

sim::Time Manager::retry_delay(const RetryPolicy& p, u32 attempt) {
  double d = static_cast<double>(p.backoff_us);
  for (u32 i = 1; i < attempt; ++i) d *= p.backoff_factor;
  d *= 1.0 + p.jitter * (2.0 * retry_rng_.uniform() - 1.0);
  return d < 1.0 ? 1 : static_cast<sim::Time>(d);
}

// ---- Introspection plane (DESIGN.md §9) -------------------------------------

std::string Manager::health_json(obs::OpId op) const {
  return health_.snapshot(node_.now(), op).dump(2);
}

void Manager::serve_status(u16 port) {
  status_server_ = std::make_unique<MsgServer>(
      node_.host_stack(), port, [this](std::unique_ptr<MsgChannel> ch) {
        status_conns_.push_back(std::move(ch));
        MsgChannel* raw = status_conns_.back().get();
        raw->set_on_msg(
            [this, raw, alive = std::weak_ptr<bool>(alive_)](Bytes msg) {
              if (auto a = alive.lock(); a && *a) {
                status_on_msg(raw, std::move(msg));
              }
            });
        raw->set_on_closed([this, raw, alive = std::weak_ptr<bool>(alive_)] {
          if (auto a = alive.lock(); !a || !*a) return;
          for (auto it = status_conns_.begin(); it != status_conns_.end();
               ++it) {
            if (it->get() == raw) {
              status_conns_.erase(it);
              break;
            }
          }
        });
      });
}

void Manager::status_on_msg(MsgChannel* ch, Bytes msg) {
  auto type = peek_type(msg);
  if (!type || type.value() != MsgType::HEALTH_QUERY) return;
  auto q = decode_health_query(msg);
  if (!q) return;
  obs::OpId op =
      q.value().op_id != 0 ? q.value().op_id : health_.latest_op();
  HealthSnapshotMsg reply;
  reply.op_id = op;
  obs::Json doc = health_.snapshot(node_.now(), op);
  if (status_extra_ != nullptr) doc["supervisor"] = status_extra_();
  reply.json = doc.dump();
  (void)ch->send(encode_health_snapshot(reply));
}

void Manager::abort_current(const std::string& why) {
  for (OpKind kind : {CKPT, RESTART}) {
    if (Op* o = ops_[kind].get(); o != nullptr && !o->finished) {
      return fail(*o, why, /*transient=*/false);
    }
  }
}

void Manager::health_drain_warnings(obs::OpId op, obs::SpanId root) {
  for (const obs::HealthWarning& w : health_.take_warnings()) {
    obs::metrics().counter("mgr.health.early_warnings").inc();
    std::string what = "health.warn pod=" + w.pod + " phase=" + w.phase;
    if (w.what == "lag") {
      what += " lag=" + obs::vtime_us(w.lag_us);
    } else {
      what += " hb_age=" + obs::vtime_us(w.age_us);
    }
    trace_op(what, op, root);
  }
}

// ---- Coordinated ops --------------------------------------------------------

void Manager::checkpoint(std::vector<Target> targets, CkptMode mode,
                         CheckpointDoneFn done, CkptOptions opts) {
  OpInputs in;
  in.kind = CKPT;
  in.targets = std::move(targets);
  in.mode = mode;
  in.copts = std::move(opts);
  in.ckpt_fn = std::move(done);
  if (ops_[CKPT] != nullptr) return report_failure(in, "manager busy", 0, 1);
  begin_attempt(std::move(in), 1);
}

void Manager::restart(std::vector<Target> targets,
                      std::map<std::string, ckpt::NetMeta> metas,
                      RestartDoneFn done, RestartOptions opts) {
  OpInputs in;
  in.kind = RESTART;
  in.ropts = std::move(opts);
  in.restart_fn = std::move(done);
  if (ops_[RESTART] != nullptr) return report_failure(in, "manager busy", 0, 1);
  if (metas.empty()) metas = last_metas_;

  // Derive the restart schedule from the meta-data tables.  Failures
  // here are configuration errors, never retried.
  std::vector<ckpt::NetMeta> meta_list;
  for (auto& t : targets) {
    auto it = metas.find(t.pod_name);
    if (it == metas.end()) {
      return report_failure(in, "no meta-data for pod " + t.pod_name, 0, 1);
    }
    meta_list.push_back(it->second);
  }
  auto plan = build_restart_plan(meta_list);
  if (!plan) {
    return report_failure(in, "schedule: " + plan.status().to_string(), 0,
                          1);
  }
  if (last_redirect_) {
    // The checkpoint shipped each covered connection's send queue to the
    // agent receiving its peer's stream; mark those entries so the
    // restore waits for the records.  A record for pod X's connection is
    // produced only if the sender (the peer) knew X's destination agent,
    // i.e. X's vip was in the advertised map.
    for (auto& [vip, meta] : plan.value().pod_meta) {
      if (last_redirect_covered_.count(vip) == 0) continue;
      for (auto& e : meta.entries) {
        if ((e.state == ckpt::ConnState::FULL_DUPLEX ||
             e.state == ckpt::ConnState::HALF_DUPLEX) &&
            last_redirect_covered_.count(e.target.ip) > 0) {
          e.redirect_expected = true;
        }
      }
    }
  }

  // New placement: each pod's virtual address now resolves to the real
  // address of the agent restarting it.
  for (std::size_t i = 0; i < targets.size(); ++i) {
    in.locations.emplace_back(meta_list[i].pod_vip, targets[i].agent.ip);
    in.peer_metas.push_back(plan.value().pod_meta[meta_list[i].pod_vip]);
  }
  in.targets = std::move(targets);
  begin_attempt(std::move(in), 1);
}

void Manager::report_failure(OpInputs& in, std::string error, obs::OpId op,
                             u32 attempts) {
  auto deliver = [&](auto report, const auto& fn) {
    report.error = std::move(error);
    report.op_id = op;
    report.attempts = attempts;
    fn(std::move(report));
  };
  if (in.kind == CKPT) return deliver(CheckpointReport{}, in.ckpt_fn);
  deliver(RestartReport{}, in.restart_fn);
}

void Manager::begin_attempt(OpInputs in, u32 attempt) {
  const KindSpec& spec = kKinds[in.kind];
  Op& o = *(ops_[in.kind] = std::make_unique<Op>());
  o.in = std::move(in);
  o.attempt = attempt;
  o.t_start = node_.now();
  o.op_id = obs::next_op_id();
  obs::metrics().counter("mgr.ops_started").inc();
  if (obs::SpanRecorder* r = rec()) {
    o.span_root =
        r->begin_at(o.t_start, spec.root_span, "manager", 0, o.op_id);
    if (const char* span = kPhases[spec.first].span) {
      o.spans[spec.first] =
          r->begin_at(o.t_start, span, "manager", o.span_root, o.op_id);
    }
    // The restart schedule: record each connection's discard/redirect
    // decision so the offline analyzer can check recv >= acked on the
    // restored pairs without the images.
    for (const ckpt::NetMeta& meta : o.in.peer_metas) {
      for (const auto& e : meta.entries) {
        if (e.state != ckpt::ConnState::FULL_DUPLEX &&
            e.state != ckpt::ConnState::HALF_DUPLEX) {
          continue;
        }
        r->event_at(o.t_start, "manager",
                    "sched.conn vip=" + meta.pod_vip.to_string() + " peer=" +
                        e.target.ip.to_string() +
                        " discard=" + std::to_string(e.discard_send) +
                        (e.redirect_expected ? " redirect" : ""),
                    o.span_root, o.op_id);
      }
    }
  }
  if (o.in.heartbeat_us() > 0) {
    // Stale = three missed beacons; a slow node's dilated cadence still
    // fits (it reports, just late), a dead one does not.
    health_.set_policy(obs::ClusterHealth::Policy{
        o.in.warn_lag_us(), 3 * o.in.heartbeat_us()});
    std::vector<std::string> pods;
    for (const Target& t : o.in.targets) pods.push_back(t.pod_name);
    health_.op_begin(o.op_id, spec.kind, o.t_start, pods);
  }
  start(o);
}

Manager::PeerAgents Manager::redirect_map(const Op& o) {
  // For the redirect optimization, every agent needs to know which agent
  // receives each peer pod's checkpoint stream: (vip -> endpoint) pairs
  // derived from targets with agent:// URIs.  The vip comes from the
  // target itself when supplied, otherwise from the previous checkpoint's
  // meta-data.  Pods whose vip cannot be determined are simply not
  // covered — their connections fall back to the normal send-queue
  // resend.
  PeerAgents peer_agents;
  last_redirect_covered_.clear();
  if (!o.in.copts.redirect_send_queues || o.in.mode != CkptMode::MIGRATE) {
    return peer_agents;
  }
  for (const Target& t : o.in.targets) {
    net::IpAddr vip = t.vip;
    if (vip.is_any()) {
      auto it = last_metas_.find(t.pod_name);
      if (it != last_metas_.end()) vip = it->second.pod_vip;
    }
    if (vip.is_any()) continue;
    auto uri = parse_uri(t.uri);
    if (!uri || uri.value().scheme != "agent") continue;
    peer_agents.emplace_back(vip, uri.value().endpoint);
    last_redirect_covered_.insert(vip);
  }
  return peer_agents;
}

Bytes Manager::command(const Op& o, std::size_t i,
                       const PeerAgents& peer_agents) {
  const Target& t = o.peers[i].target;
  if (o.in.kind == RESTART) {
    const RestartOptions& opts = o.in.ropts;
    return encode_restart_cmd(RestartCmd{
        .op_id = o.op_id, .parent_span = o.span_root, .pod_name = t.pod_name,
        .source_uri = t.uri, .meta = o.in.peer_metas[i],
        .locations = o.in.locations,
        .stream_wait_us = opts.deadlines.agent_stream_us,
        .heartbeat_us = opts.heartbeat_us,
        .replace_existing = opts.replace_existing,
        .pipelined = opts.pipelined, .lazy = opts.lazy,
        .lazy_hot_permille = opts.lazy_hot_permille,
        .lazy_wait_us = opts.deadlines.lazy_us});
  }
  const CkptOptions& opts = o.in.copts;
  return encode_checkpoint_cmd(CheckpointCmd{
      .op_id = o.op_id, .parent_span = o.span_root, .pod_name = t.pod_name,
      .dest_uri = t.uri, .mode = o.in.mode,
      .redirect_send_queues = opts.redirect_send_queues,
      .fs_snapshot = opts.fs_snapshot, .peer_agents = peer_agents,
      .incremental = opts.incremental, .chain_cap = opts.chain_cap,
      .codec_flags = opts.codec_flags, .pipelined = opts.pipelined_stream,
      .barrier_wait_us = opts.deadlines.agent_barrier_us,
      .heartbeat_us = opts.heartbeat_us, .cow = opts.cow,
      .drain_wait_us = opts.deadlines.drain_us});
}

void Manager::start(Op& o) {
  const KindSpec& spec = kKinds[o.in.kind];
  const PeerAgents peer_agents =
      o.in.kind == CKPT ? redirect_map(o) : PeerAgents{};
  trace_op(spec.send_trace + std::to_string(o.in.targets.size()) + " agents",
           o.op_id, o.span_root);
  o.peers.reserve(o.in.targets.size());
  for (const Target& t : o.in.targets) {
    Peer peer;
    peer.target = t;
    peer.ch = connect_channel(node_.host_stack(), t.agent);
    o.peers.push_back(std::move(peer));
  }
  for (std::size_t i = 0; i < o.peers.size(); ++i) {
    Peer& peer = o.peers[i];
    if (peer.ch == nullptr) {
      return fail(o, "cannot connect to agent " + peer.target.agent.to_string(),
                  /*transient=*/true);
    }
    peer.ch->set_on_msg([this, kind = o.in.kind, i,
                         alive = std::weak_ptr<bool>(alive_)](Bytes msg) {
      if (auto a = alive.lock(); a && *a) on_msg(kind, i, std::move(msg));
    });
    peer.ch->set_on_closed(
        [this, kind = o.in.kind, i, alive = std::weak_ptr<bool>(alive_)] {
          if (auto a = alive.lock(); a && *a) on_closed(kind, i);
        });
    (void)peer.ch->send(command(o, i, peer_agents));
  }
  // Both watchdogs run from invocation: the connect deadline looks only
  // at channel establishment, the first phase's at its reports.
  arm_deadline(o, CONNECT);
  arm_deadline(o, spec.first);
}

void Manager::arm_deadline(Op& o, Phase phase) {
  // An expiry with nothing actually stalled (the phase completed but the
  // cancel raced the event) is a no-op.
  const sim::Time limit = o.in.deadlines().*kPhases[phase].limit;
  if (limit == 0) return;
  o.deadline(phase) = node_.engine().schedule(
      limit, [this, alive = std::weak_ptr<bool>(alive_), kind = o.in.kind,
              id = o.op_id, phase] {
        if (auto a = alive.lock(); !a || !*a) return;
        Op* op = ops_[kind].get();
        if (op == nullptr || op->op_id != id) return;
        op->deadline(phase) = 0;
        deadline_expired(*op, phase);
      });
}

void Manager::on_msg(OpKind kind, std::size_t idx, Bytes msg) {
  Op* o = ops_[kind].get();
  if (o == nullptr || o->finished) return;
  Peer& peer = o->peers[idx];
  auto type = peek_type(msg);
  if (!type) return;

  switch (type.value()) {
    case MsgType::META_REPORT: {
      if (kind != CKPT) break;
      auto m = decode_meta_report(msg);
      if (!m) return fail(*o, "bad meta report", /*transient=*/false);
      peer.meta_received = true;
      o->report.metas[m.value().pod_name] = m.value().meta;
      o->report.max_net_ckpt_us =
          std::max(o->report.max_net_ckpt_us, m.value().net_ckpt_us);
      trace_op("2: meta-data received from " + peer.target.pod_name,
               o->op_id, o->spans[META_WAIT]);
      maybe_continue(*o);
      break;
    }
    case MsgType::CKPT_DONE:
      if (kind == CKPT) on_report(*o, peer, decode_ckpt_done(msg), peer.ckpt);
      break;
    case MsgType::DRAIN_DONE:
      if (kind == CKPT) on_report(*o, peer, decode_drain_done(msg), peer.drain);
      break;
    case MsgType::RESTART_DONE:
      if (kind == RESTART) {
        on_report(*o, peer, decode_restart_done(msg), peer.restart);
      }
      break;
    case MsgType::LAZY_DONE:
      if (kind == RESTART) {
        on_report(*o, peer, decode_lazy_done(msg), peer.lazy);
      }
      break;
    case MsgType::HEARTBEAT: {
      auto m = decode_heartbeat(msg);
      if (!m) break;
      obs::metrics().counter("mgr.hb.received").inc();
      health_.heartbeat(o->op_id, m.value().pod_name, m.value().phase,
                        node_.now());
      health_drain_warnings(o->op_id, o->span_root);
      break;
    }
    case MsgType::PROGRESS: {
      auto m = decode_progress(msg);
      if (!m) break;
      obs::metrics().counter("mgr.progress.received").inc();
      const ProgressMsg& p = m.value();
      health_.progress(o->op_id, p.pod_name, p.phase, node_.now(),
                       p.bytes_done, p.bytes_expected, p.throughput_bps,
                       p.eta_us);
      health_drain_warnings(o->op_id, o->span_root);
      break;
    }
    default:
      break;
  }
}

template <class Report>
void Manager::on_report(Op& o, Peer& peer, Result<Report> m, Report& slot) {
  constexpr bool background =
      std::is_same_v<Report, DrainDone> || std::is_same_v<Report, LazyDone>;
  const KindSpec& spec = kKinds[o.in.kind];
  if (!m) {
    return fail(o, background ? spec.bad_background : spec.bad_done,
                /*transient=*/false);
  }
  slot = std::move(m).value();
  if constexpr (background) {
    peer.bg_received = true;
  } else {
    peer.done_received = true;
    peer.bg_pending = o.in.kind == CKPT ? peer.ckpt.drain_pending
                                        : peer.restart.lazy_pending;
  }
  if (background || spec.done_closes_health || !peer.bg_pending) {
    health_.pod_done(o.op_id, slot.pod_name, node_.now());
  }
  if (!slot.ok) {
    return fail(o,
                (background ? spec.background_failure : spec.done_failure) +
                    slot.pod_name + ": " + slot.error,
                slot.transient);
  }
  // A done report traces under its phase's wait span, or under the root
  // when the phase has none.
  const obs::SpanId parent =
      background ? o.spans[spec.background]
      : kPhases[spec.done].span != nullptr ? o.spans[spec.done]
                                              : o.span_root;
  trace_op((background ? spec.background_trace : spec.done_trace) +
               peer.target.pod_name,
           o.op_id, parent);
  maybe_finish(o);
}

void Manager::on_closed(OpKind kind, std::size_t idx) {
  Op* o = ops_[kind].get();
  if (o == nullptr || o->finished) return;
  fail(*o, "lost connection to agent of pod " + o->peers[idx].target.pod_name,
       /*transient=*/true);
}

void Manager::maybe_continue(Op& o) {
  if (o.continued) return;
  for (const Peer& p : o.peers) {
    if (!p.meta_received) return;
  }
  // The single synchronization point (paper §4, Figure 2 "sync").
  o.continued = true;
  o.t_sync = node_.now();
  cancel_deadlines(o);  // connect + meta phases are over
  ContinueMsg cont;
  cont.op_id = o.op_id;
  if (obs::SpanRecorder* r = rec()) {
    r->end_at(o.t_sync, o.spans[META_WAIT]);
    o.spans[DONE_WAIT] =
        r->begin_at(o.t_sync, kPhases[DONE_WAIT].span, "manager",
                    o.span_root, o.op_id);
    // The barrier decision itself: agents parent their resume under it,
    // so the causal tree shows continue → unblock → first retransmit.
    cont.continue_event = r->event_at(o.t_sync, "manager", "mgr.continue",
                                      o.span_root, o.op_id);
  }
  trace_op("3: all meta-data in; send 'continue' to agents (sync point)",
           o.op_id, o.span_root);
  for (Peer& p : o.peers) {
    (void)p.ch->send(encode_continue(cont));
  }
  arm_deadline(o, DONE_WAIT);
}

void Manager::maybe_finish(Op& o) {
  const KindSpec& spec = kKinds[o.in.kind];
  for (const Peer& p : o.peers) {
    if (!p.done_received) return;
  }
  auto background_pending = [&o] {
    return std::ranges::any_of(
        o.peers, [](const Peer& p) { return p.bg_pending && !p.bg_received; });
  };
  // Every pod has reported done — they are all resumed, so the
  // application's downtime ends HERE, even if background legs are still
  // in flight (DESIGN.md §11, §13).  Record the instant exactly once;
  // later background reports re-enter this function with it already set.
  if (o.t_downtime_end == 0) {
    o.t_downtime_end = node_.now();
    cancel_deadlines(o);  // the done phase is over
    if (obs::SpanRecorder* r = rec()) {
      r->end_at(node_.now(), o.spans[spec.done]);
    }
    if (background_pending()) {
      trace_op(spec.background_start_trace, o.op_id, o.span_root);
      if (obs::SpanRecorder* r = rec()) {
        o.spans[spec.background] =
            r->begin_at(node_.now(), kPhases[spec.background].span,
                        "manager", o.span_root, o.op_id);
      }
      arm_deadline(o, spec.background);
    }
  }
  if (background_pending()) return;
  o.finished = true;
  cancel_deadlines(o);
  health_.op_end(o.op_id, node_.now(), /*ok=*/true);
  const sim::Time total_us = node_.now() - o.t_start;
  const sim::Time downtime_us = o.t_downtime_end - o.t_start;
  if (obs::SpanRecorder* r = rec()) {
    r->end_at(node_.now(), o.spans[spec.background]);
    r->end_at(node_.now(), o.span_root);
  }
  obs::metrics().counter(spec.ops_metric).inc();
  obs::metrics().histogram(spec.total_metric).observe(total_us);
  obs::metrics().histogram(spec.downtime_metric).observe(downtime_us);
  trace_op(std::string(spec.noun) + " complete in " +
               std::to_string(total_us) + "us (downtime " +
               std::to_string(downtime_us) + "us)",
           o.op_id, o.span_root);
  ledger(o, "ok", "", /*transient=*/false, /*will_retry=*/false);
  if (o.in.kind == RESTART) {
    RestartReport report;
    report.ok = true;
    report.op_id = o.op_id;
    report.attempts = o.attempt;
    report.total_us = total_us;
    report.downtime_us = downtime_us;
    for (const Peer& p : o.peers) {
      report.agents.push_back(p.restart);
      report.max_connectivity_us =
          std::max(report.max_connectivity_us, p.restart.connectivity_us);
      report.max_net_restore_us =
          std::max(report.max_net_restore_us, p.restart.net_restore_us);
      if (p.bg_received) {
        report.max_lazy_us = std::max(report.max_lazy_us, p.lazy.lazy_us);
        report.lazy_faults += p.lazy.faults;
        report.lazy_bytes += p.lazy.lazy_bytes;
      }
    }
    RestartDoneFn fn = std::move(o.in.restart_fn);
    ops_[RESTART].reset();
    return fn(std::move(report));
  }
  CheckpointReport report = std::move(o.report);
  report.ok = true;
  report.op_id = o.op_id;
  report.attempts = o.attempt;
  report.total_us = total_us;
  report.downtime_us = downtime_us;
  report.sync_us = o.t_sync - o.t_start;
  for (const Peer& p : o.peers) {
    report.agents.push_back(p.ckpt);
    report.max_image_bytes = std::max(
        {report.max_image_bytes, p.ckpt.image_bytes, p.drain.image_bytes});
    report.max_network_bytes =
        std::max(report.max_network_bytes, p.ckpt.network_bytes);
    report.max_drain_us = std::max(report.max_drain_us, p.drain.drain_us);
    report.max_dirtied_bytes =
        std::max(report.max_dirtied_bytes, p.drain.dirtied_bytes);
  }
  obs::metrics().histogram("mgr.ckpt.sync_wait_us").observe(report.sync_us);
  last_metas_ = report.metas;
  last_redirect_ =
      o.in.copts.redirect_send_queues && o.in.mode == CkptMode::MIGRATE;
  CheckpointDoneFn fn = std::move(o.in.ckpt_fn);
  const bool cataloged =
      o.in.mode == CkptMode::SNAPSHOT && commit_fn_ != nullptr;
  std::vector<Target> targets = std::move(o.in.targets);
  ops_[CKPT].reset();
  // Commit hook after the op state is torn down: the supervisor may
  // react by scheduling the next op immediately.
  if (cataloged) commit_fn_(report, targets);
  fn(std::move(report));
}

void Manager::cancel_deadlines(Op& o) {
  for (sim::EventId* id : {&o.connect_deadline, &o.phase_deadline}) {
    if (*id != 0) {
      (void)node_.engine().cancel(*id);
      *id = 0;
    }
  }
}

void Manager::deadline_expired(Op& o, Phase phase) {
  if (o.finished) return;
  std::string stalled;
  for (const Peer& p : o.peers) {
    const bool waiting =
        phase == CONNECT     ? p.ch == nullptr || !p.ch->established()
        : phase == META_WAIT ? !p.meta_received
        : phase == DRAIN_WAIT || phase == LAZY_WAIT
            ? p.done_received && p.bg_pending && !p.bg_received
            : !p.done_received;
    if (!waiting) continue;
    if (!stalled.empty()) stalled += ",";
    stalled += p.target.pod_name + "@" + p.target.agent.to_string();
    // With the introspection plane on, say where the stalled pod last
    // was — a deadline with an attributed phase beats a blind timeout.
    if (const obs::PodHealth* ph = health_.pod(o.op_id, p.target.pod_name);
        ph != nullptr && ph->beacons > 0) {
      stalled += "(phase=" + ph->phase + " hb_age=" +
                 obs::vtime_us(node_.now() - ph->last_seen_us) + ")";
    }
  }
  if (stalled.empty()) return;
  obs::metrics().counter("mgr.phase.deadline_expired").inc();
  fail(o,
       std::string("phase deadline expired: phase=") +
           kPhases[phase].name + " stalled=" + stalled,
       /*transient=*/true);
}

void Manager::fail(Op& o, std::string why, bool transient) {
  if (o.finished) return;
  const KindSpec& spec = kKinds[o.in.kind];
  o.finished = true;
  cancel_deadlines(o);
  health_.op_end(o.op_id, node_.now(), /*ok=*/false);
  ZLOG_WARN("manager: " << spec.noun << " failed: " << why);
  obs::dump_op_failure(rec(), spec.fail_tag, o.op_id, "manager", why,
                       node_.now());
  if (obs::SpanRecorder* r = rec()) {
    for (obs::SpanId span : o.spans) r->end_at(node_.now(), span);
    r->end_at(node_.now(), o.span_root);
  }
  obs::metrics().counter(spec.failures_metric).inc();
  trace_op(std::string(spec.noun) + " ABORTED: " + why, o.op_id, o.span_root);
  // Agents resume a checkpointed pod in place, and tear down a pod they
  // already (or partially) restored, so a failed coordinated restart
  // never leaves half the application running.
  for (Peer& p : o.peers) {
    if (p.ch != nullptr && p.ch->open()) {
      (void)p.ch->send(encode_abort(AbortMsg{o.op_id, why}));
    }
  }
  // The commit protocol stages every SAN image at `<path>.tmp` and only
  // renames it into place after the continue barrier, so after an
  // aborted checkpoint the temp — if the agent got that far — is the only
  // debris.
  for (const Peer& p : o.peers) {
    if (o.in.kind != CKPT || p.target.uri.rfind("san://", 0) != 0) continue;
    std::string tmp = p.target.uri.substr(6) + ".tmp";
    if (node_.san().remove(tmp).is_ok()) {
      obs::metrics().counter("ckpt.commit.gc_tmp").inc();
      trace_op("gc half-written image " + tmp, o.op_id, o.span_root);
    }
  }

  // After the abort teardown every op is safe to re-run from scratch,
  // except a MIGRATE past the sync point: its agents may already have
  // destroyed the source pods at commit.
  const OpKind kind = o.in.kind;
  const bool retryable =
      transient && o.attempt <= o.in.retry().max_retries &&
      !(kind == CKPT && o.in.mode == CkptMode::MIGRATE && o.continued);
  // Aborted attempts get their ledger line too — retries mint a fresh
  // op id, so every attempt is its own row in the run history.
  ledger(o, "aborted", why, transient, retryable);
  if (retryable) {
    const u32 next = o.attempt + 1;
    const sim::Time delay = retry_delay(o.in.retry(), o.attempt);
    obs::metrics().counter(spec.retries_metric).inc();
    trace("retrying " + std::string(spec.noun) + " in " +
          std::to_string(delay) + "us (attempt " + std::to_string(next) +
          ")");
    node_.engine().schedule(
        delay, [this, alive = std::weak_ptr<bool>(alive_),
                in = std::move(o.in), next]() mutable {
          if (auto a = alive.lock(); !a || !*a) return;
          if (ops_[in.kind] != nullptr) {
            return report_failure(in,
                                  std::string("manager busy at ") +
                                      kKinds[in.kind].noun + " retry",
                                  0, next);
          }
          begin_attempt(std::move(in), next);
        });
    ops_[kind].reset();
    return;
  }
  OpInputs in = std::move(o.in);
  const obs::OpId op_id = o.op_id;
  const u32 attempt = o.attempt;
  ops_[kind].reset();
  report_failure(in, std::move(why), op_id, attempt);
}

// ---- Migration -------------------------------------------------------------------

void Manager::migrate(std::vector<MigrateTarget> targets, MigrateDoneFn done,
                      MigrateOptions opts) {
  std::vector<Target> ckpt_targets;
  std::vector<Target> restart_targets;
  for (const MigrateTarget& t : targets) {
    std::string tag = t.pod_name + "-mig";
    ckpt_targets.push_back(Target{
        t.from_agent, t.pod_name,
        "agent://" + t.to_agent.ip.to_string() + ":" +
            std::to_string(t.to_agent.port) + "/" + tag,
        t.vip});
    restart_targets.push_back(
        Target{t.to_agent, t.pod_name, "stream://" + tag});
  }

  sim::Time t0 = node_.now();
  auto done_ptr = std::make_shared<MigrateDoneFn>(std::move(done));
  checkpoint(
      std::move(ckpt_targets), CkptMode::MIGRATE,
      [this, restart_targets = std::move(restart_targets), done_ptr, t0,
       opts](CheckpointReport cr) {
        if (!cr.ok) {
          MigrateReport r;
          r.error = "checkpoint: " + cr.error;
          r.checkpoint = std::move(cr);
          (*done_ptr)(std::move(r));
          return;
        }
        restart(restart_targets, {},
                [this, done_ptr, t0, cr = std::move(cr)](RestartReport rr) {
                  MigrateReport r;
                  r.ok = rr.ok;
                  if (!rr.ok) r.error = "restart: " + rr.error;
                  r.checkpoint = cr;
                  r.restart = std::move(rr);
                  r.total_us = node_.now() - t0;
                  (*done_ptr)(std::move(r));
                },
                RestartOptions{.deadlines = opts.deadlines,
                               .retry = opts.retry});
      },
      CkptOptions{.redirect_send_queues = true,
                  .codec_flags = opts.codec_flags,
                  .pipelined_stream = opts.pipelined_stream,
                  .deadlines = opts.deadlines,
                  .retry = opts.retry});
}

}  // namespace zapc::core
