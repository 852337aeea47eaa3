#include "tools/trace_analysis.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>

#include "obs/json.h"
#include "obs/vtime.h"

namespace zapc::tools {
namespace {

/// Value of `key=` inside an event text ("" when absent).
std::string field(const std::string& text, const std::string& key) {
  const std::string needle = " " + key + "=";
  auto pos = text.find(needle);
  if (pos == std::string::npos) return "";
  pos += needle.size();
  auto end = text.find(' ', pos);
  return text.substr(pos, end == std::string::npos ? std::string::npos
                                                   : end - pos);
}

u64 field_u64(const std::string& text, const std::string& key) {
  std::string v = field(text, key);
  return v.empty() ? 0 : std::strtoull(v.c_str(), nullptr, 10);
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

Result<TraceDoc> load_trace_doc(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status(Err::IO, "cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();

  auto parsed = obs::json_parse(buf.str());
  if (!parsed) {
    return Status(Err::PROTO, path + ": " + parsed.status().to_string());
  }
  const obs::Json& doc = parsed.value();

  TraceDoc out;
  out.path = path;
  const obs::Json* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_str()) {
    return Status(Err::PROTO, path + ": missing schema field");
  }
  out.schema = schema->str();
  if (out.schema == obs::kSchemaVersion) {
    if (const obs::Json* n = doc.find("name"); n != nullptr && n->is_str()) {
      out.name = n->str();
    }
  } else if (out.schema == obs::kPostmortemSchemaVersion) {
    std::string kind, phase;
    if (const obs::Json* k = doc.find("kind"); k != nullptr) kind = k->str();
    if (const obs::Json* p = doc.find("phase"); p != nullptr) {
      phase = p->str();
    }
    u64 op = 0;
    if (const obs::Json* o = doc.find("op_id"); o != nullptr) {
      op = o->num_u64();
    }
    out.name = kind + " op=" + std::to_string(op) + " phase=" + phase;
  } else {
    return Status(Err::PROTO, path + ": unknown schema " + out.schema);
  }

  if (const obs::Json* spans = doc.find("spans"); spans != nullptr) {
    auto recs = obs::spans_from_json(*spans);
    if (!recs) {
      return Status(Err::PROTO, path + ": " + recs.status().to_string());
    }
    out.spans = std::move(recs).value();
  }
  return out;
}

std::vector<OpTrace> group_by_op(const std::vector<obs::SpanRecord>& spans) {
  std::map<obs::OpId, OpTrace> by_op;
  for (const auto& s : spans) {
    if (s.op == 0) continue;
    OpTrace& t = by_op[s.op];
    t.op = s.op;
    t.records.push_back(&s);
  }
  std::vector<OpTrace> out;
  out.reserve(by_op.size());
  for (auto& [op, t] : by_op) out.push_back(std::move(t));
  return out;
}

std::string render_op_timeline(const OpTrace& op) {
  return render_op_timeline(op, {});
}

std::string render_op_timeline(const OpTrace& op,
                               const std::set<obs::SpanId>& critical) {
  constexpr int kBarWidth = 40;

  obs::Time t0 = ~obs::Time{0}, t1 = 0;
  std::set<obs::SpanId> ids;
  for (const auto* r : op.records) {
    ids.insert(r->id);
    t0 = std::min(t0, r->start);
    t1 = std::max({t1, r->start, r->open ? r->start : r->end});
  }
  if (op.records.empty()) t0 = 0;
  const double span_us = t1 > t0 ? static_cast<double>(t1 - t0) : 1.0;
  auto col = [&](obs::Time t) {
    int c = static_cast<int>(static_cast<double>(t - t0) / span_us *
                             (kBarWidth - 1));
    return std::clamp(c, 0, kBarWidth - 1);
  };

  // Children grouped under their parent; records whose parent is not part
  // of this op (or 0) are roots.  The Manager's root span comes first, so
  // stream order inside a parent is already causal order.
  std::map<obs::SpanId, std::vector<const obs::SpanRecord*>> children;
  std::vector<const obs::SpanRecord*> roots;
  for (const auto* r : op.records) {
    if (r->parent != 0 && ids.count(r->parent) != 0) {
      children[r->parent].push_back(r);
    } else {
      roots.push_back(r);
    }
  }

  std::ostringstream out;
  out << "op " << op.op << "  [" << obs::vtime_us(t0) << " .. "
      << obs::vtime_us(t1) << "]  (" << op.records.size() << " records)\n";

  std::size_t who_w = 3;
  for (const auto* r : op.records) who_w = std::max(who_w, r->who.size());

  std::function<void(const obs::SpanRecord*, int)> emit =
      [&](const obs::SpanRecord* r, int depth) {
        std::string bar(kBarWidth, ' ');
        if (r->kind == obs::SpanKind::EVENT) {
          bar[col(r->start)] = '|';
        } else {
          int a = col(r->start);
          int b = r->open ? kBarWidth - 1 : col(r->end);
          for (int i = a; i <= b; ++i) bar[i] = '=';
        }
        char times[48];
        if (r->kind == obs::SpanKind::EVENT) {
          std::snprintf(times, sizeof(times), "%-20s",
                        obs::vtime_stamp(r->start).c_str());
        } else if (r->open) {
          std::snprintf(times, sizeof(times), "%9s..     OPEN",
                        obs::vtime_us(r->start).c_str());
        } else {
          std::snprintf(times, sizeof(times), "%9s..%-9s",
                        obs::vtime_us(r->start).c_str(),
                        obs::vtime_us(r->end).c_str());
        }
        out << (critical.count(r->id) != 0 ? "* [" : "  [") << bar << "] "
            << times << " ";
        out.width(static_cast<std::streamsize>(who_w));
        out << std::left << r->who;
        out.width(0);
        out << " " << std::string(static_cast<std::size_t>(depth) * 2, ' ')
            << r->name << "\n";
        for (const auto* c : children[r->id]) emit(c, depth + 1);
      };
  for (const auto* r : roots) emit(r, 0);
  return out.str();
}

std::vector<Violation> validate_ops_detailed(
    const std::vector<obs::SpanRecord>& spans, const ValidateOptions& opts) {
  std::vector<Violation> out;
  for (const OpTrace& t : group_by_op(spans)) {
    std::vector<std::string> bad;

    // ---- Exactly one barrier (Manager 'continue') per checkpoint op.
    bool is_ckpt = false;
    std::vector<const obs::SpanRecord*> continues;
    for (const auto* r : t.records) {
      if (r->kind == obs::SpanKind::SPAN &&
          (r->name == "mgr.ckpt" || r->name == "ckpt")) {
        is_ckpt = true;
      }
      if (r->kind == obs::SpanKind::EVENT && r->name == "mgr.continue") {
        continues.push_back(r);
      }
    }
    bool aborted = false;
    bool has_op_fail = false;
    for (const auto* r : t.records) {
      if (r->kind != obs::SpanKind::EVENT) continue;
      if (starts_with(r->name, "abort") ||
          r->name.find("ABORTED") != std::string::npos) {
        aborted = true;
      }
      if (starts_with(r->name, "op.fail")) has_op_fail = true;
    }
    if (is_ckpt && !aborted && continues.size() != 1) {
      bad.push_back("expected exactly one mgr.continue, saw " +
                    std::to_string(continues.size()));
    }

    // ---- Every aborted operation recorded its failure: an 'op.fail'
    // EVENT (the marker obs::dump_op_failure emits next to the
    // flight-recorder postmortem) must accompany the abort markers.
    if (aborted && !has_op_fail) {
      bad.push_back(
          "op aborted but no op.fail postmortem marker was recorded");
    }

    // ---- No op-tagged span left open at end-of-trace.  An open span in
    // a completed run's evidence means some phase neither finished nor
    // was closed out by the abort path.
    if (!opts.allow_open_spans) {
      for (const auto* r : t.records) {
        if (r->kind == obs::SpanKind::SPAN && r->open) {
          bad.push_back(r->who + ": span '" + r->name +
                        "' still open at end-of-trace");
        }
      }
    }
    const obs::SpanRecord* cont =
        continues.empty() ? nullptr : continues.front();

    // ---- NETWORK_FIRST ordering: per agent, the network-state
    // checkpoint completes before the standalone checkpoint starts.
    if (!opts.allow_network_last) {
      std::map<std::string, const obs::SpanRecord*> netckpt, standalone;
      for (const auto* r : t.records) {
        if (r->kind != obs::SpanKind::SPAN) continue;
        if (r->name == "ckpt.netckpt") netckpt[r->who] = r;
        if (r->name == "ckpt.standalone") standalone[r->who] = r;
      }
      for (const auto& [who, net] : netckpt) {
        auto it = standalone.find(who);
        if (it == standalone.end() || net->open) continue;
        if (net->end > it->second->start) {
          bad.push_back(who +
                        ": standalone checkpoint started before the "
                        "network checkpoint finished (NETWORK_FIRST "
                        "violated)");
        }
      }
    }

    // ---- No agent resumes before (or outside) the Manager's continue.
    for (const auto* r : t.records) {
      if (r->kind != obs::SpanKind::EVENT ||
          !starts_with(r->name, "agent.resume")) {
        continue;
      }
      if (cont == nullptr) {
        bad.push_back(r->who + " resumed with no mgr.continue");
        continue;
      }
      if (r->start < cont->start) {
        bad.push_back(r->who + " resumed at " + obs::vtime_us(r->start) +
                      ", before mgr.continue at " +
                      obs::vtime_us(cont->start));
      }
      if (r->parent != cont->id) {
        bad.push_back(r->who +
                      ": agent.resume not parented under mgr.continue");
      }
    }

    // ---- COW concurrent checkpointing invariants (DESIGN.md §11).
    {
      // Per-agent stop-the-world window: suspend event → resume event.
      // Retransmit markers name no pod, so they are checked against it.
      struct Window {
        obs::Time suspend = 0, resume = 0;
      };
      std::map<std::string, Window> stw;  // by agent who
      // Drains are checked against their own pod's resume, keyed by
      // (agent, pod): two COW pods on one agent resume separately.
      std::map<std::pair<std::string, std::string>, obs::Time> pod_resumed;
      const std::string resume_marker = "4: pod ";
      for (const auto* r : t.records) {
        if (r->kind != obs::SpanKind::EVENT) continue;
        if (starts_with(r->name, "1: suspend pod ")) {
          stw[r->who].suspend = r->start;
        } else if (starts_with(r->name, resume_marker) &&
                   r->name.find(" resumed") != std::string::npos) {
          stw[r->who].resume = r->start;
          const std::size_t n = resume_marker.size();
          pod_resumed[{r->who, r->name.substr(n, r->name.find(' ', n) - n)}] =
              r->start;
        }
      }
      for (const auto* r : t.records) {
        if (r->kind != obs::SpanKind::SPAN || r->name != "ckpt.drain") {
          continue;
        }
        // Pod owning this drain, from its start-marker child event.
        std::string pod;
        const std::string start_marker = "5: background drain started for ";
        for (const auto* e : t.records) {
          if (e->kind != obs::SpanKind::EVENT || e->parent != r->id) {
            continue;
          }
          if (starts_with(e->name, start_marker)) {
            pod = e->name.substr(start_marker.size());
            if (auto paren = pod.find(" ("); paren != std::string::npos) {
              pod = pod.substr(0, paren);
            }
          }
        }
        // The drain is the post-barrier half of the checkpoint: it must
        // not begin before the Manager released the agents, nor before
        // its own pod was resumed.
        if (cont == nullptr) {
          if (!aborted) {
            bad.push_back(r->who +
                          ": ckpt.drain recorded with no mgr.continue");
          }
        } else if (r->start < cont->start) {
          bad.push_back(r->who + ": ckpt.drain started at " +
                        obs::vtime_us(r->start) + ", before mgr.continue "
                        "at " + obs::vtime_us(cont->start));
        }
        if (auto it = pod_resumed.find({r->who, pod});
            it != pod_resumed.end() && r->start < it->second) {
          bad.push_back(r->who +
                        ": ckpt.drain started before its pod resumed "
                        "(drain work leaked into the downtime window)");
        }
        // Every completed drain is acknowledged: the Manager records a
        // drain-done receipt for the pod after the span closed.
        if (!r->open && !aborted && !pod.empty()) {
          bool paired = false;
          for (const auto* e : t.records) {
            if (e->kind == obs::SpanKind::EVENT &&
                e->name == "5: 'drain-done' received from " + pod &&
                e->start >= r->end) {
              paired = true;
            }
          }
          if (!paired) {
            bad.push_back("ckpt.drain for pod " + pod +
                          " closed but the manager never recorded its "
                          "drain-done receipt");
          }
        }
      }
      // A suspended pod cannot originate traffic: a first-retransmit
      // marker inside the stop-the-world window means the simulation
      // attributed an app send to a frozen pod.
      for (const auto* r : t.records) {
        if (r->kind != obs::SpanKind::EVENT ||
            !starts_with(r->name, "net.tcp.first_rtx")) {
          continue;
        }
        auto it = stw.find(r->who);
        if (it == stw.end()) continue;
        const Window& w = it->second;
        if (w.suspend != 0 && r->start > w.suspend &&
            (w.resume == 0 || r->start < w.resume)) {
          bad.push_back(r->who +
                        ": app send (tcp retransmit) attributed inside "
                        "the stop-the-world window");
        }
      }
    }

    // ---- Pipelined / lazy restart invariants (DESIGN.md §13).
    {
      // Per-agent lazy restore bookkeeping, keyed by span who.
      struct LazyState {
        obs::Time stream_start = 0;   // "4a:" pipelined streaming began
        obs::Time hot_done = 0;       // "4:" hot set installed
        obs::Time resumed = 0;        // "5:" pod resumed (downtime over)
        obs::Time lazy_start = 0;     // "6:" fill window opened
        obs::Time lazy_done = 0;      // "7:" fill window closed
        u64 announced = 0;            // region count from the "6:" marker
        std::map<std::string, int> filled;  // "vpid/region" → fill+fault count
        std::string pod;
      };
      std::map<std::string, LazyState> lazy;  // by agent who
      for (const auto* r : t.records) {
        if (r->kind != obs::SpanKind::EVENT) continue;
        LazyState& ls = lazy[r->who];
        if (starts_with(r->name, "4a: pipelined restore streaming ")) {
          ls.stream_start = r->start;
        } else if (starts_with(r->name, "4: standalone restart done for ")) {
          ls.hot_done = r->start;
        } else if (starts_with(r->name, "5: restart of ") &&
                   r->name.find(" done") != std::string::npos) {
          ls.resumed = r->start;
          std::string rest = r->name.substr(std::string("5: restart of ").size());
          if (auto sp = rest.find(' '); sp != std::string::npos) {
            ls.pod = rest.substr(0, sp);
          }
        } else if (starts_with(r->name, "6: lazy restore started for ")) {
          ls.lazy_start = r->start;
          if (auto paren = r->name.find('('); paren != std::string::npos) {
            ls.announced = std::strtoull(r->name.c_str() + paren + 1,
                                         nullptr, 10);
          }
        } else if (starts_with(r->name, "7: lazy restore done for ")) {
          ls.lazy_done = r->start;
        } else if (starts_with(r->name, "lazy.fill: region ") ||
                   starts_with(r->name, "lazy.fault: region ")) {
          const std::string prefix = starts_with(r->name, "lazy.fill")
                                         ? "lazy.fill: region "
                                         : "lazy.fault: region ";
          std::string key = r->name.substr(prefix.size());
          if (auto paren = key.find(" ("); paren != std::string::npos) {
            key = key.substr(0, paren);
          }
          ls.filled[key]++;
        }
      }
      for (const auto& [who, ls] : lazy) {
        // Hot set installs strictly before the pod resumes: streaming
        // start → hot-set done → resume must be causally ordered.
        if (ls.stream_start != 0 && ls.hot_done != 0 &&
            ls.hot_done < ls.stream_start) {
          bad.push_back(who +
                        ": hot-set restore finished before its pipelined "
                        "stream started");
        }
        if (ls.hot_done != 0 && ls.resumed != 0 &&
            ls.resumed < ls.hot_done) {
          bad.push_back(who +
                        ": pod resumed before the hot set was installed "
                        "(lazy restore leaked cold state into resume)");
        }
        // The fill window lives strictly after resume: no lazy fill or
        // demand fault may be charged inside the downtime window.
        if (ls.lazy_start != 0 && ls.resumed != 0 &&
            ls.lazy_start < ls.resumed) {
          bad.push_back(who +
                        ": lazy fill window opened before the pod resumed");
        }
        // Every cold region is restored exactly once — by the background
        // fill or by a demand fault, never both, never twice.
        for (const auto& [key, n] : ls.filled) {
          if (n > 1) {
            bad.push_back(who + ": region " + key + " restored " +
                          std::to_string(n) +
                          " times during the lazy window");
          }
        }
        if (ls.lazy_done != 0 && ls.announced != 0 &&
            ls.filled.size() != ls.announced) {
          bad.push_back(who + ": lazy window announced " +
                        std::to_string(ls.announced) + " regions but " +
                        std::to_string(ls.filled.size()) +
                        " were restored");
        }
        // A closed fill window is acknowledged by the Manager, after it
        // closed (mirror of the drain-done receipt pairing).
        if (ls.lazy_done != 0 && !aborted && !ls.pod.empty()) {
          bool paired = false;
          for (const auto* e : t.records) {
            if (e->kind == obs::SpanKind::EVENT &&
                e->name == "6: 'lazy-done' received from " + ls.pod &&
                e->start >= ls.lazy_done) {
              paired = true;
            }
          }
          if (!paired) {
            bad.push_back("lazy restore for pod " + ls.pod +
                          " finished but the manager never recorded its "
                          "lazy-done receipt");
          }
        }
        if (ls.lazy_start != 0 && ls.lazy_done == 0 && !aborted &&
            !opts.allow_open_spans) {
          bad.push_back(who +
                        ": lazy fill window opened but never closed");
        }
      }
    }

    // ---- recv₁ ≥ acked₂ on both ends of every restored connection.
    struct Restored {
      std::string local, remote, who;
      u64 recv = 0, acked = 0;
    };
    std::vector<Restored> restored;
    for (const auto* r : t.records) {
      if (r->kind != obs::SpanKind::EVENT ||
          !starts_with(r->name, "net.sock.restored")) {
        continue;
      }
      restored.push_back(Restored{field(r->name, "local"),
                                  field(r->name, "remote"), r->who,
                                  field_u64(r->name, "recv"),
                                  field_u64(r->name, "acked")});
    }
    for (const auto& a : restored) {
      for (const auto& b : restored) {
        if (a.local != b.remote || a.remote != b.local) continue;
        if (a.recv < b.acked) {
          bad.push_back(a.local + " restored recv=" +
                        std::to_string(a.recv) + " < peer acked=" +
                        std::to_string(b.acked) +
                        " (acknowledged data would be lost)");
        }
      }
    }
    for (std::string& m : bad) out.push_back(Violation{t.op, std::move(m)});
  }

  // ---- SAN QoS receipts (cross-op): a background COW drain whose span
  // overlaps a foreground restore-streaming window must have had its
  // share (re)granted — the scheduler emits a "qos: drain granted"
  // receipt at every share transition, so at least one must fall inside
  // the drain's span.  Drains and restarts are separate ops, hence the
  // whole-trace scan.
  {
    struct Fetch {
      obs::Time a = 0, b = 0;
    };
    std::vector<Fetch> fetches;
    std::map<std::string, obs::Time> fetch_start;  // by agent who
    for (const auto& r : spans) {
      if (r.kind != obs::SpanKind::EVENT) continue;
      if (starts_with(r.name, "4a: pipelined restore streaming ")) {
        fetch_start[r.who] = r.start;
      } else if (starts_with(r.name, "4: standalone restart done for ") &&
                 r.name.find("(pipelined") != std::string::npos) {
        if (auto it = fetch_start.find(r.who); it != fetch_start.end()) {
          fetches.push_back(Fetch{it->second, r.start});
          fetch_start.erase(it);
        }
      }
    }
    for (const auto& r : spans) {
      if (r.kind != obs::SpanKind::SPAN || r.name != "ckpt.drain" ||
          r.open) {
        continue;
      }
      bool overlaps = false;
      for (const Fetch& f : fetches) {
        if (r.start < f.b && f.a < r.end) overlaps = true;
      }
      if (!overlaps) continue;
      bool receipted = false;
      for (const auto& e : spans) {
        if (e.kind == obs::SpanKind::EVENT && e.who == r.who &&
            starts_with(e.name, "qos: drain granted ") &&
            e.start >= r.start && e.start <= r.end) {
          receipted = true;
        }
      }
      if (!receipted) {
        out.push_back(Violation{
            r.op, r.who +
                      ": drain overlapped a foreground restore stream but "
                      "recorded no QoS share-grant receipt"});
      }
    }
  }
  return out;
}

std::vector<std::string> validate_ops(
    const std::vector<obs::SpanRecord>& spans, const ValidateOptions& opts) {
  std::vector<std::string> out;
  for (const Violation& v : validate_ops_detailed(spans, opts)) {
    out.push_back("op " + std::to_string(v.op) + ": " + v.message);
  }
  return out;
}

obs::Json violation_to_json(const Violation& v, const std::string& file) {
  obs::Json j = obs::Json::object();
  j["file"] = file;
  j["op"] = v.op;
  j["message"] = v.message;
  return j;
}

}  // namespace zapc::tools
