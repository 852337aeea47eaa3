// Offline trace analyzer (tools/zapc-trace): document loading, per-op
// grouping, timeline rendering, and the protocol-invariant validator —
// including that a deliberately corrupted timeline FAILS validation.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "tools/trace_analysis.h"

namespace zapc::tools {
namespace {

/// A well-formed coordinated checkpoint: Manager root + continue, one
/// agent with NETWORK_FIRST phases, resume parented under the continue,
/// and a matched pair of restored sockets.
obs::SpanRecorder good_checkpoint(obs::OpId op) {
  obs::SpanRecorder rec;
  obs::SpanId root = rec.begin_at(100, "mgr.ckpt", "manager", 0, op);
  obs::SpanId aroot = rec.begin_at(110, "ckpt", "agent@n1", root, op);
  obs::SpanId net =
      rec.begin_at(120, "ckpt.netckpt", "agent@n1", aroot, op);
  rec.end_at(140, net);
  obs::SpanId sa =
      rec.begin_at(140, "ckpt.standalone", "agent@n1", aroot, op);
  obs::SpanId cont = rec.event_at(150, "manager", "mgr.continue", root, op);
  rec.end_at(400, sa);
  rec.event_at(410, "agent@n1", "agent.resume pod=p0", cont, op);
  rec.end_at(420, aroot);
  rec.end_at(450, root);
  return rec;
}

TEST(TraceAnalysis, GroupsRecordsByOpAndDropsOplessOnes) {
  obs::SpanRecorder rec;
  rec.begin_at(1, "noise", "x");  // op-less
  rec.begin_at(2, "mgr.ckpt", "manager", 0, 7);
  rec.begin_at(3, "mgr.restart", "manager", 0, 9);
  auto ops = group_by_op(rec.spans());
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].op, 7u);
  EXPECT_EQ(ops[1].op, 9u);
  EXPECT_EQ(ops[0].records.size(), 1u);
}

TEST(TraceAnalysis, GoodTimelineValidatesClean) {
  obs::SpanRecorder rec = good_checkpoint(3);
  auto bad = validate_ops(rec.spans());
  EXPECT_TRUE(bad.empty()) << bad.front();
}

TEST(TraceAnalysis, TimelineRenderShowsTree) {
  obs::SpanRecorder rec = good_checkpoint(3);
  auto ops = group_by_op(rec.spans());
  ASSERT_EQ(ops.size(), 1u);
  std::string out = render_op_timeline(ops[0]);
  EXPECT_NE(out.find("op 3"), std::string::npos);
  EXPECT_NE(out.find("mgr.continue"), std::string::npos);
  EXPECT_NE(out.find("agent.resume"), std::string::npos);
  // Child phases are indented deeper than the agent root.
  EXPECT_NE(out.find("  ckpt.netckpt"), std::string::npos);
}

TEST(TraceAnalysis, DoubleContinueIsAViolation) {
  obs::SpanRecorder rec = good_checkpoint(3);
  rec.event_at(160, "manager", "mgr.continue", 0, 3);  // corrupt: 2nd one
  auto bad = validate_ops(rec.spans());
  ASSERT_FALSE(bad.empty());
  EXPECT_NE(bad.front().find("mgr.continue"), std::string::npos);
}

TEST(TraceAnalysis, MissingContinueIsAViolation) {
  obs::SpanRecorder rec;
  rec.begin_at(100, "mgr.ckpt", "manager", 0, 4);
  auto bad = validate_ops(rec.spans());
  ASSERT_FALSE(bad.empty());
}

TEST(TraceAnalysis, ResumeBeforeContinueIsAViolation) {
  obs::SpanRecorder rec;
  obs::OpId op = 5;
  obs::SpanId root = rec.begin_at(100, "mgr.ckpt", "manager", 0, op);
  obs::SpanId cont =
      rec.event_at(300, "manager", "mgr.continue", root, op);
  rec.event_at(200, "agent@n1", "agent.resume pod=p0", cont, op);
  rec.end_at(400, root);
  auto bad = validate_ops(rec.spans());
  ASSERT_FALSE(bad.empty());
  EXPECT_NE(bad.front().find("before mgr.continue"), std::string::npos);
}

TEST(TraceAnalysis, UnparentedResumeIsAViolation) {
  obs::SpanRecorder rec;
  obs::OpId op = 5;
  obs::SpanId root = rec.begin_at(100, "mgr.ckpt", "manager", 0, op);
  rec.event_at(300, "manager", "mgr.continue", root, op);
  rec.event_at(400, "agent@n1", "agent.resume pod=p0", root, op);
  rec.end_at(500, root);
  auto bad = validate_ops(rec.spans());
  ASSERT_FALSE(bad.empty());
  EXPECT_NE(bad.front().find("not parented"), std::string::npos);
}

TEST(TraceAnalysis, NetworkLastOrderingFlaggedUnlessAllowed) {
  obs::SpanRecorder rec;
  obs::OpId op = 6;
  obs::SpanId root = rec.begin_at(100, "mgr.ckpt", "manager", 0, op);
  obs::SpanId aroot = rec.begin_at(110, "ckpt", "agent@n1", root, op);
  obs::SpanId sa =
      rec.begin_at(120, "ckpt.standalone", "agent@n1", aroot, op);
  rec.end_at(200, sa);
  obs::SpanId net =
      rec.begin_at(200, "ckpt.netckpt", "agent@n1", aroot, op);
  rec.end_at(220, net);
  rec.event_at(230, "manager", "mgr.continue", root, op);
  rec.end_at(240, aroot);
  rec.end_at(250, root);

  auto bad = validate_ops(rec.spans());
  ASSERT_FALSE(bad.empty());
  EXPECT_NE(bad.front().find("NETWORK_FIRST"), std::string::npos);

  ValidateOptions opts;
  opts.allow_network_last = true;
  EXPECT_TRUE(validate_ops(rec.spans(), opts).empty());
}

TEST(TraceAnalysis, OpenSpanIsAViolationUnlessAllowed) {
  obs::SpanRecorder rec = good_checkpoint(3);
  rec.begin_at(500, "ckpt.barrier", "agent@n1", 0, 3);  // never ended
  auto bad = validate_ops(rec.spans());
  ASSERT_FALSE(bad.empty());
  EXPECT_NE(bad.front().find("still open"), std::string::npos);

  // Postmortems snapshot mid-failure; their open spans are legitimate.
  ValidateOptions opts;
  opts.allow_open_spans = true;
  EXPECT_TRUE(validate_ops(rec.spans(), opts).empty());
}

TEST(TraceAnalysis, AbortWithoutPostmortemMarkerIsAViolation) {
  obs::SpanRecorder rec;
  obs::OpId op = 9;
  obs::SpanId root = rec.begin_at(100, "mgr.ckpt", "manager", 0, op);
  rec.event_at(200, "manager", "checkpoint ABORTED: storage failed", root,
               op);
  rec.end_at(210, root);
  auto bad = validate_ops(rec.spans());
  ASSERT_FALSE(bad.empty());
  EXPECT_NE(bad.front().find("op.fail"), std::string::npos);

  // The op.fail marker obs::dump_op_failure emits satisfies it.
  rec.event_at(205, "manager", "op.fail kind=ckpt_fail", 0, op);
  EXPECT_TRUE(validate_ops(rec.spans()).empty());
}

/// A well-formed COW checkpoint: the mark sits inside the stop-the-world
/// window, the drain starts only after the continue AND the pod's
/// resume, and the manager records the drain-done receipt after the
/// drain span closed.  Knobs deform it into each violation.
struct CowTimeline {
  obs::Time drain_start = 180;
  bool drain_done_receipt = true;
  obs::Time rtx_at = 0;  // 0 = no retransmit event
};

obs::SpanRecorder cow_checkpoint(obs::OpId op, const CowTimeline& t = {}) {
  obs::SpanRecorder rec;
  obs::SpanId root = rec.begin_at(100, "mgr.ckpt", "manager", 0, op);
  obs::SpanId aroot = rec.begin_at(110, "ckpt", "agent@n1", root, op);
  rec.event_at(110, "agent@n1", "1: suspend pod p0, block network", aroot,
               op);
  obs::SpanId net =
      rec.begin_at(120, "ckpt.netckpt", "agent@n1", aroot, op);
  rec.end_at(140, net);
  obs::SpanId cm =
      rec.begin_at(140, "ckpt.cowmark", "agent@n1", aroot, op);
  rec.end_at(150, cm);
  obs::SpanId cont = rec.event_at(160, "manager", "mgr.continue", root, op);
  rec.event_at(170, "agent@n1", "4: pod p0 resumed", aroot, op);
  rec.event_at(170, "agent@n1", "agent.resume pod=p0", cont, op);
  obs::SpanId drain =
      rec.begin_at(t.drain_start, "ckpt.drain", "agent@n1", aroot, op);
  rec.event_at(t.drain_start, "agent@n1",
               "5: background drain started for p0 (4096 bytes, 1 "
               "concurrent drains)",
               drain, op);
  if (t.rtx_at != 0) {
    rec.event_at(t.rtx_at, "agent@n1",
                 "net.tcp.first_rtx local=10.0.0.1:5000 "
                 "remote=10.0.0.2:6000",
                 aroot, op);
  }
  rec.end_at(400, drain);
  if (t.drain_done_receipt) {
    rec.event_at(410, "manager", "5: 'drain-done' received from p0", root,
                 op);
  }
  rec.end_at(410, aroot);
  rec.end_at(420, root);
  return rec;
}

bool any_mentions(const std::vector<std::string>& bad,
                  const std::string& needle) {
  for (const std::string& b : bad) {
    if (b.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(TraceAnalysis, CowTimelineValidatesClean) {
  obs::SpanRecorder rec = cow_checkpoint(20);
  auto bad = validate_ops(rec.spans());
  EXPECT_TRUE(bad.empty()) << bad.front();
}

TEST(TraceAnalysis, DrainBeforeContinueIsAViolation) {
  obs::SpanRecorder rec = cow_checkpoint(21, {.drain_start = 150});
  auto bad = validate_ops(rec.spans());
  ASSERT_FALSE(bad.empty());
  EXPECT_TRUE(any_mentions(bad, "before mgr.continue")) << bad.front();
}

TEST(TraceAnalysis, DrainBeforePodResumeIsAViolation) {
  obs::SpanRecorder rec = cow_checkpoint(22, {.drain_start = 165});
  auto bad = validate_ops(rec.spans());
  ASSERT_FALSE(bad.empty());
  EXPECT_TRUE(any_mentions(bad, "before its pod resumed")) << bad.front();
}

TEST(TraceAnalysis, UnacknowledgedDrainIsAViolation) {
  obs::SpanRecorder rec =
      cow_checkpoint(23, {.drain_done_receipt = false});
  auto bad = validate_ops(rec.spans());
  ASSERT_FALSE(bad.empty());
  EXPECT_TRUE(any_mentions(bad, "drain-done receipt")) << bad.front();
}

TEST(TraceAnalysis, RetransmitInsideStopTheWorldWindowIsAViolation) {
  // A retransmit after the resume is the app legitimately waking up.
  obs::SpanRecorder ok = cow_checkpoint(24, {.rtx_at = 300});
  EXPECT_TRUE(validate_ops(ok.spans()).empty());
  // One inside the suspend→resume window means the simulation charged a
  // send to a frozen pod.
  obs::SpanRecorder rec = cow_checkpoint(25, {.rtx_at = 140});
  auto bad = validate_ops(rec.spans());
  ASSERT_FALSE(bad.empty());
  EXPECT_TRUE(any_mentions(bad, "stop-the-world")) << bad.front();
}

/// Two COW pods colocated on one agent: p0 resumes at 170 and starts
/// its drain at 180, p1 resumes later at `p1_resume` and drains at
/// `p1_drain`.  Each drain must be judged against its own pod's window.
obs::SpanRecorder colocated_cow(obs::OpId op, obs::Time p1_resume,
                                obs::Time p1_drain) {
  obs::SpanRecorder rec;
  obs::SpanId root = rec.begin_at(100, "mgr.ckpt", "manager", 0, op);
  obs::SpanId aroot = rec.begin_at(110, "ckpt", "agent@n1", root, op);
  rec.event_at(110, "agent@n1", "1: suspend pod p0, block network", aroot,
               op);
  rec.event_at(111, "agent@n1", "1: suspend pod p1, block network", aroot,
               op);
  obs::SpanId net =
      rec.begin_at(120, "ckpt.netckpt", "agent@n1", aroot, op);
  rec.end_at(140, net);
  obs::SpanId cont = rec.event_at(160, "manager", "mgr.continue", root, op);
  rec.event_at(170, "agent@n1", "4: pod p0 resumed", aroot, op);
  rec.event_at(170, "agent@n1", "agent.resume pod=p0", cont, op);
  rec.event_at(p1_resume, "agent@n1", "4: pod p1 resumed", aroot, op);
  rec.event_at(p1_resume, "agent@n1", "agent.resume pod=p1", cont, op);
  obs::SpanId d0 = rec.begin_at(180, "ckpt.drain", "agent@n1", aroot, op);
  rec.event_at(180, "agent@n1",
               "5: background drain started for p0 (4096 bytes, 2 "
               "concurrent drains)",
               d0, op);
  obs::SpanId d1 =
      rec.begin_at(p1_drain, "ckpt.drain", "agent@n1", aroot, op);
  rec.event_at(p1_drain, "agent@n1",
               "5: background drain started for p1 (4096 bytes, 2 "
               "concurrent drains)",
               d1, op);
  rec.end_at(400, d0);
  rec.end_at(400, d1);
  rec.event_at(410, "manager", "5: 'drain-done' received from p0", root, op);
  rec.event_at(410, "manager", "5: 'drain-done' received from p1", root, op);
  rec.end_at(410, aroot);
  rec.end_at(420, root);
  return rec;
}

TEST(TraceAnalysis, ColocatedCowPodsAreJudgedByTheirOwnWindow) {
  // p0 drains (180) after its own resume (170) but before p1's (250):
  // not a violation.  An agent-keyed window would compare p0's drain
  // with p1's resume and report it.
  obs::SpanRecorder ok = colocated_cow(26, 250, 260);
  auto clean = validate_ops(ok.spans());
  EXPECT_TRUE(clean.empty()) << clean.front();
  // p1 draining (200) before its own resume (250) is still caught.
  obs::SpanRecorder rec = colocated_cow(27, 250, 200);
  auto bad = validate_ops(rec.spans());
  ASSERT_FALSE(bad.empty());
  EXPECT_TRUE(any_mentions(bad, "before its pod resumed")) << bad.front();
}

TEST(TraceAnalysis, RecvAckedInvariantAcrossRestoredPair) {
  auto make = [](u64 recv_a, u64 acked_b) {
    obs::SpanRecorder rec;
    obs::OpId op = 8;
    obs::SpanId root = rec.begin_at(10, "mgr.restart", "manager", 0, op);
    rec.event_at(20, "agent@n1",
                 "net.sock.restored local=10.0.0.1:5000 "
                 "remote=10.0.0.2:6000 recv=" + std::to_string(recv_a) +
                     " acked=40 discard=0",
                 root, op);
    rec.event_at(21, "agent@n2",
                 "net.sock.restored local=10.0.0.2:6000 "
                 "remote=10.0.0.1:5000 recv=60 acked=" +
                     std::to_string(acked_b) + " discard=0",
                 root, op);
    rec.end_at(30, root);
    return rec;
  };
  // recv₁(50) ≥ acked₂(50): consistent.
  EXPECT_TRUE(validate_ops(make(50, 50).spans()).empty());
  // recv₁(49) < acked₂(50): the peer believes data was delivered that
  // the restored socket never received — a real loss. Must flag.
  auto bad = validate_ops(make(49, 50).spans());
  ASSERT_FALSE(bad.empty());
  EXPECT_NE(bad.front().find("acked"), std::string::npos);
}

TEST(TraceAnalysis, LoadsEvidenceAndPostmortemDocsRejectsOthers) {
  std::string dir = ::testing::TempDir();
  obs::SpanRecorder rec = good_checkpoint(2);

  // zapc.obs.v1 evidence file.
  obs::MetricsRegistry reg;
  obs::Json ev = obs::evidence_json("unit", reg.snapshot(), &rec);
  std::string ev_path = dir + "trace_tool_ev.json";
  std::ofstream(ev_path) << ev.dump(2);
  auto doc = load_trace_doc(ev_path);
  ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();
  EXPECT_EQ(doc.value().schema, obs::kSchemaVersion);
  EXPECT_EQ(doc.value().spans.size(), rec.spans().size());
  EXPECT_TRUE(validate_ops(doc.value().spans).empty());

  // Postmortem file.
  obs::Json pm = obs::Json::object();
  pm["schema"] = obs::kPostmortemSchemaVersion;
  pm["kind"] = "ckpt_fail";
  pm["op_id"] = u64{2};
  pm["phase"] = "mgr.ckpt.meta_wait";
  pm["spans"] = obs::spans_to_json(rec);
  std::string pm_path = dir + "trace_tool_pm.json";
  std::ofstream(pm_path) << pm.dump(2);
  auto pdoc = load_trace_doc(pm_path);
  ASSERT_TRUE(pdoc.is_ok()) << pdoc.status().to_string();
  EXPECT_NE(pdoc.value().name.find("ckpt_fail"), std::string::npos);
  EXPECT_EQ(pdoc.value().spans.size(), rec.spans().size());

  // Unknown schema and malformed JSON are rejected, not crashed on.
  std::string bad_path = dir + "trace_tool_bad.json";
  std::ofstream(bad_path) << R"({"schema":"who.knows.v9"})";
  EXPECT_FALSE(load_trace_doc(bad_path).is_ok());
  std::ofstream(bad_path) << "{not json";
  EXPECT_FALSE(load_trace_doc(bad_path).is_ok());
  EXPECT_FALSE(load_trace_doc(dir + "does_not_exist.json").is_ok());
}

}  // namespace
}  // namespace zapc::tools
