// Checkpoint image format and standalone process capture tests.
#include <gtest/gtest.h>

#include "ckpt/image.h"
#include "ckpt/standalone.h"
#include "os/cluster.h"
#include "pod/pod.h"
#include "tests/guest_programs.h"

namespace zapc::ckpt {
namespace {

PodImage sample_image() {
  PodImage img;
  img.header.pod_name = "pod-x";
  img.header.vip = net::IpAddr(10, 77, 0, 3);
  img.header.next_vpid = 5;
  img.header.ckpt_virtual_time = 123456;
  img.header.time_delta = -42;

  NetMetaEntry e;
  e.sock = 7;
  e.source = net::SockAddr{img.header.vip, 5000};
  e.target = net::SockAddr{net::IpAddr(10, 77, 0, 4), 41000};
  e.state = ConnState::HALF_DUPLEX;
  e.role = PeerRole::ACCEPT;
  e.pcb_sent = 1000;
  e.pcb_acked = 900;
  e.pcb_recv = 2000;
  e.discard_send = 55;
  img.meta.pod_vip = img.header.vip;
  img.meta.entries.push_back(e);

  SocketImage s;
  s.old_id = 7;
  s.proto = net::Proto::TCP;
  s.params[static_cast<std::size_t>(net::SockOpt::SO_RCVBUF)] = 111;
  s.local = e.source;
  s.remote = e.target;
  s.bound = true;
  s.connected = true;
  s.shut_wr = true;
  s.recv_queue.push_back(SavedRecvItem{to_bytes("queued"), e.target, false});
  s.recv_queue.push_back(SavedRecvItem{Bytes{'!'}, e.target, true});
  s.send_queue = to_bytes("unacked data");
  s.pcb_sent = 1000;
  s.pcb_acked = 900;
  s.pcb_recv = 2000;
  img.sockets.push_back(s);

  ProcessImage p;
  p.vpid = 1;
  p.kind = "test.counter";
  p.next_fd = 6;
  p.program_state = to_bytes("blob");
  p.fds[3] = 7;
  p.regions["heap"] = Bytes(1024, 0xAA);
  p.timer_remaining[9] = 5000;
  img.processes.push_back(p);
  return img;
}

TEST(Image, EncodeDecodeRoundTrip) {
  PodImage img = sample_image();
  Bytes data = encode_image(img);
  auto back = decode_image(data);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  const PodImage& b = back.value();

  EXPECT_EQ(b.header.pod_name, "pod-x");
  EXPECT_EQ(b.header.vip, img.header.vip);
  EXPECT_EQ(b.header.next_vpid, 5);
  EXPECT_EQ(b.header.ckpt_virtual_time, 123456u);
  EXPECT_EQ(b.header.time_delta, -42);

  ASSERT_EQ(b.meta.entries.size(), 1u);
  const NetMetaEntry& e = b.meta.entries[0];
  EXPECT_EQ(e.sock, 7u);
  EXPECT_EQ(e.state, ConnState::HALF_DUPLEX);
  EXPECT_EQ(e.role, PeerRole::ACCEPT);
  EXPECT_EQ(e.pcb_recv, 2000u);
  EXPECT_EQ(e.discard_send, 55u);

  ASSERT_EQ(b.sockets.size(), 1u);
  const SocketImage& s = b.sockets[0];
  EXPECT_EQ(s.params[static_cast<std::size_t>(net::SockOpt::SO_RCVBUF)],
            111);
  EXPECT_TRUE(s.shut_wr);
  ASSERT_EQ(s.recv_queue.size(), 2u);
  EXPECT_EQ(to_string(s.recv_queue[0].data), "queued");
  EXPECT_TRUE(s.recv_queue[1].oob);
  EXPECT_EQ(s.send_queue, to_bytes("unacked data"));

  ASSERT_EQ(b.processes.size(), 1u);
  const ProcessImage& p = b.processes[0];
  EXPECT_EQ(p.kind, "test.counter");
  EXPECT_EQ(p.fds.at(3), 7u);
  EXPECT_EQ(p.regions.at("heap"), Bytes(1024, 0xAA));
  EXPECT_EQ(p.timer_remaining.at(9), 5000);
}

TEST(Image, CorruptionRejected) {
  Bytes data = encode_image(sample_image());
  data[data.size() / 3] ^= 0x5A;
  EXPECT_EQ(decode_image(data).err(), Err::PROTO);
}

TEST(Image, TruncationRejected) {
  Bytes data = encode_image(sample_image());
  data.resize(data.size() / 2);
  EXPECT_EQ(decode_image(data).err(), Err::PROTO);
}

TEST(Image, EveryTruncationAndByteFlipIsAnErrorStatus) {
  // Record payloads are borrowed from the image buffer, so hostile bytes
  // must be rejected by the framing and CRC checks before any decoder
  // reads past them.  (The sanitize build runs this under ASan+UBSan.)
  PodImage img = sample_image();
  img.processes[0].regions["stack"] = Bytes(300, 0x5C);
  const Bytes good = encode_image(img);
  auto ok = decode_image(good);
  ASSERT_TRUE(ok.is_ok()) << ok.status().to_string();
  ASSERT_EQ(ok.value().processes[0].regions.size(), 2u);
  ASSERT_EQ(ok.value().sockets.size(), 1u);

  for (std::size_t len = 0; len < good.size(); ++len) {
    Bytes prefix(good.begin(), good.begin() + static_cast<long>(len));
    auto r = decode_image(prefix);
    ASSERT_FALSE(r.is_ok()) << "prefix of " << len << " bytes decoded";
  }
  for (u8 mask : {u8{0x01}, u8{0xFF}}) {
    Bytes bad = good;
    for (std::size_t i = 0; i < bad.size(); ++i) {
      bad[i] ^= mask;
      auto r = decode_image(bad);
      ASSERT_FALSE(r.is_ok())
          << "flip 0x" << std::hex << int{mask} << " at byte " << std::dec
          << i << " decoded";
      bad[i] ^= mask;
    }
  }
}

TEST(Image, MissingHeaderRejected) {
  RecordWriter w;
  w.write(RecordTag::IMAGE_END, 1, Bytes{});
  EXPECT_EQ(decode_image(w.take()).err(), Err::PROTO);
}

TEST(Image, MetaRoundTrip) {
  NetMeta m = sample_image().meta;
  auto back = decode_meta(encode_meta(m));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().pod_vip, m.pod_vip);
  ASSERT_EQ(back.value().entries.size(), 1u);
  EXPECT_EQ(back.value().entries[0].target, m.entries[0].target);
}

TEST(Image, NetworkBytesAreSmallComparedToTotal) {
  // Paper §6: "application data in a checkpoint image can be many orders
  // of magnitude more than the network data."
  PodImage img = sample_image();
  img.processes[0].regions["heap"] = Bytes(16 << 20, 1);
  EXPECT_LT(img.network_bytes() * 100, encode_image(img).size());
}

TEST(Standalone, SaveRestoreProcessRoundTrip) {
  os::Cluster cl;
  os::Node& n = cl.add_node("n1");
  pod::Pod pod(n, net::IpAddr(10, 77, 0, 1), "pod1");
  i32 pid = pod.spawn(std::make_unique<test::CounterProgram>(100, 10));
  cl.run_for(500);  // make some progress
  pod.suspend();

  os::Process* p = pod.find_process(pid);
  u32 progress = static_cast<test::CounterProgram&>(p->program()).count();
  ASSERT_GT(progress, 0u);
  p->region("scratch", 4096)[17] = 0x7E;

  PodImageHeader header = Standalone::save_header(pod);
  ProcessImage img = Standalone::save_process(pod, *p);
  EXPECT_EQ(img.kind, "test.counter");
  EXPECT_FALSE(img.exited);

  // Restore into a fresh pod on another node.
  os::Node& n2 = cl.add_node("n2");
  pod::Pod pod2(n2, net::IpAddr(10, 77, 0, 2), "pod2");
  Standalone::restore_header(pod2, header);
  ASSERT_TRUE(Standalone::restore_process(pod2, std::move(img), {}).is_ok());

  os::Process* q = pod2.find_process(pid);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->state(), os::ProcState::STOPPED);
  EXPECT_EQ(static_cast<test::CounterProgram&>(q->program()).count(),
            progress);
  EXPECT_EQ(q->regions().at("scratch")[17], 0x7E);

  // Resumed, it finishes the count.
  pod2.resume();
  cl.run_for(10 * sim::kMillisecond);
  EXPECT_EQ(q->state(), os::ProcState::EXITED);
  EXPECT_EQ(static_cast<test::CounterProgram&>(q->program()).count(), 100u);
}

TEST(Standalone, TimeVirtualizationContinuity) {
  os::Cluster cl;
  os::Node& n = cl.add_node("n1");
  pod::Pod pod(n, net::IpAddr(10, 77, 0, 1), "pod1");
  cl.run_for(5000);
  sim::Time before = pod.virtual_now();
  PodImageHeader header = Standalone::save_header(pod);

  // Much later, on another node, the pod clock resumes where it stopped.
  cl.run_for(60 * sim::kSecond);
  os::Node& n2 = cl.add_node("n2");
  pod::Pod pod2(n2, net::IpAddr(10, 77, 0, 2), "pod2");
  Standalone::restore_header(pod2, header);
  EXPECT_EQ(pod2.virtual_now(), before);
}

TEST(Standalone, TimerRemainingSurvivesRestore) {
  os::Cluster cl;
  os::Node& n = cl.add_node("n1");
  pod::Pod pod(n, net::IpAddr(10, 77, 0, 1), "pod1");
  i32 pid = pod.spawn(std::make_unique<test::CounterProgram>(1000, 10));
  cl.run_for(100);
  os::Process* p = pod.find_process(pid);
  p->timers()[1] = cl.now() + 10000;  // 10ms left
  pod.suspend();
  ProcessImage img = Standalone::save_process(pod, *p);
  EXPECT_EQ(img.timer_remaining.at(1), 10000);

  cl.run_for(5 * sim::kSecond);  // long downtime
  os::Node& n2 = cl.add_node("n2");
  pod::Pod pod2(n2, net::IpAddr(10, 77, 0, 2), "pod2");
  ASSERT_TRUE(Standalone::restore_process(pod2, std::move(img), {}).is_ok());
  os::Process* q = pod2.find_process(pid);
  // The timer still has ~10ms to go rather than having expired.
  EXPECT_EQ(q->timers().at(1), cl.now() + 10000);
}

TEST(Standalone, UnknownProgramKindFails) {
  os::Cluster cl;
  os::Node& n = cl.add_node("n1");
  pod::Pod pod(n, net::IpAddr(10, 77, 0, 1), "pod1");
  ProcessImage img;
  img.vpid = 1;
  img.kind = "does.not.exist";
  EXPECT_EQ(Standalone::restore_process(pod, std::move(img), {}).err(),
            Err::NO_ENT);
}

TEST(Standalone, MissingSocketMappingFails) {
  os::Cluster cl;
  os::Node& n = cl.add_node("n1");
  pod::Pod pod(n, net::IpAddr(10, 77, 0, 1), "pod1");
  ProcessImage img;
  img.vpid = 1;
  img.kind = "test.counter";
  test::CounterProgram c(1, 1);
  Encoder e;
  c.save(e);
  img.program_state = e.take();
  img.fds[3] = 99;  // no mapping provided
  EXPECT_EQ(Standalone::restore_process(pod, std::move(img), {}).err(),
            Err::NO_ENT);
}

}  // namespace
}  // namespace zapc::ckpt
