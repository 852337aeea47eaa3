#include "net/udp.h"

#include <algorithm>

#include "net/stack.h"
#include "obs/stats.h"
#include "util/log.h"

namespace zapc::net {

UdpSocket::UdpSocket(Stack& stack, SockId id)
    : Socket(stack, id, Proto::UDP) {}

Result<std::size_t> UdpSocket::do_send(ByteView data, u32 flags,
                                       std::optional<SockAddr> to) {
  (void)flags;  // MSG_OOB has no UDP meaning; ignored like Linux does
  if (data.size() > kMaxDatagram) return Status(Err::MSG_SIZE);
  SockAddr dst;
  if (to.has_value()) {
    dst = *to;
  } else if (connected_) {
    dst = remote();
  } else {
    return Status(Err::NOT_CONNECTED, "UDP send without peer");
  }
  if (dst.port == 0) return Status(Err::INVALID, "port 0");

  if (!bound()) {
    auto port = stack().alloc_ephemeral(Proto::UDP);
    if (!port) return port.status();
    set_local(SockAddr{stack().vip(), port.value()});
    set_bound(true);
    set_owns_port(true);
    stack().register_udp_bind(local().port, id());
  }

  Packet p;
  p.proto = Proto::UDP;
  p.src = SockAddr{local().ip.is_any() ? stack().vip() : local().ip,
                   local().port};
  p.dst = dst;
  p.payload.assign(data.begin(), data.end());
  stack().output(std::move(p));
  return data.size();
}

Status UdpSocket::do_connect(SockAddr peer) {
  // UDP connect just fixes the default destination + source filter.
  if (peer.port == 0) {
    connected_ = false;
    set_remote(SockAddr{});
    return Status::ok();
  }
  if (!bound()) {
    auto port = stack().alloc_ephemeral(Proto::UDP);
    if (!port) return port.status();
    set_local(SockAddr{stack().vip(), port.value()});
    set_bound(true);
    set_owns_port(true);
    stack().register_udp_bind(local().port, id());
  }
  set_remote(peer);
  connected_ = true;
  return Status::ok();
}

void UdpSocket::handle_packet(const Packet& p) {
  if (shut_rd_) return;
  if (connected_ && p.src != remote()) return;  // connected-filter

  auto rcvbuf = static_cast<std::size_t>(opts().get(SockOpt::SO_RCVBUF));
  if (queued_bytes_ + p.payload.size() > rcvbuf) {
    ZLOG_DEBUG("udp " << stack().name() << "/" << id()
                      << ": rcvbuf full, datagram dropped");
    obs::stats::net_udp_dropped().inc();
    return;  // legitimate UDP behaviour: queue overflow drops
  }
  queued_bytes_ += p.payload.size();
  recv_q_.push_back(Datagram{p.src, p.payload});
  obs::stats::net_udp_recv_queue().set(static_cast<i64>(queued_bytes_));
  notify();
}

Result<RecvResult> UdpSocket::do_recvmsg(std::size_t maxlen, u32 flags) {
  if ((flags & MSG_OOB) != 0) return Status(Err::NOT_SUPPORTED);
  if (recv_q_.empty()) {
    if (shut_rd_) {
      RecvResult r;
      r.eof = true;
      return r;
    }
    return Status(Err::WOULD_BLOCK);
  }
  Datagram& d = recv_q_.front();
  RecvResult r;
  r.from = d.from;
  std::size_t n = std::min(maxlen, d.data.size());
  r.data.assign(d.data.begin(), d.data.begin() + static_cast<long>(n));
  if ((flags & MSG_PEEK) != 0) {
    // Paper §5: peeked-at data is part of the application's state and must
    // survive checkpoint; remember that a peek happened.
    peeked_ = true;
  } else {
    queued_bytes_ -= d.data.size();
    recv_q_.pop_front();  // rest of the datagram is discarded (truncation)
  }
  return r;
}

u32 UdpSocket::do_poll() {
  u32 ev = POLLOUT;
  if (!recv_q_.empty() || shut_rd_) ev |= POLLIN;
  return ev;
}

Status UdpSocket::do_shutdown(ShutdownHow how) {
  if (how == ShutdownHow::RD || how == ShutdownHow::RDWR) shut_rd_ = true;
  if (how == ShutdownHow::WR || how == ShutdownHow::RDWR) shut_wr_ = true;
  notify();
  return Status::ok();
}

void UdpSocket::do_release() {
  mark_user_closed();
  recv_q_.clear();
  queued_bytes_ = 0;
  stack().reap(id());
}

std::size_t UdpSocket::queue_bytes() const { return queued_bytes_; }

}  // namespace zapc::net
