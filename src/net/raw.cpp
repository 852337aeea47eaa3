#include "net/raw.h"

#include <algorithm>

#include "net/stack.h"

namespace zapc::net {

RawSocket::RawSocket(Stack& stack, SockId id)
    : Socket(stack, id, Proto::RAW) {}

Status RawSocket::bind_proto(u8 raw_proto) {
  if (proto_bound_) return Status(Err::INVALID, "already bound");
  raw_proto_ = raw_proto;
  proto_bound_ = true;
  stack().register_raw_bind(raw_proto, id());
  return Status::ok();
}

Result<std::size_t> RawSocket::do_send(ByteView data, u32 flags,
                                       std::optional<SockAddr> to) {
  (void)flags;
  if (!to.has_value()) {
    if (remote().ip.is_any()) return Status(Err::NOT_CONNECTED);
    to = remote();
  }
  Packet p;
  p.proto = Proto::RAW;
  p.raw_proto = raw_proto_;
  p.src = SockAddr{stack().vip(), 0};
  p.dst = SockAddr{to->ip, 0};
  p.payload.assign(data.begin(), data.end());
  stack().output(std::move(p));
  return data.size();
}

Status RawSocket::do_connect(SockAddr peer) {
  set_remote(SockAddr{peer.ip, 0});
  return Status::ok();
}

void RawSocket::handle_packet(const Packet& p) {
  if (shut_rd_) return;
  auto rcvbuf = static_cast<std::size_t>(opts().get(SockOpt::SO_RCVBUF));
  std::size_t queued = 0;
  for (const auto& d : recv_q_) queued += d.data.size();
  if (queued + p.payload.size() > rcvbuf) return;
  recv_q_.push_back(RawDatagram{p.src, p.payload});
  notify();
}

Result<RecvResult> RawSocket::do_recvmsg(std::size_t maxlen, u32 flags) {
  if ((flags & MSG_OOB) != 0) return Status(Err::NOT_SUPPORTED);
  if (recv_q_.empty()) return Status(Err::WOULD_BLOCK);
  RawDatagram& d = recv_q_.front();
  RecvResult r;
  r.from = d.from;
  std::size_t n = std::min(maxlen, d.data.size());
  r.data.assign(d.data.begin(), d.data.begin() + static_cast<long>(n));
  if ((flags & MSG_PEEK) == 0) recv_q_.pop_front();
  return r;
}

u32 RawSocket::do_poll() {
  u32 ev = POLLOUT;
  if (!recv_q_.empty()) ev |= POLLIN;
  return ev;
}

Status RawSocket::do_shutdown(ShutdownHow how) {
  if (how == ShutdownHow::RD || how == ShutdownHow::RDWR) shut_rd_ = true;
  if (how == ShutdownHow::WR || how == ShutdownHow::RDWR) shut_wr_ = true;
  return Status::ok();
}

void RawSocket::do_release() {
  mark_user_closed();
  if (proto_bound_) stack().unregister_raw_bind(raw_proto_, id());
  recv_q_.clear();
  stack().reap(id());
}

}  // namespace zapc::net
