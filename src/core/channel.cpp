#include "core/channel.h"

#include "fault/fault.h"
#include "net/tcp.h"
#include "util/log.h"
#include "util/serialize.h"

namespace zapc::core {

MsgChannel::MsgChannel(net::Stack& stack, net::SockId sock)
    : stack_(stack), sock_(sock) {
  net::Socket* s = stack_.find(sock_);
  if (s == nullptr) {
    closed_ = true;
    return;
  }
  s->set_event_hook([this] { on_event(); });
  arm();  // drain anything already queued
}

MsgChannel::~MsgChannel() {
  *alive_ = false;
  close();
}

void MsgChannel::close() {
  if (closed_) return;
  flush();  // push any queued messages into the socket before the FIN
  closed_ = true;
  net::Socket* s = stack_.find(sock_);
  if (s != nullptr) {
    s->set_event_hook(nullptr);
    (void)stack_.sys_close(sock_);
  }
}

void MsgChannel::arm() {
  if (event_scheduled_ || closed_) return;
  event_scheduled_ = true;
  stack_.engine().schedule(0, [alive = std::weak_ptr<bool>(alive_), this] {
    if (auto a = alive.lock(); !a || !*a) return;
    event_scheduled_ = false;
    flush();
    // flush() may fail, invoking on_closed_ — whose owner may destroy
    // this channel.  Re-check liveness before touching it again.
    if (auto a = alive.lock(); !a || !*a) return;
    pump();
  });
}

void MsgChannel::on_event() { arm(); }

Status MsgChannel::send(const Bytes& payload) {
  if (closed_) return Status(Err::PIPE, "channel closed");
  Encoder e;
  e.put_u32(static_cast<u32>(payload.size()));
  tx_.append(e.bytes());
  tx_.append(payload);
  bytes_sent_ += payload.size();
  arm();
  return Status::ok();
}

void MsgChannel::flush() {
  if (closed_) return;
  while (!tx_.empty()) {
    // Offer a bounded run straight out of the queue; the socket copies
    // what fits into its send buffer.
    std::size_t n = std::min<std::size_t>(tx_.size(), 64 * 1024);
    auto w = stack_.sys_send(sock_, ByteView(tx_.data(), n), 0);
    if (!w.is_ok()) {
      if (w.err() == Err::WOULD_BLOCK) return;  // retry on next event
      mark_closed();
      return;
    }
    tx_.consume(w.value());
    if (w.value() < n) return;  // buffer full
  }
}

void MsgChannel::pump() {
  if (closed_) return;
  while (true) {
    auto r = stack_.sys_recv(sock_, 64 * 1024, 0);
    if (!r.is_ok()) {
      if (r.err() == Err::WOULD_BLOCK) break;
      eof_pending_ = true;  // deliver buffered frames, then close
      break;
    }
    if (r.value().eof) {
      // A peer may send a final message (e.g. ABORT) and close in the
      // same instant; the data segment and the FIN then become readable
      // together.  Parse and deliver what arrived before honouring the
      // close, or the last message would be silently dropped.
      eof_pending_ = true;
      break;
    }
    rx_.append(r.value().data);
  }

  // Extract complete frames into the delivery queue.  Each frame is
  // judged by the fault injector exactly once, here: a dropped frame is
  // never queued, a duplicated one is queued twice, and a stall holds
  // the whole channel's delivery (a hung peer) without blocking receipt.
  while (rx_.size() >= 4) {
    Decoder d(rx_.data(), 4);
    u32 len = d.u32_().value_or(0);
    if (rx_.size() - 4 < len) break;
    Bytes payload = rx_.copy(4, len);
    rx_.consume(4 + std::size_t{len});
    if (fault::injector().enabled() && !payload.empty()) {
      auto v = fault::injector().on_channel_msg(payload[0]);
      if (v.stall_us > 0) {
        stall_until_ = stack_.engine().now() + v.stall_us;
      }
      if (v.drop) continue;
      if (v.duplicate) rx_frames_.push_back(payload);
    }
    rx_frames_.push_back(std::move(payload));
  }
  deliver();  // closes the channel itself once eof_pending_ drains
}

void MsgChannel::deliver() {
  // A handler may close — or even destroy — this channel; the liveness
  // token detects that.
  std::weak_ptr<bool> alive(alive_);
  while (!rx_frames_.empty()) {
    if (closed_) return;
    u64 now = stack_.engine().now();
    if (now < stall_until_) {
      stack_.engine().schedule(stall_until_ - now, [alive, this] {
        if (auto a = alive.lock(); a && *a) deliver();
      });
      return;
    }
    Bytes payload = std::move(rx_frames_.front());
    rx_frames_.pop_front();
    if (on_msg_) on_msg_(std::move(payload));
    if (auto a = alive.lock(); !a || !*a) return;  // destroyed by handler
  }
  if (eof_pending_ && !closed_) mark_closed();
}

bool MsgChannel::established() {
  if (closed_) return false;
  net::TcpSocket* t = stack_.find_tcp(sock_);
  return t != nullptr && t->state() == net::TcpState::ESTABLISHED;
}

void MsgChannel::mark_closed() {
  if (closed_) return;
  closed_ = true;
  net::Socket* s = stack_.find(sock_);
  if (s != nullptr) {
    s->set_event_hook(nullptr);
    (void)stack_.sys_close(sock_);
  }
  if (on_closed_) on_closed_();
}

MsgServer::MsgServer(net::Stack& stack, u16 port, AcceptFn on_accept)
    : stack_(stack), port_(port), on_accept_(std::move(on_accept)) {
  auto sid = stack_.sys_socket(net::Proto::TCP);
  if (!sid) {
    status_ = sid.status();
    return;
  }
  listener_ = sid.value();
  (void)stack_.sys_setsockopt(listener_, net::SockOpt::SO_REUSEADDR, 1);
  status_ = stack_.sys_bind(listener_, net::SockAddr{net::kAnyAddr, port});
  if (!status_) return;
  status_ = stack_.sys_listen(listener_, 64);
  if (!status_) return;
  net::Socket* s = stack_.find(listener_);
  s->set_event_hook([this] {
    stack_.engine().schedule(0, [alive = std::weak_ptr<bool>(alive_), this] {
      if (auto a = alive.lock(); a && *a) on_event();
    });
  });
}

MsgServer::~MsgServer() {
  *alive_ = false;
  if (listener_ != net::kInvalidSock && stack_.find(listener_) != nullptr) {
    stack_.find(listener_)->set_event_hook(nullptr);
    (void)stack_.sys_close(listener_);
  }
}

void MsgServer::on_event() {
  while (true) {
    auto child = stack_.sys_accept(listener_, nullptr);
    if (!child.is_ok()) return;
    on_accept_(std::make_unique<MsgChannel>(stack_, child.value()));
  }
}

std::unique_ptr<MsgChannel> connect_channel(net::Stack& stack,
                                            net::SockAddr peer) {
  auto sid = stack.sys_socket(net::Proto::TCP);
  if (!sid) return nullptr;
  Status st = stack.sys_connect(sid.value(), peer);
  if (!st.is_ok() && st.err() != Err::IN_PROGRESS) {
    (void)stack.sys_close(sid.value());
    return nullptr;
  }
  return std::make_unique<MsgChannel>(stack, sid.value());
}

}  // namespace zapc::core
