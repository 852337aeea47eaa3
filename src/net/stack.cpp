#include "net/stack.h"

#include <algorithm>

#include "net/raw.h"
#include "net/tcp.h"
#include "net/udp.h"
#include "util/log.h"

namespace zapc::net {
namespace {

/// Sends a RST in response to a segment that matched no socket.
void send_rst_for(Stack& stack, const Packet& cause) {
  if (cause.has(kRst)) return;
  Packet p;
  p.proto = Proto::TCP;
  p.src = cause.dst;
  p.dst = cause.src;
  p.flags = kRst | kAck;
  p.seq = cause.has(kAck) ? cause.ack : 0;
  p.ack = cause.seq + static_cast<u32>(cause.payload.size()) +
          (cause.has(kSyn) ? 1 : 0) + (cause.has(kFin) ? 1 : 0);
  stack.output(std::move(p));
}

}  // namespace

Stack::Stack(sim::Engine& engine, IpAddr vip, std::string name)
    : engine_(engine),
      vip_(vip),
      name_(std::move(name)),
      rng_(0xC0FFEEull ^ (static_cast<u64>(vip.v) << 16)) {}

Stack::~Stack() = default;

Result<SockId> Stack::add_socket(std::unique_ptr<Socket> sock) {
  SockId id = sock->id();
  sockets_.emplace(id, std::move(sock));
  return id;
}

Result<SockId> Stack::sys_socket(Proto proto) {
  SockId id = next_id_++;
  switch (proto) {
    case Proto::TCP:
      return add_socket(std::make_unique<TcpSocket>(*this, id));
    case Proto::UDP:
      return add_socket(std::make_unique<UdpSocket>(*this, id));
    case Proto::RAW:
      return add_socket(std::make_unique<RawSocket>(*this, id));
  }
  return Status(Err::INVALID, "bad protocol");
}

Socket* Stack::find(SockId s) {
  if (dying_.count(s)) return nullptr;
  auto it = sockets_.find(s);
  return it == sockets_.end() ? nullptr : it->second.get();
}

const Socket* Stack::find(SockId s) const {
  if (dying_.count(s)) return nullptr;
  auto it = sockets_.find(s);
  return it == sockets_.end() ? nullptr : it->second.get();
}

TcpSocket* Stack::find_tcp(SockId s) {
  Socket* sock = find(s);
  return (sock != nullptr && sock->proto() == Proto::TCP)
             ? static_cast<TcpSocket*>(sock)
             : nullptr;
}

UdpSocket* Stack::find_udp(SockId s) {
  Socket* sock = find(s);
  return (sock != nullptr && sock->proto() == Proto::UDP)
             ? static_cast<UdpSocket*>(sock)
             : nullptr;
}

RawSocket* Stack::find_raw(SockId s) {
  Socket* sock = find(s);
  return (sock != nullptr && sock->proto() == Proto::RAW)
             ? static_cast<RawSocket*>(sock)
             : nullptr;
}

std::vector<SockId> Stack::all_socket_ids() const {
  std::vector<SockId> ids;
  ids.reserve(sockets_.size());
  for (const auto& [id, sock] : sockets_) {
    if (!dying_.count(id)) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

// ---- Syscall-level API -------------------------------------------------------

Status Stack::sys_bind(SockId s, SockAddr addr) {
  Socket* sock = find(s);
  if (sock == nullptr) return Status(Err::BAD_FD);
  if (sock->bound()) return Status(Err::INVALID, "already bound");
  if (sock->proto() == Proto::RAW) {
    return Status(Err::INVALID, "use sys_bind_raw for raw sockets");
  }
  if (!addr.ip.is_any() && addr.ip != vip_) {
    return Status(Err::ADDR_UNREACH, "not a local address");
  }

  u16 port = addr.port;
  if (port == 0) {
    auto eph = alloc_ephemeral(sock->proto());
    if (!eph) return eph.status();
    port = eph.value();
  } else {
    bool reuse = sock->opts().get(SockOpt::SO_REUSEADDR) != 0;
    Status st = reserve_port(sock->proto(), port, reuse);
    if (!st) return st;
  }
  sock->set_local(SockAddr{addr.ip, port});
  sock->set_bound(true);
  sock->set_owns_port(true);
  if (sock->proto() == Proto::UDP) register_udp_bind(port, s);
  return Status::ok();
}

Status Stack::sys_bind_raw(SockId s, u8 raw_proto) {
  RawSocket* sock = find_raw(s);
  if (sock == nullptr) return Status(Err::BAD_FD);
  return sock->bind_proto(raw_proto);
}

Status Stack::sys_listen(SockId s, int backlog) {
  TcpSocket* sock = find_tcp(s);
  if (sock == nullptr) return Status(Err::BAD_FD, "listen on non-TCP");
  return sock->listen(backlog);
}

Result<SockId> Stack::sys_accept(SockId s, SockAddr* peer) {
  TcpSocket* sock = find_tcp(s);
  if (sock == nullptr) return Status(Err::BAD_FD);
  return sock->accept(peer);
}

Status Stack::sys_connect(SockId s, SockAddr peer) {
  Socket* sock = find(s);
  if (sock == nullptr) return Status(Err::BAD_FD);
  return sock->do_connect(peer);
}

Result<std::size_t> Stack::sys_send(SockId s, ByteView data, u32 flags) {
  Socket* sock = find(s);
  if (sock == nullptr) return Status(Err::BAD_FD);
  return sock->do_send(data, flags, std::nullopt);
}

Result<std::size_t> Stack::sys_sendto(SockId s, ByteView data, u32 flags,
                                      SockAddr to) {
  Socket* sock = find(s);
  if (sock == nullptr) return Status(Err::BAD_FD);
  return sock->do_send(data, flags, to);
}

Result<RecvResult> Stack::sys_recv(SockId s, std::size_t maxlen, u32 flags) {
  Socket* sock = find(s);
  if (sock == nullptr) return Status(Err::BAD_FD);
  return sock->recvmsg(maxlen, flags);  // through the dispatch vector
}

Status Stack::sys_shutdown(SockId s, ShutdownHow how) {
  Socket* sock = find(s);
  if (sock == nullptr) return Status(Err::BAD_FD);
  return sock->do_shutdown(how);
}

Status Stack::sys_close(SockId s) {
  Socket* sock = find(s);
  if (sock == nullptr) return Status(Err::BAD_FD);
  sock->release();  // through the dispatch vector (paper: release method)
  return Status::ok();
}

u32 Stack::sys_poll(SockId s) {
  Socket* sock = find(s);
  if (sock == nullptr) return POLLERR;
  return sock->poll();  // through the dispatch vector
}

Result<i64> Stack::sys_getsockopt(SockId s, SockOpt opt) {
  Socket* sock = find(s);
  if (sock == nullptr) return Status(Err::BAD_FD);
  if (opt >= SockOpt::kCount) return Status(Err::INVALID);
  return sock->opts().get(opt);
}

Status Stack::sys_setsockopt(SockId s, SockOpt opt, i64 value) {
  Socket* sock = find(s);
  if (sock == nullptr) return Status(Err::BAD_FD);
  if (opt >= SockOpt::kCount) return Status(Err::INVALID);
  sock->opts().set(opt, value);
  return Status::ok();
}

Result<SockAddr> Stack::sys_getsockname(SockId s) {
  Socket* sock = find(s);
  if (sock == nullptr) return Status(Err::BAD_FD);
  return sock->local();
}

Result<SockAddr> Stack::sys_getpeername(SockId s) {
  Socket* sock = find(s);
  if (sock == nullptr) return Status(Err::BAD_FD);
  if (sock->remote() == SockAddr{}) return Status(Err::NOT_CONNECTED);
  return sock->remote();
}

// ---- Demultiplexing -----------------------------------------------------------

void Stack::deliver(const Packet& p) {
  switch (p.proto) {
    case Proto::TCP: {
      FlowKey key{Proto::TCP, p.dst, p.src};
      auto it = flows_.find(key);
      if (it != flows_.end()) {
        if (Socket* sock = find(it->second)) {
          sock->handle_packet(p);
          return;
        }
      }
      auto lit = tcp_listeners_.find(p.dst.port);
      if (lit != tcp_listeners_.end()) {
        if (Socket* sock = find(lit->second)) {
          sock->handle_packet(p);
          return;
        }
      }
      ++demux_drops_;
      send_rst_for(*this, p);
      return;
    }
    case Proto::UDP: {
      auto it = udp_binds_.find(p.dst.port);
      if (it != udp_binds_.end()) {
        if (Socket* sock = find(it->second)) {
          sock->handle_packet(p);
          return;
        }
      }
      ++demux_drops_;  // no ICMP port-unreachable modeled
      return;
    }
    case Proto::RAW: {
      auto [lo, hi] = raw_binds_.equal_range(p.raw_proto);
      bool any = false;
      for (auto it = lo; it != hi; ++it) {
        if (Socket* sock = find(it->second)) {
          sock->handle_packet(p);
          any = true;
        }
      }
      if (!any) ++demux_drops_;
      return;
    }
  }
}

void Stack::output(Packet p) {
  if (output_) {
    output_(std::move(p));
  } else {
    ZLOG_WARN("stack " << name_ << ": output dropped (no router)");
  }
}

// ---- Ports & registration ------------------------------------------------------

Result<u16> Stack::alloc_ephemeral(Proto proto) {
  for (int attempts = 0; attempts < 28232; ++attempts) {
    u16 port = next_ephemeral_;
    next_ephemeral_ =
        next_ephemeral_ >= 60999 ? 32768 : static_cast<u16>(next_ephemeral_ + 1);
    auto key = std::make_pair(proto, port);
    if (ports_.count(key) == 0) {
      ports_[key] = 1;
      return port;
    }
  }
  return Status(Err::ADDR_IN_USE, "ephemeral ports exhausted");
}

Status Stack::reserve_port(Proto proto, u16 port, bool reuse_ok) {
  auto key = std::make_pair(proto, port);
  auto it = ports_.find(key);
  if (it != ports_.end() && it->second > 0 && !reuse_ok) {
    return Status(Err::ADDR_IN_USE,
                  proto_name(proto) + std::string(" port ") +
                      std::to_string(port));
  }
  ports_[key] += 1;
  return Status::ok();
}

void Stack::release_port(Proto proto, u16 port) {
  auto key = std::make_pair(proto, port);
  auto it = ports_.find(key);
  if (it == ports_.end()) return;
  if (--it->second <= 0) ports_.erase(it);
}

void Stack::register_flow(const FlowKey& key, SockId s) { flows_[key] = s; }

void Stack::unregister_flow(const FlowKey& key) { flows_.erase(key); }

void Stack::register_listener(u16 port, SockId s) { tcp_listeners_[port] = s; }

void Stack::unregister_listener(u16 port) { tcp_listeners_.erase(port); }

void Stack::register_udp_bind(u16 port, SockId s) { udp_binds_[port] = s; }

void Stack::unregister_udp_bind(u16 port) { udp_binds_.erase(port); }

void Stack::register_raw_bind(u8 raw_proto, SockId s) {
  raw_binds_.emplace(raw_proto, s);
}

void Stack::unregister_raw_bind(u8 raw_proto, SockId s) {
  auto [lo, hi] = raw_binds_.equal_range(raw_proto);
  for (auto it = lo; it != hi; ++it) {
    if (it->second == s) {
      raw_binds_.erase(it);
      return;
    }
  }
}

TcpSocket& Stack::create_tcp_child(TcpSocket& listener, SockAddr remote) {
  SockId id = next_id_++;
  auto child = std::make_unique<TcpSocket>(*this, id);
  TcpSocket& ref = *child;
  sockets_.emplace(id, std::move(child));

  IpAddr local_ip =
      listener.local().ip.is_any() ? vip_ : listener.local().ip;
  ref.set_local(SockAddr{local_ip, listener.local().port});
  ref.set_remote(remote);
  ref.set_bound(true);
  ref.set_owns_port(false);  // the port belongs to the listener
  ref.opts() = listener.opts();  // children inherit socket options
  ref.parent_listener_ = listener.id();
  register_flow(FlowKey{Proto::TCP, ref.local(), ref.remote()}, id);
  return ref;
}

void Stack::reap(SockId s) {
  auto it = sockets_.find(s);
  if (it == sockets_.end() || dying_.count(s)) return;
  Socket& sock = *it->second;

  // Remove from demux immediately so no further packets reach it.
  flows_.erase(FlowKey{sock.proto(), sock.local(), sock.remote()});
  if (sock.proto() == Proto::TCP) {
    auto lit = tcp_listeners_.find(sock.local().port);
    if (lit != tcp_listeners_.end() && lit->second == s) {
      tcp_listeners_.erase(lit);
    }
  } else if (sock.proto() == Proto::UDP) {
    auto uit = udp_binds_.find(sock.local().port);
    if (uit != udp_binds_.end() && uit->second == s) udp_binds_.erase(uit);
  }
  if (sock.owns_port()) release_port(sock.proto(), sock.local().port);

  // Destroy from a fresh event so member functions still on the call stack
  // return safely.
  dying_.insert(s);
  engine_.schedule(0, [tok = std::weak_ptr<const bool>(alive_), this, s] {
    if (tok.expired()) return;
    dying_.erase(s);
    sockets_.erase(s);
  });
}

}  // namespace zapc::net
