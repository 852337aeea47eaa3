// Per-namespace network stack: socket table, port allocation, flow
// demultiplexing, and the syscall-level socket API.
//
// Each pod owns one Stack bound to the pod's virtual address (the host's
// root namespace is itself a Stack whose virtual address equals the node's
// real address).  The stack knows nothing about nodes or the fabric; the
// router above it (os::Node) handles virtual→real address resolution and
// the per-pod packet filter.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/addr.h"
#include "net/packet.h"
#include "net/socket.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace zapc::net {

class TcpSocket;
class UdpSocket;
class RawSocket;

class Stack {
 public:
  Stack(sim::Engine& engine, IpAddr vip, std::string name);
  ~Stack();

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  IpAddr vip() const { return vip_; }
  const std::string& name() const { return name_; }
  sim::Engine& engine() { return engine_; }
  Rng& rng() { return rng_; }

  /// Liveness token for timers that may outlive this stack (the engine
  /// cannot cancel per-object; callbacks hold a weak_ptr to this).
  std::shared_ptr<const bool> alive_token() const { return alive_; }

  // ---- Application (syscall-level) API ----------------------------------
  Result<SockId> sys_socket(Proto proto);
  Status sys_bind(SockId s, SockAddr addr);
  /// Binds a RAW socket to a guest IP protocol number.
  Status sys_bind_raw(SockId s, u8 raw_proto);
  Status sys_listen(SockId s, int backlog);
  Result<SockId> sys_accept(SockId s, SockAddr* peer);
  Status sys_connect(SockId s, SockAddr peer);
  /// `data` is only read during the call (a Bytes converts implicitly).
  Result<std::size_t> sys_send(SockId s, ByteView data, u32 flags);
  Result<std::size_t> sys_sendto(SockId s, ByteView data, u32 flags,
                                 SockAddr to);
  Result<RecvResult> sys_recv(SockId s, std::size_t maxlen, u32 flags);
  Status sys_shutdown(SockId s, ShutdownHow how);
  Status sys_close(SockId s);
  u32 sys_poll(SockId s);
  Result<i64> sys_getsockopt(SockId s, SockOpt opt);
  Status sys_setsockopt(SockId s, SockOpt opt, i64 value);
  Result<SockAddr> sys_getsockname(SockId s);
  Result<SockAddr> sys_getpeername(SockId s);

  // ---- Wiring ------------------------------------------------------------
  /// Sets the egress hook (router above this stack).
  void set_output(std::function<void(Packet)> fn) { output_ = std::move(fn); }

  /// Stack-wide socket event hook: fires whenever any socket's readiness
  /// changes (in addition to per-socket hooks).  The pod layer uses this
  /// to wake processes blocked on the socket.
  void set_event_hook(std::function<void(SockId)> fn) {
    event_hook_ = std::move(fn);
  }
  void on_socket_event(SockId s) {
    if (event_hook_) event_hook_(s);
  }

  /// Ingress entry point (router calls this after the packet filter).
  void deliver(const Packet& p);

  // ---- In-kernel interface (checkpointer, protocol code) -----------------
  Socket* find(SockId s);
  const Socket* find(SockId s) const;
  TcpSocket* find_tcp(SockId s);
  UdpSocket* find_udp(SockId s);
  RawSocket* find_raw(SockId s);
  std::vector<SockId> all_socket_ids() const;
  std::size_t socket_count() const { return sockets_.size(); }

  // ---- Used by protocol implementations ----------------------------------
  void output(Packet p);
  Result<u16> alloc_ephemeral(Proto proto);
  Status reserve_port(Proto proto, u16 port, bool reuse_ok);
  void release_port(Proto proto, u16 port);
  void register_flow(const FlowKey& key, SockId s);
  void unregister_flow(const FlowKey& key);
  void register_listener(u16 port, SockId s);
  void unregister_listener(u16 port);
  void register_udp_bind(u16 port, SockId s);
  void unregister_udp_bind(u16 port);
  void register_raw_bind(u8 raw_proto, SockId s);
  void unregister_raw_bind(u8 raw_proto, SockId s);
  /// Creates the child socket for an incoming connection on `listener`.
  TcpSocket& create_tcp_child(TcpSocket& listener, SockAddr remote);
  /// Destroys a socket whose protocol work has finished.
  void reap(SockId s);

  /// Number of packets this stack dropped because no socket matched.
  u64 demux_drops() const { return demux_drops_; }

 private:
  Socket& must_find(SockId s);
  Result<SockId> add_socket(std::unique_ptr<Socket> sock);

  sim::Engine& engine_;
  IpAddr vip_;
  std::string name_;
  Rng rng_;
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);
  std::function<void(Packet)> output_;
  std::function<void(SockId)> event_hook_;

  SockId next_id_ = 1;
  std::unordered_map<SockId, std::unique_ptr<Socket>> sockets_;

  // Demux tables.
  std::map<FlowKey, SockId> flows_;
  std::unordered_map<u16, SockId> tcp_listeners_;
  std::unordered_map<u16, SockId> udp_binds_;
  std::multimap<u8, SockId> raw_binds_;

  // Port bookkeeping: count of holders per (proto, port).
  std::map<std::pair<Proto, u16>, int> ports_;
  u16 next_ephemeral_ = 32768;

  // Sockets being reaped: removed from demux immediately, destroyed from a
  // deferred event so in-flight member functions finish safely.
  std::unordered_set<SockId> dying_;

  u64 demux_drops_ = 0;
};

}  // namespace zapc::net
