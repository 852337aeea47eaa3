// Framed, event-driven message channels over the simulated TCP stack.
//
// The Manager and Agents communicate through these (paper §4: "The
// Manager maintains reliable network connections with the Agents
// throughout the entire operation"), so a broken connection doubles as
// failure detection for the abort path.
#pragma once

#include <deque>
#include <functional>
#include <memory>

#include "net/stack.h"
#include "util/byte_queue.h"

namespace zapc::core {

/// A reliable message stream over one TCP socket: each message is a
/// 32-bit length-prefixed byte blob.  All callbacks fire from engine
/// events (never re-entrantly from inside socket code).
class MsgChannel {
 public:
  using MsgFn = std::function<void(Bytes)>;
  using ClosedFn = std::function<void()>;

  /// Wraps an already-created socket (connected, connecting, or accepted).
  MsgChannel(net::Stack& stack, net::SockId sock);
  ~MsgChannel();

  MsgChannel(const MsgChannel&) = delete;
  MsgChannel& operator=(const MsgChannel&) = delete;

  void set_on_msg(MsgFn fn) { on_msg_ = std::move(fn); }
  void set_on_closed(ClosedFn fn) { on_closed_ = std::move(fn); }

  /// Queues one message; transmission is asynchronous.
  Status send(const Bytes& payload);

  void close();
  bool open() const { return !closed_; }
  /// Whether the underlying TCP connection has completed its handshake
  /// (used by the Manager's connect-phase deadline).
  bool established();
  net::SockId sock() const { return sock_; }

  /// Total payload bytes sent (for transfer accounting in benches).
  u64 bytes_sent() const { return bytes_sent_; }

 private:
  void arm();
  void on_event();
  void pump();
  void deliver();
  void flush();
  void mark_closed();

  net::Stack& stack_;
  net::SockId sock_;
  ByteQueue rx_;                 // received bytes, a partial frame at most
  std::deque<Bytes> rx_frames_;  // complete frames awaiting delivery
  u64 stall_until_ = 0;          // injected channel stall (virtual µs)
  ByteQueue tx_;                 // framed bytes the socket has not taken
  MsgFn on_msg_;
  ClosedFn on_closed_;
  bool closed_ = false;
  bool eof_pending_ = false;  // peer closed; close once rx_frames_ drains
  bool event_scheduled_ = false;
  u64 bytes_sent_ = 0;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

/// Accepts connections on a port of the given stack and hands each off as
/// a MsgChannel.
class MsgServer {
 public:
  using AcceptFn = std::function<void(std::unique_ptr<MsgChannel>)>;

  MsgServer(net::Stack& stack, u16 port, AcceptFn on_accept);
  ~MsgServer();

  MsgServer(const MsgServer&) = delete;
  MsgServer& operator=(const MsgServer&) = delete;

  u16 port() const { return port_; }
  Status status() const { return status_; }

 private:
  void on_event();

  net::Stack& stack_;
  u16 port_;
  net::SockId listener_ = net::kInvalidSock;
  AcceptFn on_accept_;
  Status status_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

/// Creates a socket on `stack` and starts connecting to `peer`; the
/// channel becomes usable once established (sends queue until then).
std::unique_ptr<MsgChannel> connect_channel(net::Stack& stack,
                                            net::SockAddr peer);

}  // namespace zapc::core
