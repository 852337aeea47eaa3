// Socket base class and the per-socket dispatch vector.
//
// Paper §5: "interposition is realized by altering the socket's dispatch
// vector. The dispatch vector determines which kernel function is called
// for each application interface invocation ... Specifically we interpose
// on the three methods that may involve the data in the receive queue:
// recvmsg, poll and release."
//
// Socket therefore routes recvmsg/poll/release through a swappable
// SocketOps table.  The alternate receive queue used to re-inject
// checkpointed receive-queue data (AltRecvQueue) installs itself into that
// table and uninstalls itself when drained.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>

#include "net/addr.h"
#include "net/packet.h"
#include "net/sockopt.h"
#include "util/status.h"
#include "util/types.h"

namespace zapc::net {

class Stack;
class Socket;

/// Socket identifier, unique within one Stack.
using SockId = u32;
constexpr SockId kInvalidSock = 0;

/// recv/send flag bits (subset of POSIX MSG_*).
enum MsgFlag : u32 {
  MSG_PEEK = 1 << 0,  // examine data without consuming it
  MSG_OOB = 1 << 1,   // receive/send urgent (out-of-band) data
};

/// poll() event bits.
enum PollBit : u32 {
  POLLIN = 1 << 0,   // readable (data or EOF or pending accept)
  POLLOUT = 1 << 1,  // writable
  POLLERR = 1 << 2,  // error pending
  POLLHUP = 1 << 3,  // peer closed
  POLLPRI = 1 << 4,  // urgent data pending
};

/// shutdown() directions.
enum class ShutdownHow { RD, WR, RDWR };

/// One unit of received data as seen by recvmsg: for UDP a datagram with
/// its source, for TCP a run of bytes.
struct RecvItem {
  Bytes data;
  SockAddr from;
  bool oob = false;  // urgent byte delivered out-of-band
};

/// Result of a recvmsg call.
struct RecvResult {
  Bytes data;
  SockAddr from;
  bool oob = false;
  bool eof = false;  // orderly peer shutdown (TCP), data is empty
};

/// The dispatch vector.  Default entries call the socket's own
/// protocol implementation; interposition replaces them.
struct SocketOps {
  std::function<Result<RecvResult>(Socket&, std::size_t maxlen, u32 flags)>
      recvmsg;
  std::function<u32(Socket&)> poll;
  std::function<void(Socket&)> release;
};

/// The alternate receive queue of paper §5.  Checkpointed receive-queue
/// data is deposited here at restart; interposed ops serve it ahead of any
/// new network data and reinstall the original ops once drained.
class AltRecvQueue {
 public:
  explicit AltRecvQueue(std::deque<RecvItem> items)
      : items_(std::move(items)) {}

  bool empty() const { return items_.empty(); }
  const std::deque<RecvItem>& items() const { return items_; }

  /// Serves up to maxlen bytes (TCP semantics: may merge items without
  /// oob/from boundaries; UDP semantics: one item per call).
  Result<RecvResult> serve(bool stream, std::size_t maxlen, u32 flags);

  /// Total queued payload bytes.
  std::size_t byte_size() const;

 private:
  std::deque<RecvItem> items_;
};

/// Abstract socket.  Concrete protocols: TcpSocket, UdpSocket, RawSocket.
class Socket {
 public:
  Socket(Stack& stack, SockId id, Proto proto);
  virtual ~Socket() = default;

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  SockId id() const { return id_; }
  Proto proto() const { return proto_; }
  Stack& stack() { return stack_; }

  const SockAddr& local() const { return local_; }
  const SockAddr& remote() const { return remote_; }
  void set_local(SockAddr a) { local_ = a; }
  void set_remote(SockAddr a) { remote_ = a; }
  bool bound() const { return bound_; }
  void set_bound(bool b) { bound_ = b; }

  SockOptTable& opts() { return opts_; }
  const SockOptTable& opts() const { return opts_; }
  bool nonblocking() const { return opts_.get(SockOpt::O_NONBLOCK) != 0; }

  bool shut_rd() const { return shut_rd_; }
  bool shut_wr() const { return shut_wr_; }

  /// Application-interface entry points; these route through the dispatch
  /// vector so interposition works exactly as in the paper.
  Result<RecvResult> recvmsg(std::size_t maxlen, u32 flags) {
    return ops_.recvmsg(*this, maxlen, flags);
  }
  u32 poll() { return ops_.poll(*this); }
  void release() { ops_.release(*this); }

  /// Protocol implementations behind the dispatch vector.
  virtual Result<RecvResult> do_recvmsg(std::size_t maxlen, u32 flags) = 0;
  virtual u32 do_poll() = 0;
  virtual void do_release() = 0;

  /// Other protocol operations (not interposed; the paper only needs the
  /// three receive-path methods).
  virtual Result<std::size_t> do_send(ByteView data, u32 flags,
                                      std::optional<SockAddr> to) = 0;
  virtual Status do_connect(SockAddr peer) = 0;
  virtual Status do_shutdown(ShutdownHow how) = 0;

  /// Packet input from the stack demultiplexer.
  virtual void handle_packet(const Packet& p) = 0;

  /// Dispatch-vector manipulation (kernel-module interface).
  const SocketOps& ops() const { return ops_; }
  void set_ops(SocketOps ops) { ops_ = std::move(ops); }
  void reset_default_ops();

  /// Installs an alternate receive queue holding restored data.  Replaces
  /// recvmsg/poll/release in the dispatch vector; the original ops return
  /// automatically once the queue drains (paper §5: "when the data becomes
  /// depleted, the original methods are reinstalled").
  void install_alt_queue(std::deque<RecvItem> items);

  /// The alternate queue if one is installed and non-empty.  A later
  /// checkpoint must save this too ("the checkpoint procedure must save
  /// the state of the alternate queue, if applicable").
  const AltRecvQueue* alt_queue() const { return alt_queue_.get(); }

  /// Wakeup callback invoked whenever socket readiness changes; the OS
  /// layer points this at the process wait-queue broadcast.
  void set_event_hook(std::function<void()> fn) { on_event_ = std::move(fn); }

  /// Kernel-internal: forces shutdown flags without protocol action
  /// (restore of connections whose peer no longer exists).
  void force_shutdown(bool rd, bool wr) {
    shut_rd_ = shut_rd_ || rd;
    shut_wr_ = shut_wr_ || wr;
  }

  /// True once the protocol has fully finished and the stack may reap
  /// this socket.
  virtual bool reapable() const = 0;

  bool user_closed() const { return user_closed_; }
  void mark_user_closed() { user_closed_ = true; }

  /// Whether this socket reserved its local port (explicit bind or
  /// ephemeral allocation) and must release it when reaped.  Accepted TCP
  /// children inherit the listener's port without owning it.
  bool owns_port() const { return owns_port_; }
  void set_owns_port(bool v) { owns_port_ = v; }

 protected:
  void notify();
  void drop_alt_queue() { alt_queue_.reset(); }

  bool shut_rd_ = false;
  bool shut_wr_ = false;

 private:
  Stack& stack_;
  SockId id_;
  Proto proto_;
  SockAddr local_;
  SockAddr remote_;
  bool bound_ = false;
  bool user_closed_ = false;
  bool owns_port_ = false;
  SockOptTable opts_;
  SocketOps ops_;
  std::unique_ptr<AltRecvQueue> alt_queue_;
  std::function<void()> on_event_;
};

}  // namespace zapc::net
