// UDP: unreliable datagram transport with MSG_PEEK support.
//
// Paper §5: with unreliable protocols the minimal protocol state is nil —
// losing queue contents is indistinguishable from legitimate packet loss —
// but the receive queue is saved anyway ("we chose to have our scheme
// always save the data in the queues, regardless of the protocol") both to
// preserve peeked-at data semantics and to avoid artificial loss slowing
// the application right after restart.
#pragma once

#include <deque>
#include <optional>

#include "net/socket.h"

namespace zapc::net {

class UdpSocket final : public Socket {
 public:
  UdpSocket(Stack& stack, SockId id);

  Result<RecvResult> do_recvmsg(std::size_t maxlen, u32 flags) override;
  u32 do_poll() override;
  void do_release() override;
  Result<std::size_t> do_send(ByteView data, u32 flags,
                              std::optional<SockAddr> to) override;
  Status do_connect(SockAddr peer) override;
  Status do_shutdown(ShutdownHow how) override;
  void handle_packet(const Packet& p) override;
  bool reapable() const override { return user_closed(); }

  bool connected() const { return connected_; }

  /// In-kernel view of the receive queue (checkpoint diagnostics/tests).
  std::size_t queue_len() const { return recv_q_.size(); }
  std::size_t queue_bytes() const;
  /// Whether the application has peeked at queued data without consuming
  /// it (forces queue preservation across checkpoint; paper §5).
  bool peeked() const { return peeked_; }

  /// Maximum datagram payload accepted by do_send.
  static constexpr std::size_t kMaxDatagram = 65507;

 private:
  struct Datagram {
    SockAddr from;
    Bytes data;
  };

  std::deque<Datagram> recv_q_;
  std::size_t queued_bytes_ = 0;
  bool connected_ = false;
  bool peeked_ = false;
};

}  // namespace zapc::net
