// Raw IP sockets: deliver whole IP payloads for a protocol number.
// Included because the paper's scheme covers "TCP, UDP and raw IP".
#pragma once

#include <deque>
#include <optional>

#include "net/socket.h"

namespace zapc::net {

class RawSocket final : public Socket {
 public:
  RawSocket(Stack& stack, SockId id);

  Result<RecvResult> do_recvmsg(std::size_t maxlen, u32 flags) override;
  u32 do_poll() override;
  void do_release() override;
  Result<std::size_t> do_send(ByteView data, u32 flags,
                              std::optional<SockAddr> to) override;
  Status do_connect(SockAddr peer) override;
  Status do_shutdown(ShutdownHow how) override;
  void handle_packet(const Packet& p) override;
  bool reapable() const override { return user_closed(); }

  /// Binds this socket to a guest IP protocol number.
  Status bind_proto(u8 raw_proto);
  u8 raw_proto() const { return raw_proto_; }
  std::size_t queue_len() const { return recv_q_.size(); }

 private:
  struct RawDatagram {
    SockAddr from;
    Bytes data;
  };

  u8 raw_proto_ = 0;
  bool proto_bound_ = false;
  std::deque<RawDatagram> recv_q_;
};

}  // namespace zapc::net
