#include "mpi/msgio.h"

#include <algorithm>

namespace zapc::mpi {

void MsgIo::send(u32 tag, const Bytes& data) {
  Encoder e;
  e.put_u32(tag);
  e.put_u32(static_cast<u32>(data.size()));
  tx_.append(e.bytes());
  tx_.append(data);
}

bool MsgIo::progress(os::Syscalls& sys) {
  if (failed_ || fd_ < 0) return !failed_;

  // Transmit.
  while (!tx_.empty()) {
    std::size_t n = std::min<std::size_t>(tx_.size(), 64 * 1024);
    auto w = sys.send(fd_, ByteView(tx_.data(), n), 0);
    if (!w.is_ok()) {
      if (w.err() == Err::WOULD_BLOCK) break;
      failed_ = true;
      return false;
    }
    tx_.consume(w.value());
    if (w.value() < n) break;
  }

  // Receive.  On EOF/error the connection is marked failed but any bytes
  // that arrived with (or before) the close still get reassembled below —
  // a peer may legitimately send its last message and exit.
  while (true) {
    auto r = sys.recv(fd_, 64 * 1024, 0);
    if (!r.is_ok()) {
      if (r.err() == Err::WOULD_BLOCK) break;
      failed_ = true;
      break;
    }
    if (r.value().eof) {
      failed_ = true;
      break;
    }
    rx_.append(r.value().data);
  }

  // Reassemble frames.
  while (rx_.size() >= 8) {
    Decoder d(rx_.data(), 8);
    u32 tag = d.u32_().value_or(0);
    u32 len = d.u32_().value_or(0);
    if (rx_.size() - 8 < len) break;
    inbox_.push_back(Msg{tag, rx_.copy(8, len)});
    rx_.consume(8 + std::size_t{len});
  }
  return !failed_;
}

std::optional<Msg> MsgIo::pop() {
  if (inbox_.empty()) return std::nullopt;
  Msg m = std::move(inbox_.front());
  inbox_.pop_front();
  return m;
}

std::optional<Msg> MsgIo::pop_tag(u32 tag) {
  for (auto it = inbox_.begin(); it != inbox_.end(); ++it) {
    if (it->tag == tag) {
      Msg m = std::move(*it);
      inbox_.erase(it);
      return m;
    }
  }
  return std::nullopt;
}

void MsgIo::save(Encoder& e) const {
  e.put_i32(fd_);
  e.put_bytes(tx_.view());
  e.put_bytes(rx_.view());
  e.put_u32(static_cast<u32>(inbox_.size()));
  for (const Msg& m : inbox_) {
    e.put_u32(m.tag);
    e.put_bytes(m.data);
  }
  e.put_bool(failed_);
}

void MsgIo::load(Decoder& d) {
  fd_ = d.i32_().value_or(-1);
  tx_.clear();
  tx_.append(d.bytes_().value_or({}));
  rx_.clear();
  rx_.append(d.bytes_().value_or({}));
  inbox_.clear();
  u32 n = d.count_(9).value_or(0);
  for (u32 i = 0; i < n; ++i) {
    Msg m;
    m.tag = d.u32_().value_or(0);
    m.data = d.bytes_().value_or({});
    inbox_.push_back(std::move(m));
  }
  failed_ = d.bool_().value_or(false);
}

}  // namespace zapc::mpi
