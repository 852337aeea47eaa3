// Contiguous byte FIFO for stream buffers (TCP socket queues, framed
// message channels).
//
// Bytes live in one vector behind a head offset: appends and reads move
// whole runs with memcpy, consumption just advances the head.  The
// consumed prefix is reclaimed by sliding the live bytes to the front on
// an append, once it makes up half the buffer, so each byte is moved at
// most a constant number of times on average.  Memory follows the bytes
// queued: a queue that drains gives back any capacity above
// kRetainedCapacity, so a socket that once held a large burst does not
// keep it for the rest of its life.
#pragma once

#include <algorithm>
#include <cstring>

#include "util/types.h"

namespace zapc {

class ByteQueue {
 public:
  /// Capacity a drained queue may keep for reuse.
  static constexpr std::size_t kRetainedCapacity = 64 * 1024;

  std::size_t size() const { return buf_.size() - head_; }
  bool empty() const { return size() == 0; }
  /// Allocated bytes, consumed prefix included (memory accounting).
  std::size_t capacity() const { return buf_.capacity(); }

  /// The queued bytes, oldest first; valid until the next append,
  /// consume or clear.
  const u8* data() const { return buf_.data() + head_; }
  ByteView view() const { return {data(), size()}; }
  u8 operator[](std::size_t i) const { return buf_[head_ + i]; }

  void append(const u8* p, std::size_t n) {
    if (n == 0) return;
    if (head_ > 0 && head_ >= buf_.size() / 2) compact();
    buf_.insert(buf_.end(), p, p + n);
  }
  void append(ByteView v) { append(v.data(), v.size()); }

  /// Drops the `n` oldest bytes (clamped to size()).
  void consume(std::size_t n) {
    head_ += std::min(n, size());
    if (head_ == buf_.size()) clear();
  }

  /// Copies `n` bytes starting `off` bytes past the oldest; the queue
  /// itself is unchanged.
  Bytes copy(std::size_t off, std::size_t n) const {
    const u8* p = data() + off;
    return Bytes(p, p + n);
  }

  void clear() {
    head_ = 0;
    buf_.clear();
    if (buf_.capacity() > kRetainedCapacity) {
      Bytes smaller;
      smaller.reserve(kRetainedCapacity);
      buf_.swap(smaller);
    }
  }

 private:
  void compact() {
    const std::size_t live = size();
    std::memmove(buf_.data(), buf_.data() + head_, live);
    buf_.resize(live);
    head_ = 0;
  }

  Bytes buf_;
  std::size_t head_ = 0;
};

}  // namespace zapc
