// Status / Result error-handling primitives.
//
// The virtual OS and network stack report failures with POSIX-like error
// codes so that guest programs read like real socket code.
#pragma once

#include <string>
#include <utility>
#include <variant>

#include "util/types.h"

namespace zapc {

/// POSIX-flavoured error codes used by the virtual OS and socket layer.
enum class Err : i32 {
  OK = 0,
  WOULD_BLOCK,      // operation would block (EAGAIN/EWOULDBLOCK)
  INVALID,          // invalid argument (EINVAL)
  BAD_FD,           // bad file descriptor (EBADF)
  NOT_CONNECTED,    // socket not connected (ENOTCONN)
  ALREADY_CONNECTED,// socket already connected (EISCONN)
  CONN_REFUSED,     // connection refused (ECONNREFUSED)
  CONN_RESET,       // connection reset by peer (ECONNRESET)
  ADDR_IN_USE,      // address already in use (EADDRINUSE)
  ADDR_UNREACH,     // address unreachable (EHOSTUNREACH)
  TIMED_OUT,        // operation timed out (ETIMEDOUT)
  PIPE,             // broken pipe / write to shutdown socket (EPIPE)
  IN_PROGRESS,      // connect in progress (EINPROGRESS)
  NO_ENT,           // no such file/process (ENOENT)
  EXISTS,           // already exists (EEXIST)
  PERM,             // operation not permitted (EPERM)
  INTR,             // interrupted (EINTR)
  MSG_SIZE,         // datagram too large (EMSGSIZE)
  NO_BUFS,          // queue full / out of buffer space (ENOBUFS)
  NOT_SUPPORTED,    // operation not supported on this socket (EOPNOTSUPP)
  PROTO,            // protocol error / checkpoint format error
  ABORTED,          // operation aborted (coordinated c/r abort path)
  IO,               // storage I/O error
};

/// Human-readable name of an error code (e.g. "WOULD_BLOCK").
const char* err_name(Err e);

/// A success-or-error outcome with an optional context message.
class [[nodiscard]] Status {
 public:
  Status() : err_(Err::OK) {}
  Status(Err e, std::string msg = {}) : err_(e), msg_(std::move(msg)) {}

  static Status ok() { return Status(); }

  bool is_ok() const { return err_ == Err::OK; }
  explicit operator bool() const { return is_ok(); }
  Err err() const { return err_; }
  const std::string& message() const { return msg_; }

  /// Formats as "OK" or "ERRNAME: message".
  std::string to_string() const;

 private:
  Err err_;
  std::string msg_;
};

/// A value-or-error outcome.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : v_(std::move(value)) {}            // NOLINT(google-explicit-constructor)
  Result(Err e, std::string msg = {})                  // NOLINT(google-explicit-constructor)
      : v_(Status(e, std::move(msg))) {}
  Result(Status s) : v_(std::move(s)) {}               // NOLINT(google-explicit-constructor)

  bool is_ok() const { return std::holds_alternative<T>(v_); }
  explicit operator bool() const { return is_ok(); }

  Err err() const {
    return is_ok() ? Err::OK : std::get<Status>(v_).err();
  }
  Status status() const {
    return is_ok() ? Status::ok() : std::get<Status>(v_);
  }

  T& value() & { return std::get<T>(v_); }
  const T& value() const& { return std::get<T>(v_); }
  T&& value() && { return std::get<T>(std::move(v_)); }

  /// Returns the value or `fallback` on error.  On a temporary Result
  /// the value is moved out, not copied (decoders call this on every
  /// field, including multi-megabyte region bytes).
  T value_or(T fallback) const& {
    return is_ok() ? std::get<T>(v_) : std::move(fallback);
  }
  T value_or(T fallback) && {
    return is_ok() ? std::get<T>(std::move(v_)) : std::move(fallback);
  }

 private:
  std::variant<T, Status> v_;
};

}  // namespace zapc
