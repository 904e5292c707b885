#ifndef DIFFC_UTIL_STATUS_H_
#define DIFFC_UTIL_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace diffc {

/// Error categories used across the library. The library does not throw
/// exceptions; fallible operations return `Status` or `Result<T>`.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kOutOfRange = 2,
  kFailedPrecondition = 3,
  kNotFound = 4,
  kResourceExhausted = 5,
  kInternal = 6,
  kDeadlineExceeded = 7,
  kCancelled = 8,
  kUnavailable = 9,
};

/// The largest declared `StatusCode` enumerator — the wire codecs bound
/// incoming status-code bytes with it, so it must track the enum above.
inline constexpr StatusCode kMaxStatusCode = StatusCode::kUnavailable;

/// Returns a stable human-readable name for `code` (e.g. "InvalidArgument").
const char* StatusCodeName(StatusCode code);

/// A lightweight success-or-error value, modeled on absl::Status.
///
/// A default-constructed `Status` is OK. Error statuses carry a code and a
/// message describing what went wrong.
///
/// `[[nodiscard]]`: every function returning a `Status` reports a failure
/// the caller must either handle or *explicitly* discard with a
/// `(void)`-cast carrying a comment that says why the error cannot matter
/// (the project linter rejects bare `(void)` discards). Silently dropping
/// a `Status` is how PR 1–2's overflow / deadline / degrade signals turn
/// back into silent wrong answers, so the compiler now rejects it.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with the given code and message. `code` may be
  /// `kOk`, in which case the message is ignored.
  Status(StatusCode code, std::string message)
      : code_(code), message_(code == StatusCode::kOk ? "" : std::move(message)) {}

  /// Returns an OK status.
  static Status Ok() { return Status(); }
  /// Returns an InvalidArgument error with `message`.
  static Status InvalidArgument(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }
  /// Returns an OutOfRange error with `message`.
  static Status OutOfRange(std::string message) {
    return Status(StatusCode::kOutOfRange, std::move(message));
  }
  /// Returns a FailedPrecondition error with `message`.
  static Status FailedPrecondition(std::string message) {
    return Status(StatusCode::kFailedPrecondition, std::move(message));
  }
  /// Returns a NotFound error with `message`.
  static Status NotFound(std::string message) {
    return Status(StatusCode::kNotFound, std::move(message));
  }
  /// Returns a ResourceExhausted error with `message`.
  static Status ResourceExhausted(std::string message) {
    return Status(StatusCode::kResourceExhausted, std::move(message));
  }
  /// Returns an Internal error with `message`.
  static Status Internal(std::string message) {
    return Status(StatusCode::kInternal, std::move(message));
  }
  /// Returns a DeadlineExceeded error with `message` — a wall-clock bound
  /// expired before the computation finished.
  static Status DeadlineExceeded(std::string message) {
    return Status(StatusCode::kDeadlineExceeded, std::move(message));
  }
  /// Returns a Cancelled error with `message` — the caller's `CancelToken`
  /// fired before or during the computation.
  static Status Cancelled(std::string message) {
    return Status(StatusCode::kCancelled, std::move(message));
  }
  /// Returns an Unavailable error with `message` — a transport-level
  /// failure (connection reset, torn frame, unreachable or injected-fault
  /// endpoint). Unavailable is the retryable failure class: the operation
  /// may not have executed at all.
  static Status Unavailable(std::string message) {
    return Status(StatusCode::kUnavailable, std::move(message));
  }

  /// True iff this status represents success.
  bool ok() const { return code_ == StatusCode::kOk; }
  /// The status code.
  StatusCode code() const { return code_; }
  /// The error message; empty for OK statuses.
  const std::string& message() const { return message_; }

  /// Renders "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  /// Statuses are equal iff code and message are equal (all OK statuses
  /// compare equal: an OK never carries a message).
  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }
  friend bool operator!=(const Status& a, const Status& b) { return !(a == b); }

 private:
  StatusCode code_;
  std::string message_;
};

/// A value-or-error union, modeled on absl::StatusOr.
///
/// Either holds a `T` (when `ok()`) or an error `Status`. Accessing the value
/// of a non-OK result aborts in debug builds and is undefined otherwise.
///
/// `[[nodiscard]]` for the same reason as `Status`: a dropped `Result` is a
/// dropped error (and a wasted computation).
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Constructs a successful result holding `value`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  /// Constructs a failed result from a non-OK `status`.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  /// True iff a value is present.
  bool ok() const { return value_.has_value(); }
  /// The status: OK when a value is present.
  Status status() const { return value_.has_value() ? Status::Ok() : status_; }

  /// The held value; requires `ok()`.
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  /// The held value; requires `ok()`.
  T& value() & {
    assert(ok());
    return *value_;
  }
  /// Moves the held value out; requires `ok()`.
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  /// Dereference sugar; requires `ok()`.
  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace diffc

#endif  // DIFFC_UTIL_STATUS_H_
