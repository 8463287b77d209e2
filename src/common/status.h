#pragma once

#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <utility>

namespace relcomp {

/// \brief Canonical error codes used across the library (RocksDB/Arrow idiom).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kIOError,
  kFailedPrecondition,
  kOutOfRange,
  kNotSupported,
  kInternal,
  /// Transient resource exhaustion (e.g. a full bounded queue): safe to
  /// retry later, unlike kFailedPrecondition which reflects object state.
  kUnavailable,
  /// The caller's deadline elapsed before the operation finished. Transient
  /// in the same sense as kUnavailable: the identical request succeeds given
  /// a looser deadline.
  kDeadlineExceeded,
  /// The caller explicitly cancelled the operation (CancelToken::Cancel).
  /// Transient: says nothing about the request itself.
  kCancelled,
};

/// \brief Human-readable name of a status code (e.g. "InvalidArgument").
const char* StatusCodeName(StatusCode code);

/// \brief Lightweight status object: either OK or an error code plus message.
///
/// The library does not throw exceptions; every fallible operation returns a
/// Status (or a Result<T> for value-producing operations).
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// \name Factory helpers for the canonical error codes.
  /// @{
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  /// @}

  /// True iff the status is OK.
  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

  /// Aborts the process with a diagnostic if the status is not OK.
  /// Use only in tests, examples, and benchmark drivers.
  void CheckOK() const {
    if (!ok()) {
      std::cerr << "Status not OK: " << ToString() << std::endl;
      std::abort();
    }
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// \brief Either a value of type T or an error Status.
///
/// Mirrors arrow::Result / absl::StatusOr. A default-constructed Result is an
/// Internal error ("uninitialized").
template <typename T>
class Result {
 public:
  Result() : status_(Status::Internal("uninitialized Result")) {}
  /*implicit*/ Result(T value) : status_(Status::OK()), value_(std::move(value)) {}
  /*implicit*/ Result(Status status) : status_(std::move(status)) {
    if (status_.ok()) {
      status_ = Status::Internal("Result constructed from OK status without value");
    }
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Precondition: ok(). Aborts otherwise.
  const T& value() const& {
    EnsureOK();
    return *value_;
  }
  T& value() & {
    EnsureOK();
    return *value_;
  }
  /// Moves the value out. Precondition: ok().
  T MoveValue() {
    EnsureOK();
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value, or `fallback` if this Result holds an error.
  T ValueOr(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  void EnsureOK() const {
    if (!ok()) {
      std::cerr << "Result accessed with non-OK status: " << status_.ToString()
                << std::endl;
      std::abort();
    }
  }

  Status status_;
  std::optional<T> value_;
};

/// Propagates a non-OK Status out of the enclosing function.
#define RELCOMP_RETURN_NOT_OK(expr)            \
  do {                                         \
    ::relcomp::Status _st = (expr);            \
    if (!_st.ok()) return _st;                 \
  } while (0)

#define RELCOMP_CONCAT_IMPL(a, b) a##b
#define RELCOMP_CONCAT(a, b) RELCOMP_CONCAT_IMPL(a, b)

#define RELCOMP_ASSIGN_OR_RETURN_IMPL(var, lhs, rexpr)   \
  auto var = (rexpr);                                    \
  if (!var.ok()) return var.status();                    \
  lhs = var.MoveValue();

/// Evaluates `rexpr` (a Result<T>), propagates its error, else assigns to lhs.
#define RELCOMP_ASSIGN_OR_RETURN(lhs, rexpr) \
  RELCOMP_ASSIGN_OR_RETURN_IMPL(RELCOMP_CONCAT(_result_, __COUNTER__), lhs, rexpr)

}  // namespace relcomp
