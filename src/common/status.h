// Status / Result<T>: lightweight error propagation in the Arrow/RocksDB
// idiom. The library never throws across its public API; fallible
// operations return Status (or Result<T> when they produce a value).
#ifndef PRIVBASIS_COMMON_STATUS_H_
#define PRIVBASIS_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

namespace privbasis {

/// Broad category of an error. Mirrors the subset of absl/arrow codes the
/// library actually needs.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kFailedPrecondition = 4,
  kIoError = 5,
  kResourceExhausted = 6,
  kInternal = 7,
  /// A privacy-budget ledger would be overdrawn by the requested spend.
  kBudgetExhausted = 8,
  /// The service cannot answer yet (e.g. ledger replay in progress after
  /// a restart) — retryable, maps to HTTP 503.
  kUnavailable = 9,
  /// The caller gave up (deadline expired or explicit cancel) and a
  /// cooperative scan unwound early — maps to HTTP 408.
  kCancelled = 10,
};

/// Returns a stable human-readable name for a status code ("OK",
/// "InvalidArgument", ...).
const char* StatusCodeToString(StatusCode code);

/// Result of a fallible operation: either OK or a (code, message) pair.
///
/// Cheap to copy in the OK case (a single enum); error messages are stored
/// out-of-line only when present.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status BudgetExhausted(std::string msg) {
    return Status(StatusCode::kBudgetExhausted, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// A value-or-error wrapper. `Result<T>` holds either a `T` or a non-OK
/// Status. Accessing the value of an errored result aborts in debug builds.
template <typename T>
class Result {
 public:
  /// Implicit from a value: success.
  Result(T value) : status_(), value_(std::move(value)) {}  // NOLINT
  /// Implicit from a non-OK status: failure.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  /// Returns the contained value or `fallback` when errored.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Propagates a non-OK status to the caller (statement macro).
#define PRIVBASIS_RETURN_NOT_OK(expr)       \
  do {                                      \
    ::privbasis::Status _st = (expr);       \
    if (!_st.ok()) return _st;              \
  } while (false)

/// Assigns the value of a Result expression to `lhs`, propagating errors.
#define PRIVBASIS_ASSIGN_OR_RETURN(lhs, rexpr)         \
  auto PRIVBASIS_CONCAT_(_res_, __LINE__) = (rexpr);   \
  if (!PRIVBASIS_CONCAT_(_res_, __LINE__).ok())        \
    return PRIVBASIS_CONCAT_(_res_, __LINE__).status();\
  lhs = std::move(PRIVBASIS_CONCAT_(_res_, __LINE__)).value()

#define PRIVBASIS_CONCAT_INNER_(a, b) a##b
#define PRIVBASIS_CONCAT_(a, b) PRIVBASIS_CONCAT_INNER_(a, b)

}  // namespace privbasis

#endif  // PRIVBASIS_COMMON_STATUS_H_
