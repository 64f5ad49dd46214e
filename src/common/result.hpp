// Lightweight Result<T> for recoverable errors (malformed packets, bad
// base64, rejected requests). Exceptions are reserved for programming errors
// and unrecoverable conditions, per the error-handling guidelines.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace pprox {

/// Error payload: a stable machine code plus a human-readable message.
struct Error {
  enum class Code {
    kInvalidArgument,
    kParseError,
    kCryptoError,
    kNotFound,
    kPermissionDenied,
    kUnavailable,
    kInternal,
  };

  Code code = Code::kInternal;
  std::string message;

  static Error invalid(std::string msg) { return {Code::kInvalidArgument, std::move(msg)}; }
  static Error parse(std::string msg) { return {Code::kParseError, std::move(msg)}; }
  static Error crypto(std::string msg) { return {Code::kCryptoError, std::move(msg)}; }
  static Error not_found(std::string msg) { return {Code::kNotFound, std::move(msg)}; }
  static Error denied(std::string msg) { return {Code::kPermissionDenied, std::move(msg)}; }
  static Error unavailable(std::string msg) { return {Code::kUnavailable, std::move(msg)}; }
  static Error internal(std::string msg) { return {Code::kInternal, std::move(msg)}; }
};

/// Returns a short name for an error code, for logs and HTTP mapping.
const char* to_string(Error::Code code);

/// Minimal expected-like result. `value()` throws std::runtime_error when
/// called on an error result — use `ok()` first on untrusted paths.
template <typename T>
class Result {
 public:
  Result(T value) : data_(std::move(value)) {}          // NOLINT implicit
  Result(Error error) : data_(std::move(error)) {}      // NOLINT implicit
  /// Constructs the value in place from T's constructor arguments.
  template <typename... Args>
  explicit Result(std::in_place_t, Args&&... args)
      : data_(std::in_place_index<0>, std::forward<Args>(args)...) {}

  bool ok() const { return std::holds_alternative<T>(data_); }
  explicit operator bool() const { return ok(); }

  const T& value() const& {
    require_ok();
    return std::get<T>(data_);
  }
  T& value() & {
    require_ok();
    return std::get<T>(data_);
  }
  T&& value() && {
    require_ok();
    return std::get<T>(std::move(data_));
  }

  const Error& error() const {
    if (ok()) throw std::runtime_error("Result: error() on ok result");
    return std::get<Error>(data_);
  }

  /// Value or a fallback, never throws.
  T value_or(T fallback) const {
    return ok() ? std::get<T>(data_) : std::move(fallback);
  }

 private:
  void require_ok() const {
    if (!ok()) {
      throw std::runtime_error("Result: " + std::get<Error>(data_).message);
    }
  }
  std::variant<T, Error> data_;
};

/// Result with no payload.
class Status {
 public:
  Status() = default;
  Status(Error error) : error_(std::move(error)) {}  // NOLINT implicit

  static Status ok_status() { return Status(); }

  bool ok() const { return !error_.has_value(); }
  explicit operator bool() const { return ok(); }
  const Error& error() const { return *error_; }

 private:
  std::optional<Error> error_;
};

}  // namespace pprox
