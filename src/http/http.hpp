// Minimal HTTP/1.1 codec: message types, incremental stream parsers, and a
// tiny REST router. This is the REST surface the LRS exposes and the proxy
// layers forward (paper §2.1, §4.2). Content-Length framing only; the proxy
// controls both producers, so chunked encoding is never emitted.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.hpp"

namespace pprox::http {

using Headers = std::vector<std::pair<std::string, std::string>>;

/// Case-insensitive header lookup; nullptr when absent.
const std::string* find_header(const Headers& headers, std::string_view name);

/// Canonical reason phrase for common status codes.
std::string_view status_reason(int code);

struct HttpRequest {
  std::string method = "GET";
  std::string target = "/";
  Headers headers;
  std::string body;

  void set_header(std::string name, std::string value);
  const std::string* header(std::string_view name) const {
    return find_header(headers, name);
  }

  /// Serializes with a correct Content-Length header.
  std::string serialize() const;
  /// Appends the wire form to `out` without intermediate temporaries, so
  /// callers on the request path can reuse one output buffer.
  void serialize_to(std::string& out) const;
};

struct HttpResponse {
  int status = 200;
  Headers headers;
  std::string body;

  void set_header(std::string name, std::string value);
  const std::string* header(std::string_view name) const {
    return find_header(headers, name);
  }

  std::string serialize() const;
  /// Appends the wire form to `out` (see HttpRequest::serialize_to).
  void serialize_to(std::string& out) const;

  static HttpResponse json_response(int status, std::string body);
  static HttpResponse error_response(int status, std::string_view message);
};

/// Incremental parser over a byte stream carrying consecutive HTTP messages.
/// feed() appends data; next_request()/next_response() pop complete messages.
class HttpParser {
 public:
  enum class Mode { kRequest, kResponse };

  /// Hostile-input bounds: a head (terminating blank line included) longer
  /// than kMaxHeadBytes, whether still unterminated or complete, or a
  /// Content-Length above kMaxBodyBytes, breaks the stream.
  static constexpr std::size_t kMaxHeadBytes = 64 * 1024;
  static constexpr std::size_t kMaxBodyBytes = 16 * 1024 * 1024;

  explicit HttpParser(Mode mode) : mode_(mode) {}

  /// Appends raw bytes from the stream.
  void feed(std::string_view data) {
    buffer_.append(data);
  }

  /// True once the stream is irrecoverably malformed.
  bool broken() const { return broken_; }

  /// Pops the next complete request (kRequest mode). nullopt = need more
  /// data. When the stream is malformed, broken() turns true.
  std::optional<HttpRequest> next_request();

  /// Pops the next complete response (kResponse mode).
  std::optional<HttpResponse> next_response();

  /// Bytes currently buffered but not yet consumed.
  std::size_t buffered() const { return buffer_.size(); }

 private:
  struct Head {
    std::string start_line;
    Headers headers;
    std::size_t body_len = 0;
    std::size_t consumed = 0;  // offset of body start
  };
  std::optional<Head> try_parse_head();

  Mode mode_;
  std::string buffer_;
  bool broken_ = false;
};

/// Request handler signature.
using Handler = std::function<HttpResponse(const HttpRequest&)>;

/// Tiny REST router: exact paths and `*` suffix wildcards, e.g.
/// ("GET", "/engines/*/queries"). The first matching route wins.
class Router {
 public:
  void add(std::string method, std::string pattern, Handler handler);

  /// Dispatches; 404 when no route matches. The query string (after '?') is
  /// ignored for matching.
  HttpResponse dispatch(const HttpRequest& request) const;

  /// True when `pattern` matches `path` ('*' matches one path segment).
  static bool pattern_matches(std::string_view pattern, std::string_view path);

 private:
  struct Route {
    std::string method;
    std::string pattern;
    Handler handler;
  };
  std::vector<Route> routes_;
};

}  // namespace pprox::http
