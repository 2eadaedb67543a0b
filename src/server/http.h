// Minimal HTTP/1.1 on top of common/net: request parsing with explicit
// limit outcomes, response writing, and a tiny blocking client used by
// the tests and the bench_smoke server_latency phase.
//
// Scope is deliberately narrow — the subset the query server needs:
// Content-Length bodies only (no chunked transfer), no TLS, case-
// insensitive header lookup, keep-alive with Connection: close
// honored. Every limit violation is a distinct outcome, not a generic
// error, because the server maps them to distinct response codes
// (413 body too large, 431 headers too large, 408 timeout, 400
// malformed) — the per-request contract the test harness pins down.
#ifndef PRIVBASIS_SERVER_HTTP_H_
#define PRIVBASIS_SERVER_HTTP_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/net.h"
#include "common/status.h"

namespace privbasis::server {

struct HttpRequest {
  std::string method;   // "GET", "POST", ... (uppercase as received)
  std::string target;   // origin-form, e.g. "/v1/query"
  std::string version;  // "HTTP/1.1"
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// Case-insensitive header lookup; nullptr when absent.
  const std::string* Header(std::string_view name) const;
  /// True unless the client sent "Connection: close" (HTTP/1.1 default).
  bool KeepAlive() const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  /// Extra headers beyond Content-Type/Content-Length/Connection (e.g.
  /// Retry-After on shed responses). On the client side (HttpCall),
  /// holds every response header as received.
  std::vector<std::pair<std::string, std::string>> headers;
  /// Closes the connection after this response (set on fatal parse
  /// outcomes where the stream position is unreliable).
  bool close_connection = false;

  /// Case-insensitive header lookup; nullptr when absent.
  const std::string* Header(std::string_view name) const;
};

/// Byte ceilings of one request.
struct HttpLimits {
  size_t max_header_bytes = 16 * 1024;
  size_t max_body_bytes = 1024 * 1024;
};

/// How reading one request ended. kClosed (clean EOF between requests)
/// is the one non-response outcome; all others either carry a request or
/// name the response the server must send.
enum class HttpReadOutcome {
  kOk,              ///< `request` is complete
  kClosed,          ///< orderly EOF before any request byte
  kTimeout,         ///< deadline hit mid-request → 408
  kMalformed,       ///< grammar violation → 400
  kHeaderTooLarge,  ///< → 431
  kBodyTooLarge,    ///< → 413
  kIoError,         ///< transport error; just drop the connection
};

/// How one non-blocking parse attempt over a byte buffer ended. The
/// pure-buffer twin of HttpReadOutcome: no transport, no deadline —
/// kNeedMore simply means "feed me more bytes", so the epoll event loop
/// can feed it whatever bytes have arrived.
enum class HttpParseOutcome {
  kNeedMore,        ///< incomplete; append more bytes and call again
  kOk,              ///< `request` is complete (consumed from the buffer)
  kMalformed,       ///< grammar violation → 400
  kHeaderTooLarge,  ///< → 431
  kBodyTooLarge,    ///< → 413 (head consumed; see drain_bytes)
};

struct HttpParseResult {
  HttpParseOutcome outcome = HttpParseOutcome::kNeedMore;
  /// On kBodyTooLarge: declared body bytes still in flight on the wire
  /// (the head and already-received body were consumed). The caller
  /// should discard this many incoming bytes before responding, so the
  /// 413 isn't destroyed by a RST from closing with unread data.
  size_t drain_bytes = 0;
};

/// Attempts to parse one complete request from the front of `buffer`.
/// On kOk the request's bytes are consumed (pipelined followers stay);
/// on kNeedMore the buffer is untouched; on kBodyTooLarge the head and
/// received body are consumed and `drain_bytes` reports the remainder.
HttpParseResult ParseHttpRequest(std::string* buffer,
                                 const HttpLimits& limits,
                                 HttpRequest* request);

/// Renders `response` as wire bytes (status line, Content-Type/Length
/// framing — suppressed for 204 per RFC 7230 §3.3.2 — extra headers,
/// Connection: close, body). Shared by WriteHttpResponse and the event
/// loop's write queue.
std::string SerializeHttpResponse(const HttpResponse& response);

/// Writes `response` with Content-Length and Connection headers.
Status WriteHttpResponse(const net::Fd& fd, const HttpResponse& response,
                         net::Deadline deadline);

/// Standard reason phrase for the handful of codes the server emits.
const char* HttpReasonPhrase(int status);

/// Blocking one-shot client: opens a connection, sends `method target`
/// with `body`, reads the response. `timeout_ms` bounds the whole round
/// trip. Used by tests, bench_smoke, and anyone without curl.
Result<HttpResponse> HttpCall(const std::string& host, uint16_t port,
                              const std::string& method,
                              const std::string& target,
                              const std::string& body, int64_t timeout_ms);

}  // namespace privbasis::server

#endif  // PRIVBASIS_SERVER_HTTP_H_
