// Bounded HTTP/1.1 request parsing and response writing: the one HTTP
// stack of the process. RdfServer (server/server.h) serves every
// endpoint through it, the observability surfaces included. It also
// holds the tiny blocking client the load generator and the tests use.
//
// One request per connection, Connection: close, no chunked encoding,
// no keep-alive. The front-end accepts POST bodies, so parsing is
// bounded at every stage: the request head (request line + headers) is
// capped, the declared Content-Length is capped, and anything over a
// cap is answered with 413 instead of being buffered without limit.
// Malformed requests get 400. The caps are the first line of defense
// for a socket exposed beyond localhost.

#ifndef RDFDB_SERVER_HTTP_H_
#define RDFDB_SERVER_HTTP_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace rdfdb::server {

/// Parsing bounds. A request that exceeds one maps to 413.
struct HttpLimits {
  /// Request line + headers, up to and including the blank line.
  size_t max_head_bytes = 16 * 1024;
  /// Declared Content-Length (N-Triples insert batches are the largest
  /// legitimate body; 4 MiB holds ~40k statements).
  size_t max_body_bytes = 4 * 1024 * 1024;
};

/// One parsed request. Header names are lower-cased; values are
/// whitespace-trimmed. `path` and `query` are the split target
/// (`query` excludes the '?', still percent-encoded).
struct HttpRequest {
  std::string method;
  std::string target;
  std::string path;
  std::string query;
  std::map<std::string, std::string> headers;
  std::string body;

  /// Header value by lower-case name; nullopt when absent.
  std::optional<std::string> Header(const std::string& name) const;
};

/// One response. `extra_headers` are emitted verbatim after
/// Content-Type (e.g. Retry-After on a shed).
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  std::vector<std::pair<std::string, std::string>> extra_headers;
};

/// Reason phrase for the status codes this server emits.
const char* HttpStatusText(int status);

/// Parse a request from a buffer that holds the complete head (callers
/// reading from a socket use ReadHttpRequest, which also fetches the
/// body). Errors: InvalidArgument = 400, OutOfRange = 413.
Result<HttpRequest> ParseHttpRequestHead(std::string_view head);

/// Read and parse one full request from a connected socket, enforcing
/// `limits` while reading. Errors: InvalidArgument = 400 (malformed),
/// OutOfRange = 413 (over a cap), IOError = client vanished or stalled
/// (no response owed).
Result<HttpRequest> ReadHttpRequest(int fd, const HttpLimits& limits);

/// Status line + headers + the blank line that ends them, with
/// Content-Length set to the body's size and Connection: close.
std::string RenderHttpHead(const HttpResponse& response);

/// Write the head and then the body with one gather write (sendmsg,
/// two iovecs, MSG_NOSIGNAL), looping on short writes, so the body is
/// never copied and the head does not go out as its own small segment.
/// EINTR-safe; gives up on other errors.
void SendHttpResponse(int fd, const HttpResponse& response);

/// Map a parse error from ReadHttpRequest to the response it earned
/// (400 or 413, with the status message as the body).
HttpResponse ResponseForParseError(const Status& status);

/// send() until done (EINTR-safe; gives up on other errors).
void SendAll(int fd, const std::string& data);

/// Percent-decode (+ becomes space, %XX becomes the byte; malformed
/// escapes pass through verbatim).
std::string PercentDecode(std::string_view text);

/// Percent-encode for use in a query-string value.
std::string PercentEncode(std::string_view text);

/// Split "a=1&b=two" into decoded (name, value) pairs, order kept
/// (names may repeat, e.g. model=a&model=b).
std::vector<std::pair<std::string, std::string>> ParseQueryParams(
    std::string_view query);

/// First value of `name` in `params`; nullopt when absent.
std::optional<std::string> FindParam(
    const std::vector<std::pair<std::string, std::string>>& params,
    const std::string& name);

/// A client-side response (the loadgen/test half of the protocol).
struct HttpClientResponse {
  int status = 0;
  std::map<std::string, std::string> headers;  ///< lower-cased names
  std::string body;
};

/// Blocking one-shot client: connect to host:port, send the request,
/// read the full response. `timeout_ms` bounds connect and each I/O
/// (<= 0 disables).
Result<HttpClientResponse> HttpRoundTrip(
    const std::string& host, uint16_t port, const std::string& method,
    const std::string& target,
    const std::vector<std::pair<std::string, std::string>>& headers,
    const std::string& body, int timeout_ms = 5000);

}  // namespace rdfdb::server

#endif  // RDFDB_SERVER_HTTP_H_
