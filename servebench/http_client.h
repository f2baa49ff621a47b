// A blocking one-request-per-connection HTTP/1.1 client for loopback.
//
// The benchmark carries its own client so that the client half of every
// timed round trip is the same code on both sides of a comparison: only
// the server under test changes between two commits.

#ifndef SERVEBENCH_HTTP_CLIENT_H_
#define SERVEBENCH_HTTP_CLIENT_H_

#include <cstdint>
#include <string>

namespace servebench {

struct HttpReply {
  int status = 0;     ///< 0 = transport error (see `error`)
  std::string body;
  std::string error;  ///< transport failure text, empty on success
};

/// Connect to 127.0.0.1:`port`, send one request with `body` (empty =
/// none), and read the whole response; the server closes the
/// connection after it. `timeout_ms` bounds each socket operation.
HttpReply RoundTrip(uint16_t port, const std::string& method,
                    const std::string& target, const std::string& body,
                    int timeout_ms);

/// Percent-encode a query-string value.
std::string PercentEncode(const std::string& text);

}  // namespace servebench

#endif  // SERVEBENCH_HTTP_CLIENT_H_
