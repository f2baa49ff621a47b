#include "server/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace rdfdb::server {

namespace {

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// recv() with EINTR retry. Returns n > 0 on data, 0 on EOF, -1 on a
/// real error (errno preserved).
ssize_t RecvSome(int fd, char* buf, size_t len) {
  for (;;) {
    const ssize_t n = ::recv(fd, buf, len, 0);
    if (n < 0 && errno == EINTR) continue;
    return n;
  }
}

}  // namespace

std::optional<std::string> HttpRequest::Header(
    const std::string& name) const {
  auto it = headers.find(ToLower(name));
  if (it == headers.end()) return std::nullopt;
  return it->second;
}

const char* HttpStatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 413:
      return "Content Too Large";
    case 499:
      return "Client Closed Request";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
    case 504:
      return "Gateway Timeout";
    default:
      return "Error";
  }
}

Result<HttpRequest> ParseHttpRequestHead(std::string_view head) {
  HttpRequest req;
  const size_t line_end = head.find("\r\n");
  if (line_end == std::string_view::npos) {
    return Status::InvalidArgument("missing request line terminator");
  }
  const std::string_view line = head.substr(0, line_end);
  const size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos || sp1 == 0) {
    return Status::InvalidArgument("malformed request line");
  }
  const size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos || sp2 == sp1 + 1) {
    return Status::InvalidArgument("malformed request line");
  }
  req.method = std::string(line.substr(0, sp1));
  req.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  if (req.target.empty() || req.target[0] != '/') {
    return Status::InvalidArgument("request target must start with /");
  }
  if (line.compare(sp2 + 1, 5, "HTTP/") != 0) {
    return Status::InvalidArgument("malformed HTTP version");
  }
  const size_t qpos = req.target.find('?');
  if (qpos == std::string::npos) {
    req.path = req.target;
  } else {
    req.path = req.target.substr(0, qpos);
    req.query = req.target.substr(qpos + 1);
  }

  size_t at = line_end + 2;
  while (at < head.size()) {
    const size_t eol = head.find("\r\n", at);
    if (eol == std::string_view::npos) {
      return Status::InvalidArgument("missing header terminator");
    }
    if (eol == at) break;  // blank line: end of head
    const std::string_view header = head.substr(at, eol - at);
    const size_t colon = header.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return Status::InvalidArgument("malformed header line");
    }
    req.headers[ToLower(Trim(header.substr(0, colon)))] =
        std::string(Trim(header.substr(colon + 1)));
    at = eol + 2;
  }
  return req;
}

Result<HttpRequest> ReadHttpRequest(int fd, const HttpLimits& limits) {
  // Read until the blank line that ends the head, never buffering more
  // than the head cap.
  std::string buffer;
  size_t head_end = std::string::npos;
  char chunk[2048];
  while (head_end == std::string::npos) {
    if (buffer.size() >= limits.max_head_bytes) {
      return Status::OutOfRange("request head exceeds " +
                                std::to_string(limits.max_head_bytes) +
                                " bytes");
    }
    const ssize_t n = RecvSome(fd, chunk, sizeof(chunk));
    if (n < 0) {
      return Status::IOError(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) {
      if (buffer.empty()) return Status::IOError("client closed connection");
      return Status::InvalidArgument("truncated request head");
    }
    // Re-scan across the chunk boundary ("\r\n\r\n" may straddle it).
    const size_t scan_from = buffer.size() < 3 ? 0 : buffer.size() - 3;
    buffer.append(chunk, static_cast<size_t>(n));
    head_end = buffer.find("\r\n\r\n", scan_from);
  }

  RDFDB_ASSIGN_OR_RETURN(HttpRequest req,
                         ParseHttpRequestHead(
                             std::string_view(buffer).substr(0, head_end + 4)));

  size_t content_length = 0;
  if (std::optional<std::string> cl = req.Header("content-length")) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(cl->c_str(), &end, 10);
    if (end == cl->c_str() || *end != '\0') {
      return Status::InvalidArgument("malformed Content-Length");
    }
    content_length = static_cast<size_t>(v);
  }
  if (content_length > limits.max_body_bytes) {
    return Status::OutOfRange("request body of " +
                              std::to_string(content_length) +
                              " bytes exceeds " +
                              std::to_string(limits.max_body_bytes));
  }

  req.body = buffer.substr(head_end + 4);
  if (req.body.size() > content_length) {
    req.body.resize(content_length);  // pipelined extra bytes: ignored
  }
  while (req.body.size() < content_length) {
    const size_t want = std::min<size_t>(sizeof(chunk),
                                         content_length - req.body.size());
    const ssize_t n = RecvSome(fd, chunk, want);
    if (n < 0) {
      return Status::IOError(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) return Status::InvalidArgument("truncated request body");
    req.body.append(chunk, static_cast<size_t>(n));
  }
  return req;
}

std::string RenderHttpHead(const HttpResponse& response) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    HttpStatusText(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  for (const auto& [name, value] : response.extra_headers) {
    out += name + ": " + value + "\r\n";
  }
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  return out;
}

void SendHttpResponse(int fd, const HttpResponse& response) {
  const std::string head = RenderHttpHead(response);
  iovec iov[2] = {
      {const_cast<char*>(head.data()), head.size()},
      {const_cast<char*>(response.body.data()), response.body.size()}};
  iovec* next = iov;
  size_t count = 2;
  while (count > 0) {
    msghdr msg{};
    msg.msg_iov = next;
    msg.msg_iovlen = count;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;
    }
    // Skip what was sent: whole iovecs first, then a partial one.
    size_t sent = static_cast<size_t>(n);
    while (count > 0 && sent >= next->iov_len) {
      sent -= next->iov_len;
      ++next;
      --count;
    }
    if (count > 0) {
      next->iov_base = static_cast<char*>(next->iov_base) + sent;
      next->iov_len -= sent;
    }
  }
}

HttpResponse ResponseForParseError(const Status& status) {
  HttpResponse resp;
  resp.status = status.IsOutOfRange() ? 413 : 400;
  resp.body = status.message() + "\n";
  return resp;
}

void SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;
    }
    off += static_cast<size_t>(n);
  }
}

std::string PercentDecode(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '+') {
      out.push_back(' ');
    } else if (c == '%' && i + 2 < text.size()) {
      const int hi = HexDigit(text[i + 1]);
      const int lo = HexDigit(text[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
      } else {
        out.push_back(c);
      }
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string PercentEncode(std::string_view text) {
  static const char* kHex = "0123456789ABCDEF";
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    const unsigned char u = static_cast<unsigned char>(c);
    const bool unreserved = (u >= 'A' && u <= 'Z') ||
                            (u >= 'a' && u <= 'z') ||
                            (u >= '0' && u <= '9') || u == '-' || u == '_' ||
                            u == '.' || u == '~';
    if (unreserved) {
      out.push_back(c);
    } else {
      out.push_back('%');
      out.push_back(kHex[u >> 4]);
      out.push_back(kHex[u & 0xf]);
    }
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> ParseQueryParams(
    std::string_view query) {
  std::vector<std::pair<std::string, std::string>> out;
  size_t at = 0;
  while (at <= query.size()) {
    size_t amp = query.find('&', at);
    if (amp == std::string_view::npos) amp = query.size();
    const std::string_view pair = query.substr(at, amp - at);
    if (!pair.empty()) {
      const size_t eq = pair.find('=');
      if (eq == std::string_view::npos) {
        out.emplace_back(PercentDecode(pair), "");
      } else {
        out.emplace_back(PercentDecode(pair.substr(0, eq)),
                         PercentDecode(pair.substr(eq + 1)));
      }
    }
    at = amp + 1;
  }
  return out;
}

std::optional<std::string> FindParam(
    const std::vector<std::pair<std::string, std::string>>& params,
    const std::string& name) {
  for (const auto& [key, value] : params) {
    if (key == name) return value;
  }
  return std::nullopt;
}

Result<HttpClientResponse> HttpRoundTrip(
    const std::string& host, uint16_t port, const std::string& method,
    const std::string& target,
    const std::vector<std::pair<std::string, std::string>>& headers,
    const std::string& body, int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  if (timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const Status st =
        Status::IOError(std::string("connect: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }

  std::string request = method + " " + target + " HTTP/1.1\r\n";
  request += "Host: " + host + "\r\n";
  for (const auto& [name, value] : headers) {
    request += name + ": " + value + "\r\n";
  }
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  request += "Connection: close\r\n\r\n";
  request += body;
  SendAll(fd, request);

  // The server closes after one response, so read to EOF.
  std::string raw;
  char chunk[4096];
  for (;;) {
    const ssize_t n = RecvSome(fd, chunk, sizeof(chunk));
    if (n < 0) {
      const Status st =
          Status::IOError(std::string("recv: ") + std::strerror(errno));
      ::close(fd);
      return st;
    }
    if (n == 0) break;
    raw.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);

  const size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    return Status::IOError("truncated response");
  }
  HttpClientResponse resp;
  const size_t line_end = raw.find("\r\n");
  const std::string line = raw.substr(0, line_end);
  // "HTTP/1.1 NNN Reason"
  const size_t sp = line.find(' ');
  if (sp == std::string::npos) {
    return Status::IOError("malformed response status line");
  }
  resp.status = std::atoi(line.c_str() + sp + 1);
  size_t at = line_end + 2;
  while (at < head_end) {
    const size_t eol = raw.find("\r\n", at);
    const std::string_view header =
        std::string_view(raw).substr(at, eol - at);
    const size_t colon = header.find(':');
    if (colon != std::string_view::npos && colon > 0) {
      resp.headers[ToLower(Trim(header.substr(0, colon)))] =
          std::string(Trim(header.substr(colon + 1)));
    }
    at = eol + 2;
  }
  resp.body = raw.substr(head_end + 4);
  return resp;
}

}  // namespace rdfdb::server
