#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace servebench {

namespace {

/// Closes the socket on every return path.
class Socket {
 public:
  Socket() : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {}
  ~Socket() {
    if (fd_ >= 0) ::close(fd_);
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  int fd() const { return fd_; }

 private:
  int fd_;
};

HttpReply Fail(const char* what) {
  HttpReply reply;
  reply.error = std::string(what) + ": " + std::strerror(errno);
  return reply;
}

}  // namespace

HttpReply RoundTrip(uint16_t port, const std::string& method,
                    const std::string& target, const std::string& body,
                    int timeout_ms) {
  Socket sock;
  if (sock.fd() < 0) return Fail("socket");
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  const int one = 1;
  ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return Fail("connect");
  }

  std::string request = method + " " + target +
                        " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                        "Connection: close\r\n";
  if (!body.empty() || method == "POST") {
    request += "Content-Type: application/n-triples\r\nContent-Length: " +
               std::to_string(body.size()) + "\r\n";
  }
  request += "\r\n";
  request += body;
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(sock.fd(), request.data() + sent,
                             request.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Fail("send");
    }
    sent += static_cast<size_t>(n);
  }

  std::string raw;
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(sock.fd(), buf, sizeof(buf), 0);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      return Fail("recv");
    }
    raw.append(buf, static_cast<size_t>(n));
  }

  HttpReply reply;
  const size_t head_end = raw.find("\r\n\r\n");
  if (raw.compare(0, 9, "HTTP/1.1 ") != 0 || head_end == std::string::npos) {
    reply.error = "malformed response";
    return reply;
  }
  reply.status = std::atoi(raw.c_str() + 9);
  reply.body = raw.substr(head_end + 4);
  return reply;
}

std::string PercentEncode(const std::string& text) {
  static const char* kHex = "0123456789ABCDEF";
  std::string out;
  out.reserve(text.size() * 2);
  for (const unsigned char c : text) {
    if ((c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
        (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.' ||
        c == '~') {
      out += static_cast<char>(c);
    } else {
      out += '%';
      out += kHex[c >> 4];
      out += kHex[c & 15];
    }
  }
  return out;
}

}  // namespace servebench
