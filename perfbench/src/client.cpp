#include "client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>

namespace perfbench {

Client::Client(std::uint16_t port, int connections) {
  conns_.resize(static_cast<std::size_t>(connections));
  for (Conn& c : conns_) {
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (c.fd < 0) throw std::runtime_error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      throw std::runtime_error("connect to the daemon failed");
    }
    const int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
  }
}

Client::~Client() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

void Client::flush(Conn& c) {
  while (c.out_pos < c.out.size()) {
    const ssize_t n = ::write(c.fd, c.out.data() + c.out_pos,
                              c.out.size() - c.out_pos);
    if (n <= 0) break;  // EAGAIN: poll() finishes the write
    c.out_pos += static_cast<std::size_t>(n);
  }
  if (c.out_pos == c.out.size()) {
    c.out.clear();
    c.out_pos = 0;
  }
}

void Client::send(int conn, std::string_view line) {
  Conn& c = conns_[static_cast<std::size_t>(conn)];
  c.out.append(line);
  c.out.push_back('\n');
  flush(c);
}

bool Client::poll(Clock::time_point until, const LineSink& sink) {
  std::vector<pollfd> fds(conns_.size());
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    fds[i].fd = conns_[i].fd;
    fds[i].events = static_cast<short>(
        POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT));
  }
  const auto left = until - Clock::now();
  const long long ns =
      left.count() > 0
          ? std::chrono::duration_cast<std::chrono::nanoseconds>(left).count()
          : 0;
  timespec ts{static_cast<time_t>(ns / 1000000000LL),
              static_cast<long>(ns % 1000000000LL)};
  const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  if (ready < 0) return errno == EINTR;
  bool open = true;
  char buf[1 << 16];
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    Conn& c = conns_[i];
    if (fds[i].revents & POLLOUT) flush(c);
    if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
    for (;;) {
      const ssize_t n = ::read(c.fd, buf, sizeof(buf));
      if (n == 0) {
        open = false;
        break;
      }
      if (n < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK) open = false;
        break;
      }
      const Clock::time_point at = Clock::now();
      c.in.append(buf, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t nl = c.in.find('\n'); nl != std::string::npos;
           nl = c.in.find('\n', start)) {
        sink(static_cast<int>(i),
             std::string_view(c.in).substr(start, nl - start), at);
        start = nl + 1;
      }
      c.in.erase(0, start);
    }
  }
  return open;
}

}  // namespace perfbench
