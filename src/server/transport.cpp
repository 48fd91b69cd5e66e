#include "streamrel/server/transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <istream>
#include <limits>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <vector>

namespace streamrel {

namespace {

/// True for an HTTP-style "GET <path> ..." request line; fills `path`.
/// The daemon's transports accept `GET /metrics` next to the JSON
/// protocol so a Prometheus scraper (or curl) needs no JSON client.
bool parse_get_line(std::string_view line, std::string_view* path) {
  // HTTP request lines end CRLF; tolerate bare LF from hand-typed
  // clients too.
  while (line.ends_with('\r')) line.remove_suffix(1);
  constexpr std::string_view kGet = "GET ";
  if (!line.starts_with(kGet)) return false;
  line.remove_prefix(kGet.size());
  const std::size_t space = line.find(' ');
  *path = space == std::string_view::npos ? line : line.substr(0, space);
  return true;
}

enum class LineRead { kLine, kTooLong, kEnd };

/// Reads the next newline-terminated line into `line` (newline removed)
/// without ever buffering more than kMaxWireLineBytes of it: a longer
/// line stops at the cap with kTooLong, leaving its tail unread. A final
/// line without a newline still counts; kEnd means nothing was left.
LineRead read_capped_line(std::istream& in, std::string& line) {
  line.clear();
  std::streambuf* buf = in.rdbuf();
  for (;;) {
    const int c = buf->sbumpc();
    if (c == std::char_traits<char>::eof()) {
      in.setstate(std::ios::eofbit);
      return line.empty() ? LineRead::kEnd : LineRead::kLine;
    }
    if (c == '\n') return LineRead::kLine;
    if (line.size() == kMaxWireLineBytes) return LineRead::kTooLong;
    line.push_back(static_cast<char>(c));
  }
}

}  // namespace

StreamServeResult serve_stream(ReliabilityService& service, std::istream& in,
                               std::ostream& out,
                               const StreamServeOptions& options) {
  StreamServeResult result;
  std::mutex write_mu;
  // Submitted-but-unanswered requests on this stream. done callbacks may
  // fire on worker threads; drain() below fences every decrement before
  // the function returns.
  std::atomic<std::size_t> inflight{0};
  std::string line;
  for (;;) {
    const LineRead read = read_capped_line(in, line);
    if (read == LineRead::kEnd) break;
    if (read == LineRead::kTooLong) {
      in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
      line = std::string();  // release the capped prefix
      result.lines += 1;
      const std::lock_guard<std::mutex> lock(write_mu);
      out << serialize_wire_response(service.reject_payload_too_large())
          << "\n";
      result.responses += 1;
      continue;
    }
    if (line.empty()) continue;
    std::string_view path;
    if (parse_get_line(line, &path)) {
      // Plaintext scrape on the stream transport: the Prometheus text
      // body, no HTTP framing (stdio has no headers to honor).
      if (path == "/metrics") {
        const std::string text = service.metrics_text();
        const std::lock_guard<std::mutex> lock(write_mu);
        out << text;
      }
      continue;
    }
    result.lines += 1;
    if (options.max_inflight > 0 &&
        inflight.load(std::memory_order_relaxed) >= options.max_inflight) {
      const WireResponse resp = service.reject_overloaded(line);
      result.backpressure_rejects += 1;
      const std::lock_guard<std::mutex> lock(write_mu);
      out << serialize_wire_response(resp) << "\n";
      result.responses += 1;
      continue;
    }
    inflight.fetch_add(1, std::memory_order_relaxed);
    service.handle_line(line, [&](WireResponse resp) {
      {
        const std::lock_guard<std::mutex> lock(write_mu);
        out << serialize_wire_response(resp) << "\n";
        result.responses += 1;
      }
      inflight.fetch_sub(1, std::memory_order_relaxed);
    });
    if (service.shutdown_requested()) {
      result.shutdown = true;
      break;
    }
  }
  service.drain();
  out.flush();
  return result;
}

namespace {

/// htons without the glibc macro (whose expansion contains old-style
/// casts that trip -Wold-style-cast at the use site).
std::uint16_t host_to_net16(std::uint16_t value) {
  std::uint16_t out = 0;
  unsigned char* bytes = reinterpret_cast<unsigned char*>(&out);
  bytes[0] = static_cast<unsigned char>(value >> 8);
  bytes[1] = static_cast<unsigned char>(value & 0xFF);
  return out;
}

std::uint16_t net_to_host16(std::uint16_t value) {
  const unsigned char* bytes = reinterpret_cast<const unsigned char*>(&value);
  return static_cast<std::uint16_t>((bytes[0] << 8) | bytes[1]);
}

bool send_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// One accepted connection, shared with every in-flight response writer
/// so the fd outlives the reader thread while scheduled work completes.
struct Connection {
  int fd = -1;
  std::mutex write_mu;
  std::atomic<bool> open{true};
  /// Requests submitted on this connection whose response has not been
  /// written yet (the backpressure counter).
  std::atomic<std::size_t> inflight{0};

  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  void write_line(const std::string& line) {
    const std::lock_guard<std::mutex> lock(write_mu);
    if (!open.load(std::memory_order_relaxed)) return;
    std::string framed = line;
    framed += '\n';
    if (!send_all(fd, framed)) open.store(false, std::memory_order_relaxed);
  }

  void write_raw(std::string_view data) {
    const std::lock_guard<std::mutex> lock(write_mu);
    if (!open.load(std::memory_order_relaxed)) return;
    if (!send_all(fd, data)) open.store(false, std::memory_order_relaxed);
  }
};

}  // namespace

struct TcpServer::Impl {
  ReliabilityService& service;
  TcpServerOptions options;
  int listen_fd = -1;
  int wake_read = -1;   ///< internal stop() self-pipe
  int wake_write = -1;
  std::uint16_t bound_port = 0;
  std::atomic<bool> stopping{false};
  std::mutex conn_mu;
  std::vector<std::shared_ptr<Connection>> connections;
  std::vector<std::thread> readers;

  explicit Impl(ReliabilityService& svc, const TcpServerOptions& opts)
      : service(svc), options(opts) {}

  ~Impl() {
    if (listen_fd >= 0) ::close(listen_fd);
    if (wake_read >= 0) ::close(wake_read);
    if (wake_write >= 0) ::close(wake_write);
  }

  void listen_or_throw() {
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0) throw std::runtime_error("socket() failed");
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = host_to_net16(options.port);
    if (::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) !=
        1) {
      throw std::runtime_error("bad bind address '" + options.bind_address +
                               "'");
    }
    if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw std::runtime_error("bind() failed on " + options.bind_address +
                               ":" + std::to_string(options.port));
    }
    if (::listen(listen_fd, 64) != 0) {
      throw std::runtime_error("listen() failed");
    }

    sockaddr_in bound;
    socklen_t len = sizeof(bound);
    std::memset(&bound, 0, sizeof(bound));
    if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &len) ==
        0) {
      bound_port = net_to_host16(bound.sin_port);
    }

    int pipe_fds[2];
    if (::pipe(pipe_fds) == 0) {
      wake_read = pipe_fds[0];
      wake_write = pipe_fds[1];
    }
  }

  void reject_too_long(Connection& conn) {
    conn.write_line(
        serialize_wire_response(service.reject_payload_too_large()));
  }

  void reader_loop(std::shared_ptr<Connection> conn) {
    std::string buffer;
    // Bytes at the front of `buffer` already searched for a newline, so
    // a line arriving in many chunks is scanned once, not once per chunk.
    std::size_t scanned = 0;
    // Inside a line past kMaxWireLineBytes (already answered): incoming
    // bytes are dropped up to its newline.
    bool discarding = false;
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      const std::string_view data(chunk, static_cast<std::size_t>(n));
      if (discarding) {
        const std::size_t nl = data.find('\n');
        if (nl == std::string_view::npos) continue;
        discarding = false;
        buffer.assign(data.substr(nl + 1));
        scanned = 0;
      } else {
        buffer.append(data);
      }
      std::size_t start = 0;
      for (;;) {
        const std::size_t nl = buffer.find('\n', std::max(start, scanned));
        if (nl == std::string::npos) break;
        const std::string_view line(buffer.data() + start, nl - start);
        start = nl + 1;
        if (line.size() > kMaxWireLineBytes) {
          reject_too_long(*conn);
          continue;
        }
        std::string_view get_path;
        if (parse_get_line(line, &get_path)) {
          // `GET /metrics` on the JSON port: answer as a one-shot
          // HTTP/1.0 exchange (what a Prometheus scraper or curl
          // speaks) and close — remaining header lines are moot.
          std::string body;
          const char* status = "200 OK";
          if (get_path == "/metrics") {
            body = service.metrics_text();
          } else {
            status = "404 Not Found";
            body = "only /metrics is served here\n";
          }
          std::string http = "HTTP/1.0 ";
          http += status;
          http += "\r\nContent-Type: ";
          http += kPrometheusContentType;
          http += "\r\nContent-Length: ";
          http += std::to_string(body.size());
          http += "\r\nConnection: close\r\n\r\n";
          http += body;
          conn->write_raw(http);
          ::shutdown(conn->fd, SHUT_RDWR);
          conn->open.store(false, std::memory_order_relaxed);
          return;
        }
        if (!line.empty()) {
          if (options.max_inflight > 0 &&
              conn->inflight.load(std::memory_order_relaxed) >=
                  options.max_inflight) {
            conn->write_line(
                serialize_wire_response(service.reject_overloaded(line)));
          } else {
            conn->inflight.fetch_add(1, std::memory_order_relaxed);
            service.handle_line(line, [conn](WireResponse resp) {
              conn->write_line(serialize_wire_response(resp));
              conn->inflight.fetch_sub(1, std::memory_order_relaxed);
            });
          }
          if (service.shutdown_requested()) wake();
        }
      }
      buffer.erase(0, start);
      scanned = buffer.size();
      if (buffer.size() > kMaxWireLineBytes) {
        reject_too_long(*conn);
        buffer = std::string();
        scanned = 0;
        discarding = true;
      }
    }
    conn->open.store(false, std::memory_order_relaxed);
  }

  void wake() {
    if (wake_write >= 0) {
      const char byte = 1;
      [[maybe_unused]] const ssize_t n = ::write(wake_write, &byte, 1);
    }
  }

  void accept_loop() {
    for (;;) {
      pollfd fds[3];
      nfds_t nfds = 0;
      fds[nfds++] = pollfd{listen_fd, POLLIN, 0};
      if (wake_read >= 0) fds[nfds++] = pollfd{wake_read, POLLIN, 0};
      if (options.shutdown_fd >= 0) {
        fds[nfds++] = pollfd{options.shutdown_fd, POLLIN, 0};
      }
      const int ready = ::poll(fds, nfds, -1);
      if (ready < 0) {
        if (errno == EINTR) {
          if (stopping.load(std::memory_order_relaxed)) return;
          continue;
        }
        return;
      }
      if (stopping.load(std::memory_order_relaxed)) return;
      for (nfds_t i = 1; i < nfds; ++i) {
        if (fds[i].revents & POLLIN) return;  // wake pipe or signal pipe
      }
      if (!(fds[0].revents & POLLIN)) continue;

      const int client = ::accept(listen_fd, nullptr, nullptr);
      if (client < 0) {
        if (errno == EINTR) continue;
        return;
      }
      auto conn = std::make_shared<Connection>();
      conn->fd = client;
      const std::lock_guard<std::mutex> lock(conn_mu);
      connections.push_back(conn);
      readers.emplace_back([this, conn] { reader_loop(conn); });
    }
  }

  void shut_down() {
    if (stopping.exchange(true)) return;
    wake();
    {
      const std::lock_guard<std::mutex> lock(conn_mu);
      // SHUT_RD unblocks the reader threads without racing in-flight
      // writers, which still hold the shared Connection.
      for (auto& conn : connections) ::shutdown(conn->fd, SHUT_RD);
    }
    for (;;) {
      std::thread reader;
      {
        const std::lock_guard<std::mutex> lock(conn_mu);
        if (readers.empty()) break;
        reader = std::move(readers.back());
        readers.pop_back();
      }
      if (reader.joinable()) reader.join();
    }
    service.drain();
    {
      const std::lock_guard<std::mutex> lock(conn_mu);
      connections.clear();
    }
  }
};

TcpServer::TcpServer(ReliabilityService& service,
                     const TcpServerOptions& options)
    : impl_(std::make_unique<Impl>(service, options)) {
  impl_->listen_or_throw();
}

TcpServer::~TcpServer() { stop(); }

std::uint16_t TcpServer::port() const noexcept { return impl_->bound_port; }

void TcpServer::run() {
  impl_->accept_loop();
  impl_->shut_down();
}

void TcpServer::stop() { impl_->shut_down(); }

namespace {
std::atomic<int> g_signal_pipe_write{-1};
std::atomic<int> g_usr1_pipe_write{-1};

extern "C" void streamrel_signal_handler(int) {
  const int fd = g_signal_pipe_write.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

extern "C" void streamrel_usr1_handler(int) {
  const int fd = g_usr1_pipe_write.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}
}  // namespace

int install_signal_shutdown_pipe() {
  int fds[2];
  if (::pipe(fds) != 0) return -1;
  g_signal_pipe_write.store(fds[1], std::memory_order_relaxed);
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = streamrel_signal_handler;
  ::sigemptyset(&action.sa_mask);
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  return fds[0];
}

int install_sigusr1_pipe() {
  int fds[2];
  if (::pipe(fds) != 0) return -1;
  g_usr1_pipe_write.store(fds[1], std::memory_order_relaxed);
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = streamrel_usr1_handler;
  ::sigemptyset(&action.sa_mask);
  // Restart interrupted syscalls: a flight dump must never surface as
  // an EINTR error in the serving path.
  action.sa_flags = SA_RESTART;
  ::sigaction(SIGUSR1, &action, nullptr);
  return fds[0];
}

}  // namespace streamrel
