#pragma once
// The load generator's network side: a fixed set of non-blocking TCP
// connections to the daemon driven by one ppoll loop on the calling
// thread. Lines go out as written; complete response lines come back
// through a callback stamped with the time their bytes were read.

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Client {
 public:
  using LineSink =
      std::function<void(int conn, std::string_view line, Clock::time_point)>;

  /// Connects `connections` sockets to 127.0.0.1:port (TCP_NODELAY).
  /// Throws std::runtime_error on failure.
  Client(std::uint16_t port, int connections);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  int connections() const noexcept { return static_cast<int>(conns_.size()); }

  /// Queues `line` plus a newline on `conn` and writes what the socket
  /// accepts now; the rest goes out from poll().
  void send(int conn, std::string_view line);

  /// Waits until `until` (or any I/O), flushes pending writes and hands
  /// every complete response line to `sink`. Returns false when a
  /// connection was closed by the daemon.
  bool poll(Clock::time_point until, const LineSink& sink);

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_pos = 0;
    std::string in;
  };
  void flush(Conn& c);

  std::vector<Conn> conns_;
};

}  // namespace perfbench
