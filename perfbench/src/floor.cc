#include "floor.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common.h"
#include "procs.h"

namespace perfbench {

double FloorRttP50Us(int conns, double seconds) {
  const int listener = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (listener < 0 ||
      bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(listener, conns) != 0 ||
      getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    Die("floor: cannot open a loopback listener");
  }
  const int port = ntohs(addr.sin_port);

  std::vector<int> clients;
  for (int i = 0; i < conns; ++i) clients.push_back(ConnectLoopback(port, false));
  std::vector<int> served;
  for (int i = 0; i < conns; ++i) served.push_back(accept(listener, nullptr, nullptr));
  close(listener);

  // The echo side: one thread, poll over the accepted sockets.
  std::atomic<bool> stop{false};
  std::thread echo([&] {
    std::vector<pollfd> fds;
    for (int fd : served) fds.push_back({fd, POLLIN, 0});
    char buf[4096];
    while (!stop.load(std::memory_order_relaxed)) {
      if (poll(fds.data(), fds.size(), 20) <= 0) continue;
      for (auto& p : fds) {
        if (!(p.revents & POLLIN)) continue;
        const ssize_t n = read(p.fd, buf, sizeof(buf));
        if (n > 0 && write(p.fd, buf, static_cast<size_t>(n)) != n) return;
      }
    }
  });

  // A frame the size of a GET command.
  static const char kFrame[] = "*2\r\n$3\r\nGET\r\n$16\r\nuser000000000000\r\n";
  const size_t frame = sizeof(kFrame) - 1;
  std::vector<uint32_t> rtt;
  char buf[4096];
  const uint64_t end = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  for (size_t i = 0; NowNs() < end || rtt.size() < 200; ++i) {
    const int fd = clients[i % clients.size()];
    const uint64_t t0 = NowNs();
    if (write(fd, kFrame, frame) != static_cast<ssize_t>(frame)) break;
    size_t got = 0;
    while (got < frame) {
      const ssize_t n = read(fd, buf, sizeof(buf));
      if (n <= 0) Die("floor: echo connection failed");
      got += static_cast<size_t>(n);
    }
    rtt.push_back(static_cast<uint32_t>(NowNs() - t0));
  }
  stop.store(true);
  echo.join();
  for (int fd : clients) close(fd);
  for (int fd : served) close(fd);
  return Percentile(&rtt, 50) / 1e3;
}

}  // namespace perfbench
