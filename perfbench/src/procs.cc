#include "procs.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "common.h"

namespace perfbench {

namespace {
// Every live child, so an error exit still stops and reaps them all.
std::vector<pid_t> g_children;
}  // namespace

void Die(const std::string& msg) {
  fprintf(stderr, "perfbench: %s\n", msg.c_str());
  fflush(stderr);
  for (pid_t pid : g_children) kill(pid, SIGKILL);
  for (pid_t pid : g_children) waitpid(pid, nullptr, 0);
  exit(1);
}

pid_t Spawn(const std::vector<std::string>& argv, const std::string& log_path) {
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t pid = fork();
  if (pid < 0) Die("fork failed");
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);  // Never outlive the benchmark.
    setpriority(PRIO_PROCESS, 0, 0);   // Servers run at normal priority.
    const int fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      dup2(fd, 1);
      dup2(fd, 2);
      close(fd);
    }
    execv(args[0], args.data());
    _exit(127);
  }
  g_children.push_back(pid);
  return pid;
}

int WaitPortFile(const std::string& port_file, pid_t pid, double timeout_s) {
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(timeout_s * 1e9);
  while (NowNs() < deadline) {
    std::ifstream in(port_file);
    int port = 0;
    if (in >> port && port > 0) return port;
    int status = 0;
    if (waitpid(pid, &status, WNOHANG) == pid) {
      Die("server process exited during start-up; see " + port_file + ".log");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  Die("timed out waiting for " + port_file);
}

void StopProcess(pid_t pid, double grace_s) {
  if (pid <= 0) return;
  g_children.erase(std::remove(g_children.begin(), g_children.end(), pid),
                   g_children.end());
  kill(pid, SIGTERM);
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(grace_s * 1e9);
  int status = 0;
  while (NowNs() < deadline) {
    const pid_t r = waitpid(pid, &status, WNOHANG);
    if (r == pid || (r < 0 && errno == ECHILD)) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  kill(pid, SIGKILL);
  waitpid(pid, &status, 0);
}

uint64_t CpuMicros(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(in, line);
  // Fields after the parenthesised command name; utime/stime are 14/15.
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  uint64_t utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  static const long hz = sysconf(_SC_CLK_TCK);
  return (utime + stime) * 1'000'000ull / static_cast<uint64_t>(hz);
}

uint64_t RssBytes(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/statm");
  uint64_t size = 0, resident = 0;
  in >> size >> resident;
  static const long page = sysconf(_SC_PAGESIZE);
  return resident * static_cast<uint64_t>(page);
}

uint64_t DirBytes(const std::string& dir) {
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  uint64_t total = 0;
  while (dirent* e = readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    const std::string path = dir + "/" + name;
    struct stat st;
    if (lstat(path.c_str(), &st) != 0) continue;
    if (S_ISDIR(st.st_mode)) {
      total += DirBytes(path);
    } else if (S_ISREG(st.st_mode)) {
      total += static_cast<uint64_t>(st.st_size);
    }
  }
  closedir(d);
  return total;
}

void RemoveTree(const std::string& dir) {
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) {
    unlink(dir.c_str());
    return;
  }
  while (dirent* e = readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    const std::string path = dir + "/" + name;
    struct stat st;
    if (lstat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
      RemoveTree(path);
    } else {
      unlink(path.c_str());
    }
  }
  closedir(d);
  rmdir(dir.c_str());
}

int ConnectLoopback(int port, bool nonblocking) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) Die("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Die("connect to port " + std::to_string(port) + " failed");
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (nonblocking) fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

SyncClient::SyncClient(int port) : fd_(ConnectLoopback(port, false)) {}
SyncClient::~SyncClient() { close(fd_); }

const Reply& SyncClient::Call(std::initializer_list<std::string_view> args) {
  std::string req;
  AppendCommand(&req, args);
  size_t off = 0;
  while (off < req.size()) {
    const ssize_t n = write(fd_, req.data() + off, req.size() - off);
    if (n <= 0) Die("write to server failed");
    off += static_cast<size_t>(n);
  }
  buf_.clear();
  char chunk[65536];
  for (;;) {
    const long used = ParseReply(buf_.data(), buf_.size(), &reply_);
    if (used < 0) Die("malformed reply from server");
    if (used > 0) return reply_;
    const ssize_t n = read(fd_, chunk, sizeof(chunk));
    if (n <= 0) Die("server closed the connection");
    buf_.append(chunk, static_cast<size_t>(n));
  }
}

std::map<std::string, std::string> SyncClient::Info() {
  const Reply& r = Call({"INFO"});
  std::map<std::string, std::string> out;
  std::istringstream in{std::string(r.str)};
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    const size_t sep = line.find(':');
    if (sep == std::string::npos) continue;
    out[line.substr(0, sep)] = line.substr(sep + 1);
  }
  return out;
}

double HistField(const std::string& summary, const std::string& field) {
  const std::string key = field + "=";
  size_t pos = 0;
  while ((pos = summary.find(key, pos)) != std::string::npos) {
    if (pos == 0 || summary[pos - 1] == ',') {
      return std::strtod(summary.c_str() + pos + key.size(), nullptr);
    }
    pos += key.size();
  }
  return 0;
}

}  // namespace perfbench
