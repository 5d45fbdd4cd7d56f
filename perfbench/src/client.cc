#include "client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>

extern char** environ;

namespace perfbench {

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

bool Conn::Connect(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return false;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

bool Conn::Send(const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

bool Conn::Fill() {
  char chunk[65536];
  const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
  if (n < 0 && (errno == EINTR || errno == EAGAIN)) return true;
  if (n <= 0) return false;
  buf_.append(chunk, static_cast<size_t>(n));
  return true;
}

bool Conn::PopLine(std::string* line) {
  const size_t nl = buf_.find('\n', head_);
  if (nl == std::string::npos) {
    if (head_ > 0 && head_ == buf_.size()) {
      buf_.clear();
      head_ = 0;
    }
    return false;
  }
  line->assign(buf_, head_, nl - head_);
  if (!line->empty() && line->back() == '\r') line->pop_back();
  head_ = nl + 1;
  if (head_ > (1u << 20)) {
    buf_.erase(0, head_);
    head_ = 0;
  }
  return true;
}

bool Conn::ReadLine(std::string* line) {
  while (!PopLine(line)) {
    if (!Fill()) return false;
  }
  return true;
}

bool Conn::Rpc(const std::string& request, std::string* response) {
  return Send(request + "\n") && ReadLine(response);
}

bool ServerProcess::Start(const std::string& tool,
                          const std::vector<std::string>& args,
                          const std::string& log_path) {
  int out_pipe[2];
  if (::pipe(out_pipe) != 0) return false;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, out_pipe[0]);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(tool.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const int rc = posix_spawn(&pid_, tool.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out_pipe[1]);
  if (rc != 0) {
    pid_ = -1;
    ::close(out_pipe[0]);
    return false;
  }
  // The server prints one line once it accepts connections, then nothing.
  std::string text;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (text.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    pollfd p{out_pipe[0], POLLIN, 0};
    if (left <= 0 || ::poll(&p, 1, static_cast<int>(left)) <= 0) break;
    char chunk[512];
    const ssize_t n = ::read(out_pipe[0], chunk, sizeof(chunk));
    if (n <= 0) break;
    text.append(chunk, static_cast<size_t>(n));
  }
  ::close(out_pipe[0]);
  const size_t at = text.find("port=");
  if (at == std::string::npos) {
    Stop();
    return false;
  }
  port_ = std::atoi(text.c_str() + at + 5);
  return port_ > 0;
}

double ServerProcess::PeakRssMb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double ServerProcess::CpuSeconds() const {
  std::ifstream stat("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the line.
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

void ServerProcess::Stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

long long StatsField(const std::string& stats, const std::string& key) {
  const std::string needle = " " + key + "=";
  const size_t at = stats.find(needle);
  if (at == std::string::npos) return -1;
  return std::strtoll(stats.c_str() + at + needle.size(), nullptr, 10);
}

bool ScrapeMetrics(int port, std::string* text) {
  Conn conn;
  if (!conn.Connect(port) || !conn.Send("METRICS\n")) return false;
  text->clear();
  std::string line;
  while (conn.ReadLine(&line)) {
    if (line == "# EOF") return true;
    *text += line;
    *text += '\n';
  }
  return false;
}

double Histogram::count() const {
  double c = 0.0;
  for (double x : counts) c += x;
  return c;
}

double Histogram::Quantile(double q) const {
  const double total = count();
  if (total <= 0.0) return 0.0;
  const double target = q * total;
  double seen = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] <= 0.0) continue;
    if (seen + counts[i] >= target) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double hi = i < bounds.size() ? bounds[i] : lo;
      return lo + (hi - lo) * (target - seen) / counts[i];
    }
    seen += counts[i];
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

Histogram ParseHistogram(const std::string& text, const std::string& name) {
  const std::string bucket_prefix = name + "_bucket{";
  const std::string sum_prefix = name + "_sum";
  // Per label series: cumulative counts in exposition (ascending le) order.
  std::map<std::string, std::vector<std::pair<double, double>>> series;
  Histogram h;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(bucket_prefix, 0) == 0) {
      const size_t le = line.find("le=\"");
      const size_t close = line.rfind('}');
      if (le == std::string::npos || close == std::string::npos) continue;
      const size_t le_end = line.find('"', le + 4);
      const std::string le_str = line.substr(le + 4, le_end - (le + 4));
      const std::string key =
          line.substr(bucket_prefix.size(), le - bucket_prefix.size());
      const double bound = le_str == "+Inf"
                               ? std::numeric_limits<double>::infinity()
                               : std::strtod(le_str.c_str(), nullptr);
      series[key].emplace_back(bound,
                               std::strtod(line.c_str() + close + 1, nullptr));
    } else if (line.rfind(sum_prefix, 0) == 0) {
      h.sum += std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
    }
  }
  for (const auto& [key, cums] : series) {
    if (h.bounds.empty()) {
      for (size_t i = 0; i + 1 < cums.size(); ++i) h.bounds.push_back(cums[i].first);
      h.counts.assign(cums.size(), 0.0);
    }
    if (cums.size() != h.counts.size()) continue;
    double prev = 0.0;
    for (size_t i = 0; i < cums.size(); ++i) {
      h.counts[i] += cums[i].second - prev;
      prev = cums[i].second;
    }
  }
  return h;
}

Histogram Delta(const Histogram& after, const Histogram& before) {
  Histogram d = after;
  if (before.counts.size() == d.counts.size()) {
    for (size_t i = 0; i < d.counts.size(); ++i) d.counts[i] -= before.counts[i];
    d.sum -= before.sum;
  }
  return d;
}

}  // namespace perfbench
