// The benchmark's side of the wire: a line-oriented TCP connection, the
// serve-net child process, and parsers for the STATS line and the METRICS
// exposition the server already exports.
#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <sys/types.h>

#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One TCP connection to 127.0.0.1 speaking '\n'-terminated lines.
class Conn {
 public:
  Conn() = default;
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool Connect(int port);
  int fd() const { return fd_; }
  /// Writes the whole buffer (blocking).
  bool Send(const std::string& data);
  /// Blocks until one full line is buffered; false on EOF or error.
  bool ReadLine(std::string* line);
  /// Non-blocking use: reads what the socket has (call when poll says it
  /// is readable); false on EOF or error.
  bool Fill();
  /// Pops one buffered complete line, if any.
  bool PopLine(std::string* line);
  /// Sends one request line and reads one response line.
  bool Rpc(const std::string& request, std::string* response);

 private:
  int fd_ = -1;
  std::string buf_;
  size_t head_ = 0;
};

/// A `gdim_tool serve-net` child process. Stop() (or the destructor)
/// kills it and waits until it has ended.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts the server with `args` (after the program path) and waits for
  /// its "listening ... port=N" line. stderr goes to `log_path`.
  bool Start(const std::string& tool, const std::vector<std::string>& args,
             const std::string& log_path);
  int port() const { return port_; }
  /// Peak resident set (VmHWM) of the running server, in MB.
  double PeakRssMb() const;
  /// CPU time (user + system, all threads) the server has used so far, in
  /// seconds.
  double CpuSeconds() const;
  void Stop();

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

/// Integer `key=value` field of a STATS line; -1 when absent.
long long StatsField(const std::string& stats, const std::string& key);

/// One METRICS scrape: the exposition text up to the '# EOF' line.
bool ScrapeMetrics(int port, std::string* text);

/// A latency histogram family from an exposition, label series merged.
struct Histogram {
  std::vector<double> bounds;     ///< finite upper bounds, ascending
  std::vector<double> counts;     ///< per bucket, bounds.size() + 1
  double sum = 0.0;
  double count() const;
  /// Quantile with linear interpolation inside the bucket.
  double Quantile(double q) const;
  double MeanValue() const { return count() > 0 ? sum / count() : 0.0; }
};

/// Parses family `name` (e.g. gdim_stage_map_all_usec); empty if absent.
Histogram ParseHistogram(const std::string& text, const std::string& name);
/// after - before, bucket by bucket.
Histogram Delta(const Histogram& after, const Histogram& before);

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
