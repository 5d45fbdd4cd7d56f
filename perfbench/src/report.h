// The benchmark's metric table, result line, summary statistics and span
// tracer. Every metric a run prints is declared here with its unit, per
// mode (untraced = end-to-end, traced = per-layer); every workload prints
// every metric of its mode. The table is what BENCHMARK.json is checked
// against.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef>& EndToEndMetrics();  ///< printed with --trace 0
const std::vector<MetricDef>& PerLayerMetrics();  ///< printed with --trace 1
const std::vector<std::string>& Workloads();

/// JSON description of the table (--list-metrics), read by the tests.
std::string MetricTableJson();

/// Collects one run's outcome and prints the final result line.
class Report {
 public:
  explicit Report(bool traced) : traced_(traced) {}

  /// Records a metric; its unit comes from the table. Unknown names abort.
  void Set(const std::string& name, double value);

  /// One operation attempted; `ok` false counts it failed.
  void Count(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// A wrong answer: counted failed, and the run is not correct.
  void Wrong(const std::string& why);
  /// A protocol or transport error: counted failed.
  void Failed(const std::string& why);

  long long attempted() const { return attempted_; }
  long long failed() const { return failed_; }
  bool correct() const { return correct_; }

  /// The result line; fails (returns false, prints why) when a metric of
  /// the run's mode is missing or the run attempted nothing.
  bool Print() const;

 private:
  bool traced_;
  std::map<std::string, double> values_;
  long long attempted_ = 0;
  long long failed_ = 0;
  bool correct_ = true;
  int notes_ = 0;
};

/// Nearest-rank quantile of unsorted samples (q in [0,1]); 0 when empty.
double Quantile(std::vector<double> samples, double q);
double Mean(const std::vector<double>& samples);

using Clock = std::chrono::steady_clock;
inline double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}
inline double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// In-memory spans of the traced replay: name, start, end, parent span and
/// request id. Single-threaded; spans nest through a stack of open spans.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    int request = -1;
  };

  int Begin(const std::string& name, int request);
  void End(int span);
  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: count, total duration and self time (duration minus
  /// the union of its children's intervals), in microseconds.
  struct LayerTime {
    long long count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::map<std::string, LayerTime> LayerTimes() const;

  /// Writes every span as one JSON line, then the per-layer self times.
  bool Write(const std::string& path) const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span on a tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int request)
      : tracer_(tracer), id_(tracer->Begin(name, request)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
