#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s"},
      {"ops_per_s", "1/s"},
      {"cpu_ms_per_op", "ms"},
      {"quality_at_10", "ratio"},
      {"peak_rss_mb", "MB"},
  };
  return kDefs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"net_server.ping_rtt_us", "us"},
      {"wire.parse_us", "us"},
      {"batch_executor.admission_wait_us_p50", "us"},
      {"batch_executor.admission_wait_us_p99", "us"},
      {"batch_executor.queries_per_batch", "count"},
      {"batch_executor.inprocess_query_us_p50", "us"},
      {"mapper.map_us_p50", "us"},
      {"mapper.map_us_p99", "us"},
      {"vf2.call_us_mean", "us"},
      {"mapper.map_all_us_p50", "us"},
      {"result_cache.hit_ratio", "ratio"},
      {"result_cache.lookups", "count"},
      {"result_cache.evictions", "count"},
      {"result_cache.probe_us_p50", "us"},
      {"sharded_engine.query_mapped_us_p50", "us"},
      {"sharded_engine.query_mapped_us_p99", "us"},
      {"sharded_engine.query_approx_us_p50", "us"},
      {"sharded_engine.scan_exact_us_p50", "us"},
      {"sharded_engine.gather_us_p50", "us"},
      {"kernels.ns_per_row", "ns"},
      {"kernels.bytes_per_query", "bytes"},
      {"topk.select_us_p50", "us"},
      {"ivf_index.build_s", "s"},
      {"ivf_index.probe_us_p50", "us"},
      {"ivf_index.scan_fraction", "ratio"},
      {"ivf_index.candidates_per_query", "count"},
      {"ivf_index.recall_at_10", "ratio"},
      {"mutation.apply_us_p50", "us"},
      {"index_io.snapshot_write_ms", "ms"},
      {"index_io.snapshot_bytes", "bytes"},
      {"index_io.load_ms", "ms"},
      {"sharded_engine.from_packed_ms", "ms"},
      {"gspan.mine_s", "s"},
      {"gspan.patterns", "count"},
      {"mcs.delta_matrix_s", "s"},
      {"mcs.pairs", "count"},
      {"mcs.pair_us_mean", "us"},
      {"dspm.select_s", "s"},
      {"dspmap.select_s", "s"},
      {"dspmap.delta_calls", "count"},
      {"dspmap.delta_s", "s"},
      {"mapper.fingerprint_db_s", "s"},
      {"loadgen.lag_p99_ms", "ms"},
      {"loadgen.query_p50_ms", "ms"},
      {"loadgen.query_p99_ms", "ms"},
      {"loadgen.write_p50_ms", "ms"},
      {"loadgen.write_p99_ms", "ms"},
  };
  return kDefs;
}

const std::vector<std::string>& Workloads() {
  static const std::vector<std::string> kNames = {
      "scan_50k_unique", "cache_zipf_churn", "build_reindex"};
  return kNames;
}

namespace {

const char* UnitOf(const std::string& name) {
  for (const auto* table : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& d : *table) {
      if (name == d.name) return d.unit;
    }
  }
  return nullptr;
}

std::string JsonUnits(const std::vector<MetricDef>& defs) {
  std::string out = "{";
  for (size_t i = 0; i < defs.size(); ++i) {
    out += (i ? ", \"" : "\"") + std::string(defs[i].name) + "\": \"" +
           defs[i].unit + "\"";
  }
  return out + "}";
}

}  // namespace

std::string MetricTableJson() {
  std::string out = "{\"end_to_end\": " + JsonUnits(EndToEndMetrics()) +
                    ", \"per_layer\": " + JsonUnits(PerLayerMetrics()) +
                    ", \"workloads\": [";
  const auto& ws = Workloads();
  for (size_t i = 0; i < ws.size(); ++i) {
    out += (i ? ", \"" : "\"") + ws[i] + "\"";
  }
  return out + "]}";
}

void Report::Set(const std::string& name, double value) {
  if (UnitOf(name) == nullptr) {
    std::fprintf(stderr, "perfbench: undeclared metric %s\n", name.c_str());
    std::abort();
  }
  values_[name] = value;
}

void Report::Wrong(const std::string& why) {
  Count(false);
  correct_ = false;
  if (notes_++ < 10) std::fprintf(stderr, "WRONG: %s\n", why.c_str());
}

void Report::Failed(const std::string& why) {
  Count(false);
  if (notes_++ < 10) std::fprintf(stderr, "FAILED: %s\n", why.c_str());
}

bool Report::Print() const {
  std::string metrics;
  for (const MetricDef& def : traced_ ? PerLayerMetrics() : EndToEndMetrics()) {
    const std::string name = def.name;
    auto it = values_.find(name);
    if (it == values_.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   name.c_str());
      return false;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", it->second);
    metrics += (metrics.empty() ? "\"" : ", \"") + name +
               "\": {\"value\": " + value + ", \"unit\": \"" + def.unit +
               "\"}";
  }
  if (attempted_ < 1) {
    std::fprintf(stderr, "perfbench: no operation was attempted\n");
    return false;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      correct_ ? "true" : "false", attempted_, failed_, metrics.c_str());
  std::fflush(stdout);
  return true;
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index =
      rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

int Tracer::Begin(const std::string& name, int request) {
  Span span;
  span.name = name;
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - origin_)
                      .count();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int span) {
  spans_[static_cast<size_t>(span)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

std::map<std::string, Tracer::LayerTime> Tracer::LayerTimes() const {
  // Children of one parent never overlap (single-threaded nesting), so
  // the covered part of a parent is the sum of its children's durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, LayerTime> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    LayerTime& t = out[s.name];
    ++t.count;
    t.total_us += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    t.self_us += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) /
                 1e3;
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"span\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << "}\n";
  }
  for (const auto& [name, t] : LayerTimes()) {
    out << "{\"layer\": \"" << name << "\", \"count\": " << t.count
        << ", \"total_us\": " << t.total_us << ", \"self_us\": " << t.self_us
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
