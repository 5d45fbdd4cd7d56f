// The two workloads that drive `gdim_tool serve-net` over its wire
// protocol: scan_50k_unique (closed loop, exact scans of fresh queries) and
// cache_zipf_churn (open loop, Zipf-repeated queries under writes), and
// the serving half of build_reindex's traced run.
#include <poll.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>

#include "client.h"
#include "core/index.h"
#include "core/index_io.h"
#include "core/kernels/scan_kernel.h"
#include "core/mapper.h"
#include "core/packed_bits.h"
#include "core/topk.h"
#include "datasets/chemgen.h"
#include "graph/graph_io.h"
#include "index/ivf_index.h"
#include "isomorphism/vf2.h"
#include "server/batch_executor.h"
#include "server/net_server.h"
#include "server/sharded_engine.h"
#include "server/wire.h"
#include "workloads.h"

namespace perfbench {

using gdim::Graph;
using gdim::GraphDatabase;

namespace {

constexpr int kK = 10;
constexpr int kShards = 2;
constexpr int kConnections = 4;
// Set-ups per run: at least kMinSetups, and more (up to kMaxSetups) while
// they fit in kSetupBudgetS, so cheap set-ups get a steadier median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 40;
constexpr double kSetupBudgetS = 3.0;
constexpr int kDimension = 64;
constexpr int kSelectionSample = 200;
// The queries the write probe of a traced run inserts and removes again.
constexpr size_t kProbeWrites = 100;
// Spot checks of the program's fingerprints per run, per side.
constexpr size_t kSpotChecks = 100;
// Requests of the stream the traced run replays in process.
constexpr size_t kReplayRequests = 1000;

[[noreturn]] void Fail(const std::string& what) {
  throw std::runtime_error(what);
}

/// Runs fn(i) for i in [0, n) on kConnections threads.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kConnections; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& t : threads) t.join();
}

std::string QueryLine(const Graph& g, const std::string& opts) {
  return "QUERY " + std::to_string(kK) + opts + " " +
         gdim::EncodeGraphInline(g) + "\n";
}

// ------------------------------------------------------------- corpus --

/// Mining options of the chem workloads' dimension selection.
gdim::MiningOptions ChemMining() {
  gdim::MiningOptions m;
  m.min_support = 0.1;
  m.max_edges = 5;
  return m;
}

/// Selects a p=64 dimension with DSPM over the first graphs of `db`, maps
/// all of `db` onto it with the program's mapper, spot-checks a sample of
/// those fingerprints, and writes the index (and, if asked, the graphs).
Served PrepareChem(const GraphDatabase& db, const RunOptions& opts,
                   bool with_db, Report* report) {
  gdim::IndexOptions io;
  io.selector = "DSPM";
  io.p = kDimension;
  io.mining = ChemMining();
  io.seed = opts.seed;
  const GraphDatabase sample(db.begin(), db.begin() + kSelectionSample);
  gdim::Result<gdim::GraphSearchIndex> built =
      gdim::GraphSearchIndex::Build(sample, io);
  if (!built.ok()) Fail("selecting the dimension: " + built.status().ToString());
  Served served;
  served.features = built->dimension();
  served.rows = BitRows(static_cast<int>(served.features.size()));
  const gdim::FeatureMapper mapper(served.features);
  const auto bits = mapper.MapAll(db, kConnections);
  for (const auto& b : bits) served.rows.Append(b);
  SpotCheckFingerprints(served.features, db,
                        SampleIndices(db.size(), kSpotChecks, opts.seed),
                        [&](size_t i) { return bits[i]; }, "database",
                        report);
  served.index_path = opts.out_dir + "/index.gdim";
  WriteIndex(served);
  if (with_db) {
    served.db_path = opts.out_dir + "/db.gdb";
    if (!gdim::WriteGraphFile(db, served.db_path).ok()) Fail("writing the db");
  }
  return served;
}

gdim::ChemGenOptions ChemOptions(int n, int families, uint64_t seed) {
  gdim::ChemGenOptions o;
  o.num_graphs = n;
  o.num_families = families;
  o.seed = seed;
  return o;
}

/// Maps queries with the program's mapper and spot-checks a sample.
std::vector<std::vector<uint8_t>> MapQueries(const GraphDatabase& features,
                                             const GraphDatabase& queries,
                                             uint64_t seed, Report* report) {
  const gdim::FeatureMapper mapper(features);
  auto bits = mapper.MapAll(queries, kConnections);
  SpotCheckFingerprints(features, queries,
                        SampleIndices(queries.size(), kSpotChecks, seed + 1),
                        [&](size_t i) { return bits[i]; }, "query", report);
  return bits;
}

std::vector<std::string> ServerArgs(const Served& served) {
  std::vector<std::string> args = {"serve-net", "--index=" + served.index_path,
                                   "--port=0",
                                   "--shards=" + std::to_string(kShards)};
  if (!served.db_path.empty()) args.push_back("--db=" + served.db_path);
  return args;
}

// -------------------------------------------------------------- setup --

/// Starts the server several times, each timed from the spawn to the first
/// answered query, appends the times to `times`, and keeps the last server
/// running in `keep`. The untraced runs call it again after the load, as
/// the host's speed drifts over seconds; setup_s is the median of both
/// groups.
void MeasureSetup(const RunOptions& opts, const std::vector<std::string>& args,
                  const std::string& first_query,
                  std::unique_ptr<ServerProcess>* keep,
                  std::vector<double>* times, Report* report) {
  double spent = 0.0;
  for (int i = 0; i < kMaxSetups && (i < kMinSetups || spent < kSetupBudgetS);
       ++i) {
    keep->reset();
    auto server = std::make_unique<ServerProcess>();
    const Clock::time_point t0 = Clock::now();
    if (!server->Start(opts.tool, args, opts.out_dir + "/server.log")) {
      Fail("serve-net did not start; see " + opts.out_dir + "/server.log");
    }
    Conn conn;
    std::string response;
    if (!conn.Connect(server->port()) || !conn.Rpc(first_query, &response)) {
      Fail("no answer to the first query");
    }
    times->push_back(SecondsSince(t0));
    spent += times->back();
    Answer answer;
    std::string why;
    if (ParseAnswer(response, &answer, &why)) {
      report->Count(true);
    } else {
      report->Failed("first query: " + why);
    }
    *keep = std::move(server);
  }
}

// -------------------------------------------------------- closed loop --

struct ClosedLoopResult {
  std::vector<std::string> responses;  ///< by request index; empty = none
  size_t issued = 0;
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;  ///< previous response → next send
  double elapsed_s = 0.0;
  /// Per window of kWindowS: answers completed and server CPU seconds used.
  std::vector<double> window_ops;
  std::vector<double> window_cpu_s;

  /// Interquartile mean over the windows of completed answers per second.
  double OpsPerSecond() const;
  /// Interquartile mean over the windows of server CPU ms per answer.
  double CpuMsPerOp() const;
};

// The closed loops sample throughput and server CPU per window and report
// the mean of the middle half of the windows, so a stall of the host that
// covers less than a quarter of a run does not move the result.
constexpr double kWindowS = 0.5;

double InterquartileMean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t lo = v.size() / 4;
  const size_t hi = v.size() - lo;
  return Mean(std::vector<double>(v.begin() + static_cast<long>(lo),
                                  v.begin() + static_cast<long>(hi)));
}

double ClosedLoopResult::OpsPerSecond() const {
  std::vector<double> rate;
  for (double ops : window_ops) rate.push_back(ops / kWindowS);
  return InterquartileMean(rate);
}

double ClosedLoopResult::CpuMsPerOp() const {
  std::vector<double> ms;
  for (size_t w = 0; w < window_ops.size(); ++w) {
    if (window_ops[w] > 0) ms.push_back(window_cpu_s[w] * 1e3 / window_ops[w]);
  }
  return InterquartileMean(ms);
}

void PrintWindows(const ClosedLoopResult& run) {
  std::fprintf(stderr, "windows (ops, cpu ms/op):");
  for (size_t w = 0; w < run.window_ops.size(); ++w) {
    std::fprintf(stderr, " %.0f/%.2f", run.window_ops[w],
                 run.window_ops[w] > 0 ? run.window_cpu_s[w] * 1e3 / run.window_ops[w] : 0.0);
  }
  std::fprintf(stderr, "\n");
}

void WarnIfExhausted(const ClosedLoopResult& run) {
  if (run.issued == run.responses.size()) {
    std::fprintf(stderr,
                 "perfbench: the query pool (%zu) ran out before the run "
                 "ended; enlarge it\n",
                 run.responses.size());
  }
}

/// kConnections connections, each sending its next request as soon as the
/// previous answer arrived, for `seconds`. Request i is lines[i]; no line
/// is sent twice. `cpu_seconds` (may be null) reads the server's CPU time
/// at each window's end.
ClosedLoopResult RunClosedLoop(int port, const std::vector<std::string>& lines,
                               double seconds,
                               const std::function<double()>& cpu_seconds) {
  ClosedLoopResult out;
  out.responses.resize(lines.size());
  std::atomic<size_t> next{0};
  std::atomic<size_t> answered{0};
  std::vector<std::vector<double>> lat(kConnections), lag(kConnections);
  std::atomic<int> broken{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      Conn conn;
      if (!conn.Connect(port)) {
        ++broken;
        return;
      }
      Clock::time_point last = Clock::now();
      bool first = true;
      while (Clock::now() < deadline) {
        const size_t i = next++;
        if (i >= lines.size()) break;
        const Clock::time_point sent = Clock::now();
        if (!first) lag[c].push_back(Micros(last, sent) / 1e3);
        first = false;
        std::string response;
        if (!conn.Send(lines[i]) || !conn.ReadLine(&response)) {
          ++broken;
          return;
        }
        last = Clock::now();
        lat[c].push_back(Micros(sent, last) / 1e3);
        ++answered;

        out.responses[i] = std::move(response);
      }
    });
  }
  // Whole windows only; the loop's last, partial window is not sampled.
  size_t ops_before = 0;
  double cpu_before = cpu_seconds ? cpu_seconds() : 0.0;
  for (int w = 1; w * kWindowS <= seconds; ++w) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(w * kWindowS)));
    const size_t ops = answered.load();
    const double cpu = cpu_seconds ? cpu_seconds() : 0.0;
    out.window_ops.push_back(static_cast<double>(ops - ops_before));
    out.window_cpu_s.push_back(cpu - cpu_before);
    ops_before = ops;
    cpu_before = cpu;
    if (next.load() >= lines.size()) break;  // the pool ran out
  }
  for (std::thread& t : threads) t.join();
  out.elapsed_s = SecondsSince(start);
  out.issued = std::min(next.load(), lines.size());
  if (broken > 0) std::fprintf(stderr, "perfbench: %d connections broke\n", broken.load());
  for (int c = 0; c < kConnections; ++c) {
    out.latency_ms.insert(out.latency_ms.end(), lat[c].begin(), lat[c].end());
    out.lag_ms.insert(out.lag_ms.end(), lag[c].begin(), lag[c].end());
  }
  return out;
}

// ------------------------------------------------- traced-run helpers --

struct ServerCounters {
  std::string stats;
  std::string metrics;
};

ServerCounters Scrape(int port) {
  ServerCounters c;
  Conn conn;
  if (!conn.Connect(port) || !conn.Rpc("STATS", &c.stats) ||
      !ScrapeMetrics(port, &c.metrics)) {
    Fail("scraping STATS/METRICS");
  }
  return c;
}

Histogram StageDelta(const ServerCounters& before, const ServerCounters& after,
                     const std::string& stage) {
  const std::string name = "gdim_stage_" + stage + "_usec";
  return Delta(ParseHistogram(after.metrics, name),
               ParseHistogram(before.metrics, name));
}

long long StatsDelta(const ServerCounters& before, const ServerCounters& after,
                     const std::string& key) {
  return StatsField(after.stats, key) - StatsField(before.stats, key);
}

/// Per-layer numbers the server exports, as deltas over the measured run.
void ReportServerLayers(const ServerCounters& before,
                        const ServerCounters& after,
                        Report* report) {
  const Histogram admission = StageDelta(before, after, "admission_wait");
  report->Set("batch_executor.admission_wait_us_p50", admission.Quantile(0.5));
  report->Set("batch_executor.admission_wait_us_p99", admission.Quantile(0.99));
  const long long queries = StatsDelta(before, after, "completed") -
                            StatsDelta(before, after, "mutations");
  const long long batches = StatsDelta(before, after, "batches");
  report->Set("batch_executor.queries_per_batch",
              batches > 0 ? static_cast<double>(queries) /
                                static_cast<double>(batches)
                          : 0.0);
  report->Set("mapper.map_all_us_p50",
              StageDelta(before, after, "map_all").Quantile(0.5));
  const long long hits = StatsDelta(before, after, "cache_hits");
  const long long lookups = hits + StatsDelta(before, after, "cache_misses");
  report->Set("result_cache.lookups", static_cast<double>(lookups));
  report->Set("result_cache.hit_ratio",
              lookups > 0 ? static_cast<double>(hits) /
                                static_cast<double>(lookups)
                          : 0.0);
  report->Set("result_cache.evictions",
              static_cast<double>(StatsDelta(before, after, "cache_evictions")));
  report->Set("result_cache.probe_us_p50",
              StageDelta(before, after, "cache_probe").Quantile(0.5));
  report->Set("sharded_engine.scan_exact_us_p50",
              StageDelta(before, after, "scan_exact").Quantile(0.5));
  report->Set("sharded_engine.gather_us_p50",
              StageDelta(before, after, "gather_merge").Quantile(0.5));
}

/// Client-side latencies of a closed loop.
void ReportLoadgen(const ClosedLoopResult& run, Report* report) {
  report->Set("loadgen.lag_p99_ms", Quantile(run.lag_ms, 0.99));
  report->Set("loadgen.query_p50_ms", Quantile(run.latency_ms, 0.5));
  report->Set("loadgen.query_p99_ms", Quantile(run.latency_ms, 0.99));
}

/// The write path, for workloads whose load only reads: on one connection,
/// INSERT each graph and REMOVE it again, then one SNAPSHOT, with the
/// server's mutation and snapshot stages scraped around it.
void ProbeWrites(int port, const GraphDatabase& graphs,
                 const std::string& snapshot_path, Report* report) {
  const ServerCounters before = Scrape(port);
  Conn conn;
  if (!conn.Connect(port)) Fail("connecting for the write probe");
  std::vector<double> write_ms;
  for (const Graph& g : graphs) {
    std::string response;
    Clock::time_point t0 = Clock::now();
    if (!conn.Rpc("INSERT " + gdim::EncodeGraphInline(g), &response)) {
      Fail("write probe: INSERT");
    }
    write_ms.push_back(Micros(t0, Clock::now()) / 1e3);
    if (response.rfind("OK ", 0) != 0) {
      report->Failed("INSERT answered '" + response + "'");
      continue;
    }
    report->Count(true);
    const std::string id = response.substr(3);
    t0 = Clock::now();
    if (!conn.Rpc("REMOVE " + id, &response)) Fail("write probe: REMOVE");
    write_ms.push_back(Micros(t0, Clock::now()) / 1e3);
    if (response == "OK removed " + id) {
      report->Count(true);
    } else {
      report->Failed("REMOVE answered '" + response + "'");
    }
  }
  std::string response;
  if (!conn.Rpc("SNAPSHOT " + snapshot_path, &response)) {
    Fail("write probe: SNAPSHOT");
  }
  report->Count(response == "OK snapshot");
  const ServerCounters after = Scrape(port);
  struct stat st{};
  const double snapshot_bytes =
      ::stat(snapshot_path.c_str(), &st) == 0 ? static_cast<double>(st.st_size) : 0.0;
  std::remove(snapshot_path.c_str());
  report->Set("mutation.apply_us_p50",
              StageDelta(before, after, "mutation_apply").Quantile(0.5));
  report->Set("index_io.snapshot_write_ms",
              StageDelta(before, after, "snapshot_write").MeanValue() / 1e3);
  report->Set("index_io.snapshot_bytes", snapshot_bytes);
  report->Set("loadgen.write_p50_ms", Quantile(write_ms, 0.5));
  report->Set("loadgen.write_p99_ms", Quantile(write_ms, 0.99));
}

void ReportPing(int port, Report* report) {
  Conn conn;
  if (!conn.Connect(port)) Fail("connecting for PING");
  std::vector<double> rtt;
  for (int i = 0; i < 200; ++i) {
    std::string response;
    const Clock::time_point t0 = Clock::now();
    if (!conn.Rpc("PING", &response)) Fail("PING");
    rtt.push_back(Micros(t0, Clock::now()));
    report->Count(response == "OK pong");
  }
  report->Set("net_server.ping_rtt_us", Quantile(rtt, 0.5));
}

std::map<std::string, std::vector<double>> SpanDurations(const Tracer& t) {
  std::map<std::string, std::vector<double>> out;
  for (const Tracer::Span& s : t.spans()) {
    out[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

void WriteSpans(const Tracer& tracer, const RunOptions& opts,
                const std::string& workload) {
  const std::string path = opts.out_dir + "/spans_" + workload + ".jsonl";
  if (!tracer.Write(path)) Fail("writing " + path);
  for (const auto& [name, t] : tracer.LayerTimes()) {
    std::fprintf(stderr, "span %-28s count=%-6lld total=%.0fus self=%.0fus\n",
                 name.c_str(), t.count, t.total_us, t.self_us);
  }
}

/// The traced replay: the first requests of the workload's stream, pushed
/// through the layers' public functions in process with a span around each
/// call. `check(request index, answer)` verifies each engine answer.
void ReplayLayers(const RunOptions& opts, const Served& served,
                  const std::vector<std::string>& lines,
                  const std::string& workload,
                  const std::function<bool(size_t, const gdim::Ranking&)>& check,
                  Report* report) {
  Clock::time_point t0 = Clock::now();
  gdim::Result<gdim::PackedIndex> packed =
      gdim::ReadIndexFilePacked(served.index_path);
  if (!packed.ok()) Fail("reading the index: " + packed.status().ToString());
  report->Set("index_io.load_ms", SecondsSince(t0) * 1e3);
  gdim::ShardedOptions so;
  so.num_shards = kShards;
  t0 = Clock::now();
  gdim::Result<gdim::ShardedEngine> engine =
      gdim::ShardedEngine::FromPacked(std::move(*packed), so);
  if (!engine.ok()) Fail("loading the engine: " + engine.status().ToString());
  report->Set("sharded_engine.from_packed_ms", SecondsSince(t0) * 1e3);

  const int p = served.rows.bits();
  const size_t n = served.rows.size();
  const gdim::ScanKernel& kernel = gdim::ActiveScanKernel();
  const GraphDatabase& features = engine->mapper().features();
  // The replay probes IVF indexes laid out like the server's: one per
  // shard over the rows with id % kShards == shard, so local row j of
  // shard s is row s + j * kShards.
  std::vector<gdim::IvfIndex> ivf;
  double build_s = 0.0;
  for (int s = 0; s < kShards; ++s) {
    std::vector<uint64_t> words;
    int rows = 0;
    for (size_t i = static_cast<size_t>(s); i < n; i += kShards, ++rows) {
      words.insert(words.end(), served.rows.row(i),
                   served.rows.row(i) + served.rows.words());
    }
    const gdim::PackedBitMatrix m =
        gdim::PackedBitMatrix::FromWords(rows, p, std::move(words));
    t0 = Clock::now();
    ivf.push_back(gdim::IvfIndex::Build(m, 0));
    build_s += SecondsSince(t0);
  }
  report->Set("ivf_index.build_s", build_s);
  std::vector<std::vector<uint8_t>> no_tombstones;
  for (const gdim::IvfIndex& index : ivf) {
    size_t rows = 0;
    for (int b = 0; b < index.num_buckets(); ++b) rows += index.posting(b).size();
    no_tombstones.emplace_back(rows, 0);
  }

  Tracer tracer;
  const size_t count = std::min(lines.size(), kReplayRequests);
  std::vector<uint32_t> diffs(n);
  std::vector<double> scores(n);
  std::vector<gdim::WireRequest> requests;
  std::vector<double> candidates, ivf_recall;
  for (size_t r = 0; r < count; ++r) {
    const int request_span = tracer.Begin("request", static_cast<int>(r));
    const std::string line = lines[r].substr(0, lines[r].size() - 1);
    gdim::Result<gdim::WireRequest> parsed = [&] {
      ScopedSpan span(&tracer, "wire.parse", static_cast<int>(r));
      return gdim::ParseWireRequest(line);
    }();
    if (!parsed.ok()) Fail("replay could not parse its own request");
    std::vector<uint8_t> fp;
    {
      ScopedSpan span(&tracer, "mapper.map", static_cast<int>(r));
      fp = engine->mapper().Map(parsed->graph);
    }
    {
      ScopedSpan span(&tracer, "vf2.features", static_cast<int>(r));
      size_t hits = 0;
      for (const Graph& f : features) {
        hits += gdim::IsSubgraphIsomorphic(f, parsed->graph) ? 1 : 0;
      }
      if (hits != static_cast<size_t>(std::count(fp.begin(), fp.end(), 1))) {
        Fail("VF2 disagrees with the mapper on request " + std::to_string(r));
      }
    }
    gdim::Ranking answer;
    {
      ScopedSpan span(&tracer, "sharded_engine.query_mapped",
                      static_cast<int>(r));
      answer = engine->QueryMapped(fp, parsed->options);
    }
    // The approximate path on the same request: MODE=approx at the
    // engine's default NPROBE.
    gdim::Ranking approx_answer;
    {
      ScopedSpan span(&tracer, "sharded_engine.query_approx",
                      static_cast<int>(r));
      gdim::QueryOptions approx = parsed->options;
      approx.scan_mode = gdim::ScanMode::kApprox;
      approx.nprobe = 0;
      approx_answer = engine->QueryMapped(fp, approx);
    }
    const std::vector<uint64_t> q = served.rows.Pack(fp);
    {
      ScopedSpan span(&tracer, "kernels.hamming_block", static_cast<int>(r));
      kernel.HammingBlock(q.data(), served.rows.data().data(),
                          served.rows.words(), static_cast<int>(n),
                          diffs.data());
    }
    {
      ScopedSpan span(&tracer, "topk.score_vector", static_cast<int>(r));
      for (size_t i = 0; i < n; ++i) scores[i] = ScoreOf(static_cast<int>(diffs[i]), p);
    }
    {
      ScopedSpan span(&tracer, "topk.select", static_cast<int>(r));
      if (gdim::TopKByScores(scores, kK).size() != std::min<size_t>(kK, n)) {
        Fail("TopKByScores returned a short list");
      }
    }
    std::vector<std::vector<int>> probed(ivf.size());
    {
      ScopedSpan span(&tracer, "ivf_index.probe", static_cast<int>(r));
      for (size_t s = 0; s < ivf.size(); ++s) {
        probed[s] = ivf[s].Probe(q, ivf[s].default_nprobe(), no_tombstones[s]);
      }
    }
    // The benchmark's own check stays outside the request's span.
    tracer.End(request_span);
    // The IVF layer's own recall: the probed rows' exact top-k against the
    // top-k of every row, both in (distance, id) order.
    auto by_distance = [&](size_t a, size_t b) {
      return diffs[a] != diffs[b] ? diffs[a] < diffs[b] : a < b;
    };
    std::vector<size_t> pool;
    for (size_t s = 0; s < probed.size(); ++s) {
      for (int j : probed[s]) pool.push_back(s + static_cast<size_t>(j) * kShards);
    }
    candidates.push_back(static_cast<double>(pool.size()));
    std::vector<size_t> all(n);
    std::iota(all.begin(), all.end(), size_t{0});
    const size_t k = std::min<size_t>(kK, n);
    std::partial_sort(all.begin(), all.begin() + static_cast<long>(k), all.end(), by_distance);
    const size_t kp = std::min(k, pool.size());
    std::partial_sort(pool.begin(), pool.begin() + static_cast<long>(kp), pool.end(), by_distance);
    size_t hits = 0;
    for (size_t a = 0; a < kp; ++a) {
      hits += std::find(all.begin(), all.begin() + static_cast<long>(k), pool[a]) !=
                      all.begin() + static_cast<long>(k)
                  ? 1
                  : 0;
    }
    ivf_recall.push_back(static_cast<double>(hits) / static_cast<double>(k));
    if (check(r, answer)) {
      report->Count(true);
    } else {
      report->Wrong("in-process answer to request " + std::to_string(r));
    }
    // An approximate answer holds k rows, each with the score of its true
    // distance, in (score, id) order.
    Answer approx_items;
    for (const gdim::RankedResult& item : approx_answer) {
      approx_items.items.emplace_back(item.id, item.score);
    }
    std::string why;
    if (ValidApprox(approx_items, std::min<int>(kK, static_cast<int>(n)),
                    static_cast<int>(n), p,
                    [&](int id) {
                      return id >= 0 && static_cast<size_t>(id) < n
                                 ? static_cast<int>(diffs[static_cast<size_t>(id)])
                                 : -1;
                    },
                    &why)) {
      report->Count(true);
    } else {
      report->Wrong("in-process approximate answer to request " +
                    std::to_string(r) + ": " + why);
    }
    requests.push_back(std::move(*parsed));
  }
  WriteSpans(tracer, opts, workload);
  auto spans = SpanDurations(tracer);
  report->Set("wire.parse_us", Quantile(spans["wire.parse"], 0.5));
  report->Set("mapper.map_us_p50", Quantile(spans["mapper.map"], 0.5));
  report->Set("mapper.map_us_p99", Quantile(spans["mapper.map"], 0.99));
  report->Set("vf2.call_us_mean",
              Mean(spans["vf2.features"]) / static_cast<double>(features.size()));
  report->Set("sharded_engine.query_mapped_us_p50",
              Quantile(spans["sharded_engine.query_mapped"], 0.5));
  report->Set("sharded_engine.query_mapped_us_p99",
              Quantile(spans["sharded_engine.query_mapped"], 0.99));
  report->Set("sharded_engine.query_approx_us_p50",
              Quantile(spans["sharded_engine.query_approx"], 0.5));
  report->Set("kernels.ns_per_row",
              Mean(spans["kernels.hamming_block"]) * 1e3 / static_cast<double>(n));
  report->Set("kernels.bytes_per_query",
              static_cast<double>(n * served.rows.words() * sizeof(uint64_t)));
  report->Set("topk.select_us_p50", Quantile(spans["topk.select"], 0.5));
  report->Set("ivf_index.probe_us_p50", Quantile(spans["ivf_index.probe"], 0.5));
  report->Set("ivf_index.candidates_per_query", Mean(candidates));
  report->Set("ivf_index.scan_fraction", Mean(candidates) / static_cast<double>(n));
  report->Set("ivf_index.recall_at_10", Mean(ivf_recall));

  // BatchExecutor::Query without the socket, with the server's cache size.
  gdim::BatchExecutorOptions eo;
  eo.cache_bytes = size_t{64} << 20;
  std::vector<double> us;
  {
    gdim::BatchExecutor executor(&*engine, eo);
    for (size_t r = 0; r < count; ++r) {
      const Clock::time_point t = Clock::now();
      gdim::Result<gdim::Ranking> answer =
          executor.Query(requests[r].graph, requests[r].options);
      us.push_back(Micros(t, Clock::now()));
      if (answer.ok() && check(r, *answer)) {
        report->Count(true);
      } else {
        report->Wrong("executor answer to request " + std::to_string(r));
      }
    }
  }
  report->Set("batch_executor.inprocess_query_us_p50", Quantile(us, 0.5));
}

/// Share of the reference top-k ids that the answer holds.
double Overlap(const Answer& answer, const std::vector<Hit>& ref) {
  if (ref.empty()) return 1.0;
  size_t hits = 0;
  for (const Hit& h : ref) {
    for (const auto& item : answer.items) hits += item.first == h.id ? 1 : 0;
  }
  return static_cast<double>(hits) / static_cast<double>(ref.size());
}

/// The exact check of one wire answer against brute force over `rows`.
bool CheckExactLine(const std::string& line, const std::vector<uint64_t>& q,
                    const BitRows& rows, const std::vector<int>& ids,
                    double* overlap, std::string* why) {
  Answer answer;
  if (!ParseAnswer(line, &answer, why)) return false;
  const auto ref =
      BruteTopK(q.data(), rows, ids, kK, [](size_t) { return true; });
  *overlap = Overlap(answer, ref);
  return MatchesExact(answer, ref, rows.bits(), why);
}

bool SameRanking(const gdim::Ranking& answer, const std::vector<Hit>& ref,
                 int p) {
  if (answer.size() != ref.size()) return false;
  for (size_t i = 0; i < ref.size(); ++i) {
    if (answer[i].id != ref[i].id ||
        std::abs(answer[i].score - ScoreOf(ref[i].dist, p)) > 1e-9) {
      return false;
    }
  }
  return true;
}

std::vector<int> Positional(size_t n) {
  std::vector<int> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = static_cast<int>(i);
  return ids;
}

}  // namespace

void WriteIndex(const Served& served) {
  const gdim::Status st = gdim::WriteIndexFileV3Words(
      served.features, served.rows.size(), served.rows.words(),
      [&](uint64_t i) { return served.rows.row(static_cast<size_t>(i)); }, {},
      -1, gdim::V3Sections{}, served.index_path);
  if (!st.ok()) Fail("writing the index: " + st.ToString());
}

std::vector<size_t> SampleIndices(size_t n, size_t count, uint64_t seed) {
  std::vector<size_t> out;
  if (n == 0) return out;
  count = std::min(count, n);
  const size_t step = n / count;
  for (size_t j = 0; j < count; ++j) out.push_back((j * step + seed) % n);
  return out;
}

// ===================================================== scan_50k_unique ==

void RunScan50kUnique(const RunOptions& opts, Report* report) {
  constexpr int kGraphs = 50000;
  const gdim::ChemGenOptions co = ChemOptions(kGraphs, 200, opts.seed);
  const GraphDatabase db = gdim::GenerateChemDatabase(co);
  const Served served = PrepareChem(db, opts, /*with_db=*/true, report);
  // Fresh queries whose fingerprints are all distinct, so no request can be
  // answered from the result cache: about a third of generated chem queries
  // have a fingerprint not seen before, which leaves several times the
  // requests a 10 s run needs today.
  const size_t candidates = static_cast<size_t>(std::max(1.0, opts.seconds) * 6000.0);
  const GraphDatabase generated = gdim::GenerateChemQueries(co, static_cast<int>(candidates));
  const auto generated_bits = MapQueries(served.features, generated, opts.seed, report);
  GraphDatabase queries;
  std::vector<std::vector<uint8_t>> qbits;
  {
    std::set<std::vector<uint8_t>> seen;
    for (size_t i = 0; i < generated.size(); ++i) {
      if (seen.insert(generated_bits[i]).second) {
        queries.push_back(generated[i]);
        qbits.push_back(generated_bits[i]);
      }
    }
  }
  std::vector<std::string> lines;
  for (size_t i = 1; i < queries.size(); ++i) lines.push_back(QueryLine(queries[i], " MODE=full"));

  std::unique_ptr<ServerProcess> server;
  std::vector<double> setups;
  MeasureSetup(opts, ServerArgs(served), QueryLine(queries[0], " MODE=full"),
               &server, &setups, report);
  ServerCounters before;
  if (opts.trace) before = Scrape(server->port());
  const ClosedLoopResult run = RunClosedLoop(
      server->port(), lines, opts.seconds, [&] { return server->CpuSeconds(); });
  WarnIfExhausted(run);
  ServerCounters after;
  if (opts.trace) {
    after = Scrape(server->port());
    ReportPing(server->port(), report);
    const GraphDatabase writes(generated.begin(), generated.begin() + kProbeWrites);
    ProbeWrites(server->port(), writes, opts.out_dir + "/snapshot.gdim", report);
  }
  const double rss = server->PeakRssMb();
  server.reset();
  if (!opts.trace) {
    MeasureSetup(opts, ServerArgs(served), QueryLine(queries[0], " MODE=full"),
                 &server, &setups, report);
    server.reset();
  }
  const double setup_s = Quantile(setups, 0.5);

  // Check every answer against brute force over the served rows.
  const std::vector<int> ids = Positional(served.rows.size());
  std::vector<std::string> verdict(run.issued);
  std::vector<char> ok(run.issued, 0);
  std::vector<double> overlap(run.issued, 0.0);
  ParallelFor(run.issued, [&](size_t i) {
    if (run.responses[i].empty()) {
      verdict[i] = "no response";
      return;
    }
    ok[i] = CheckExactLine(run.responses[i], served.rows.Pack(qbits[i + 1]),
                           served.rows, ids, &overlap[i], &verdict[i]);
  });
  for (size_t i = 0; i < run.issued; ++i) {
    if (ok[i]) {
      report->Count(true);
    } else if (run.responses[i].empty() ||
               run.responses[i].rfind("ERR", 0) == 0) {
      report->Failed("query " + std::to_string(i) + ": " + verdict[i]);
    } else {
      report->Wrong("query " + std::to_string(i) + ": " + verdict[i]);
    }
  }

  const double completed = static_cast<double>(run.latency_ms.size());
  PrintWindows(run);
  std::fprintf(stderr,
               "scan_50k_unique: %zu queries, %.0f q/s, p50 %.3f ms, p99 "
               "%.3f ms, setup %.3f s\n",
               run.issued, completed / run.elapsed_s,
               Quantile(run.latency_ms, 0.5), Quantile(run.latency_ms, 0.99),
               setup_s);
  if (!opts.trace) {
    report->Set("setup_s", setup_s);
    report->Set("ops_per_s", run.OpsPerSecond());
    report->Set("cpu_ms_per_op", run.CpuMsPerOp());
    report->Set("quality_at_10", Mean(overlap));
    report->Set("peak_rss_mb", rss);
    return;
  }
  ReportServerLayers(before, after, report);
  ReportLoadgen(run, report);
  TraceOfflineLayers(opts, "scan_50k_unique",
                     GraphDatabase(db.begin(), db.begin() + kSelectionSample),
                     ChemMining(), kDimension, report);
  ReplayLayers(
      opts, served, lines, "scan_50k_unique",
      [&](size_t r, const gdim::Ranking& answer) {
        const std::vector<uint64_t> q = served.rows.Pack(qbits[r + 1]);
        return SameRanking(answer,
                           BruteTopK(q.data(), served.rows, ids, kK,
                                     [](size_t) { return true; }),
                           served.rows.bits());
      },
      report);
}

// ==================================================== cache_zipf_churn ==

namespace {

// Open-loop shape: Poisson arrivals at a fixed total rate, every
// kWriteEvery-th arrival a write. See README.md for why the rate sits well
// under capacity.
constexpr double kArrivalRate = 1200.0;  // requests per second
constexpr int kWriteEvery = 5;            // → 240 writes/s
constexpr int kPoolQueries = 1000;
constexpr double kZipfS = 1.0;
// Every kKeepEvery-th inserted graph stays; the others are removed again
// by the next write.
constexpr int kKeepEvery = 8;

struct WriteOp {
  bool insert = true;
  size_t graph = 0;  ///< row in the insert pool (the graph it adds or removes)
};

struct PendingReq {
  int kind = 0;  ///< 0 query, 1 write, 2 snapshot
  size_t index = 0;
  double due_s = 0.0;
};

}  // namespace

void RunCacheZipfChurn(const RunOptions& opts, Report* report) {
  constexpr int kGraphs = 2000;
  const gdim::ChemGenOptions co = ChemOptions(kGraphs, 40, opts.seed);
  const GraphDatabase db = gdim::GenerateChemDatabase(co);
  const GraphDatabase pool_queries = gdim::GenerateChemQueries(co, kPoolQueries + 1);

  // The request schedule: Poisson arrivals, Zipf ranks over the pool.
  std::mt19937_64 rng(opts.seed * 0x9e3779b97f4a7c15ULL + 17);
  std::exponential_distribution<double> gap(kArrivalRate);
  std::vector<double> cumulative;
  double total = 0.0;
  for (int r = 0; r < kPoolQueries; ++r) {
    total += std::pow(static_cast<double>(r + 1), -kZipfS);
    cumulative.push_back(total);
  }
  std::uniform_real_distribution<double> unit(0.0, total);
  struct Arrival {
    double due_s;
    int kind;
    size_t index;
  };
  std::vector<Arrival> arrivals;
  std::vector<WriteOp> writes;
  size_t inserts = 0;
  bool remove_next = false;
  for (double t = gap(rng); t < opts.seconds; t += gap(rng)) {
    if (arrivals.size() % kWriteEvery == kWriteEvery - 1) {
      // Each INSERT is followed by the REMOVE of the same graph, except
      // every kKeepEvery-th insert, which stays.
      if (remove_next) {
        writes.push_back({false, inserts - 1});
        remove_next = false;
      } else {
        writes.push_back({true, inserts});
        remove_next = inserts++ % kKeepEvery != 0;
      }
      arrivals.push_back({t, 1, writes.size() - 1});
    } else {
      const size_t rank = static_cast<size_t>(
          std::lower_bound(cumulative.begin(), cumulative.end(), unit(rng)) -
          cumulative.begin());
      arrivals.push_back({t, 0, std::min<size_t>(rank, kPoolQueries - 1) + 1});
    }
  }
  gdim::ChemGenOptions wo = co;
  wo.seed = opts.seed + 7919;
  const GraphDatabase insert_pool = gdim::GenerateChemQueries(wo, static_cast<int>(inserts) + 1);

  const Served served = PrepareChem(db, opts, /*with_db=*/true, report);
  const auto pool_bits = MapQueries(served.features, pool_queries, opts.seed, report);
  const auto insert_bits = MapQueries(served.features, insert_pool, opts.seed + 3, report);
  std::vector<std::string> query_lines, full_lines;
  for (const Graph& g : pool_queries) {
    query_lines.push_back(QueryLine(g, ""));
    full_lines.push_back(QueryLine(g, " MODE=full"));
  }

  std::unique_ptr<ServerProcess> server;
  std::vector<double> setups;
  MeasureSetup(opts, ServerArgs(served), query_lines[0], &server, &setups, report);
  ServerCounters before;
  if (opts.trace) before = Scrape(server->port());

  // ---- the open loop: one thread, three query connections, one write
  // connection (writes and the SNAPSHOT are FIFO on it).
  std::vector<std::unique_ptr<Conn>> conns;
  for (int c = 0; c < kConnections; ++c) {
    conns.push_back(std::make_unique<Conn>());
    if (!conns.back()->Connect(server->port())) Fail("connecting");
  }
  const int write_conn = kConnections - 1;
  std::vector<std::deque<PendingReq>> pending(kConnections);
  std::deque<PendingReq> query_queue;
  std::deque<PendingReq> write_queue;
  std::vector<int> insert_id(inserts + 1, -1);
  std::vector<int> written_at(inserts + 1, -1), removed_at(inserts + 1, -1);
  struct QueryRecord {
    size_t pool = 0;
    size_t acked = 0;  ///< writes answered before it was sent
    size_t sent = 0;   ///< writes sent before its answer arrived
    std::string response;
  };
  std::vector<QueryRecord> records;
  std::vector<double> query_ms, write_ms, lag_ms;
  size_t writes_sent = 0, writes_acked = 0;
  bool write_busy = false;
  bool snapshot_queued = false;
  bool snapshot_done = false;
  const std::string snapshot_path = opts.out_dir + "/snapshot.gdim";
  size_t next = 0;
  const double cpu_before = server->CpuSeconds();
  const Clock::time_point start = Clock::now();
  auto now_s = [&] { return SecondsSince(start); };
  auto send_write = [&](const PendingReq& req) {
    std::string line;
    if (req.kind == 2) {
      line = "SNAPSHOT " + snapshot_path + "\n";
    } else {
      const WriteOp& w = writes[req.index];
      line = w.insert ? "INSERT " + gdim::EncodeGraphInline(insert_pool[w.graph]) + "\n"
                      : "REMOVE " + std::to_string(insert_id[w.graph]) + "\n";
      if (w.insert) {
        written_at[w.graph] = static_cast<int>(req.index);
      } else {
        removed_at[w.graph] = static_cast<int>(req.index);
      }
      ++writes_sent;
    }
    if (!conns[write_conn]->Send(line)) Fail("write connection broke");
    pending[write_conn].push_back(req);
    write_busy = true;
  };
  while (true) {
    const double now = now_s();
    if (now > opts.seconds + 60.0) Fail("the open loop did not drain");
    for (; next < arrivals.size() && arrivals[next].due_s <= now; ++next) {
      const Arrival& a = arrivals[next];
      if (a.kind == 1) {
        write_queue.push_back({1, a.index, a.due_s});
        continue;
      }
      records.push_back({a.index, 0, 0, {}});
      lag_ms.push_back((now_s() - a.due_s) * 1e3);
      query_queue.push_back({0, records.size() - 1, a.due_s});
    }
    // A query goes out on an idle query connection; while all are busy it
    // waits here, and its latency still counts from its due time.
    for (int c = 0; c < write_conn && !query_queue.empty(); ++c) {
      if (!pending[c].empty()) continue;
      const PendingReq req = query_queue.front();
      query_queue.pop_front();
      records[req.index].acked = writes_acked;
      if (!conns[c]->Send(query_lines[records[req.index].pool])) {
        Fail("query connection broke");
      }
      pending[c].push_back(req);
    }
    if (!snapshot_queued && (now >= opts.seconds / 2 || next == arrivals.size())) {
      write_queue.push_back({2, 0, now});
      snapshot_queued = true;
    }
    if (!write_busy && !write_queue.empty()) {
      send_write(write_queue.front());
      write_queue.pop_front();
    }
    bool done = next == arrivals.size() && snapshot_done && !write_busy &&
                write_queue.empty() && query_queue.empty();
    for (const auto& p : pending) done = done && p.empty();
    if (done) break;
    std::vector<pollfd> fds;
    for (const auto& c : conns) fds.push_back({c->fd(), POLLIN, 0});
    // The generator busy-polls: sleeping until the next due time would add
    // the host's wake-up delay to every send and every receive.
    const timespec no_wait{0, 0};
    if (ppoll(fds.data(), fds.size(), &no_wait, nullptr) < 0 && errno != EINTR) {
      Fail("poll");
    }
    for (int c = 0; c < kConnections; ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (!conns[c]->Fill()) Fail("the server closed a connection");
      std::string line;
      while (conns[c]->PopLine(&line)) {
        if (pending[c].empty()) Fail("an answer nobody asked for");
        const PendingReq req = pending[c].front();
        pending[c].pop_front();
        const double latency_ms = (now_s() - req.due_s) * 1e3;
        if (req.kind == 0) {
          query_ms.push_back(latency_ms);
          records[req.index].sent = writes_sent;
          records[req.index].response = std::move(line);
          continue;
        }
        write_busy = false;
        if (req.kind == 2) {
          snapshot_done = true;
          report->Count(line == "OK snapshot");
          continue;
        }
        write_ms.push_back(latency_ms);
        ++writes_acked;
        const WriteOp& w = writes[req.index];
        if (w.insert) {
          if (line.rfind("OK ", 0) == 0) {
            insert_id[w.graph] = std::atoi(line.c_str() + 3);
            report->Count(insert_id[w.graph] >= kGraphs);
          } else {
            report->Failed("INSERT answered '" + line + "'");
          }
        } else {
          const std::string want = "OK removed " + std::to_string(insert_id[w.graph]);
          if (line == want) {
            report->Count(true);
          } else {
            report->Failed("REMOVE answered '" + line + "'");
          }
        }
      }
    }
  }
  const double open_loop_s = now_s();
  const double requests = static_cast<double>(query_ms.size() + write_ms.size());
  const double cpu_ms_per_request =
      (server->CpuSeconds() - cpu_before) * 1e3 / requests;

  // ---- the quiesced pass: every pool query once more, MODE=full.
  std::vector<std::string> final_answers(full_lines.size());
  for (size_t i = 0; i < full_lines.size(); ++i) {
    if (!conns[0]->Send(full_lines[i]) || !conns[0]->ReadLine(&final_answers[i])) {
      Fail("quiesced pass");
    }
  }
  ServerCounters after;
  if (opts.trace) {
    after = Scrape(server->port());
    ReportPing(server->port(), report);
  }
  const double rss = server->PeakRssMb();
  conns.clear();
  server.reset();
  if (!opts.trace) {
    MeasureSetup(opts, ServerArgs(served), query_lines[0], &server, &setups, report);
    server.reset();
  }
  const double setup_s = Quantile(setups, 0.5);
  struct stat st{};
  const double snapshot_bytes =
      ::stat(snapshot_path.c_str(), &st) == 0 ? static_cast<double>(st.st_size) : 0.0;
  std::remove(snapshot_path.c_str());

  // ---- checks. Rows: the served database, then the insert pool. A query
  // was answered at some state between the writes acknowledged before it
  // was sent and the writes sent before its answer came; state s holds the
  // database plus every insert among the first s writes not removed by
  // them.
  BitRows rows = served.rows;
  std::vector<int> ids = Positional(served.rows.size());
  for (size_t j = 0; j < insert_bits.size(); ++j) {
    rows.Append(insert_bits[j]);
    ids.push_back(insert_id[j]);
  }
  const size_t base = served.rows.size();
  auto alive_at = [&](size_t state) {
    return [&, state](size_t row) {
      if (row < base) return true;
      const size_t j = row - base;
      return written_at[j] >= 0 && static_cast<size_t>(written_at[j]) < state &&
             (removed_at[j] < 0 || static_cast<size_t>(removed_at[j]) >= state);
    };
  };
  std::vector<char> ok(records.size(), 0);
  std::vector<std::string> why(records.size());
  ParallelFor(records.size(), [&](size_t i) {
    const QueryRecord& rec = records[i];
    Answer answer;
    if (!ParseAnswer(rec.response, &answer, &why[i])) return;
    const std::vector<uint64_t> q = rows.Pack(pool_bits[rec.pool]);
    for (size_t s = rec.acked; s <= rec.sent && !ok[i]; ++s) {
      ok[i] = MatchesExact(answer, BruteTopK(q.data(), rows, ids, kK, alive_at(s)),
                           rows.bits(), &why[i]);
    }
  });
  for (size_t i = 0; i < records.size(); ++i) {
    if (ok[i]) {
      report->Count(true);
    } else if (records[i].response.rfind("OK", 0) != 0) {
      report->Failed("query " + std::to_string(i) + ": " + why[i]);
    } else {
      report->Wrong("query " + std::to_string(i) + ": " + why[i]);
    }
  }
  std::vector<double> overlap;
  for (size_t i = 0; i < final_answers.size(); ++i) {
    const std::vector<uint64_t> q = rows.Pack(pool_bits[i]);
    const auto ref = BruteTopK(q.data(), rows, ids, kK, alive_at(writes.size()));
    Answer answer;
    std::string reason;
    const bool parsed = ParseAnswer(final_answers[i], &answer, &reason);
    overlap.push_back(parsed ? Overlap(answer, ref) : 0.0);
    const bool good = parsed && MatchesExact(answer, ref, rows.bits(), &reason);
    if (good) {
      report->Count(true);
    } else {
      report->Wrong("quiesced query " + std::to_string(i) + ": " + reason);
    }
  }

  std::fprintf(stderr,
               "cache_zipf_churn: %zu queries + %zu writes in %.2f s, query "
               "p50 %.3f p99 %.3f ms, write p50 %.3f p99 %.3f ms, lag p99 "
               "%.3f ms, setup %.3f s, server cpu %.4f ms/request\n",
               query_ms.size(), write_ms.size(), open_loop_s,
               Quantile(query_ms, 0.5), Quantile(query_ms, 0.99),
               Quantile(write_ms, 0.5), Quantile(write_ms, 0.99),
               Quantile(lag_ms, 0.99), setup_s, cpu_ms_per_request);
  if (!opts.trace) {
    report->Set("setup_s", setup_s);
    report->Set("ops_per_s", requests / open_loop_s);
    report->Set("cpu_ms_per_op", cpu_ms_per_request);
    report->Set("quality_at_10", Mean(overlap));
    report->Set("peak_rss_mb", rss);
    return;
  }
  ReportServerLayers(before, after, report);
  report->Set("mutation.apply_us_p50",
              StageDelta(before, after, "mutation_apply").Quantile(0.5));
  report->Set("index_io.snapshot_write_ms",
              StageDelta(before, after, "snapshot_write").MeanValue() / 1e3);
  report->Set("index_io.snapshot_bytes", snapshot_bytes);
  report->Set("loadgen.lag_p99_ms", Quantile(lag_ms, 0.99));
  report->Set("loadgen.query_p50_ms", Quantile(query_ms, 0.5));
  report->Set("loadgen.query_p99_ms", Quantile(query_ms, 0.99));
  report->Set("loadgen.write_p50_ms", Quantile(write_ms, 0.5));
  report->Set("loadgen.write_p99_ms", Quantile(write_ms, 0.99));
  // The replay streams the queries in arrival order over the served rows.
  std::vector<std::string> stream;
  std::vector<size_t> stream_pool;
  for (const Arrival& a : arrivals) {
    if (a.kind == 0) {
      stream.push_back(query_lines[a.index]);
      stream_pool.push_back(a.index);
    }
  }
  const std::vector<int> served_ids = Positional(base);
  TraceOfflineLayers(opts, "cache_zipf_churn",
                     GraphDatabase(db.begin(), db.begin() + kSelectionSample),
                     ChemMining(), kDimension, report);
  ReplayLayers(
      opts, served, stream, "cache_zipf_churn",
      [&](size_t r, const gdim::Ranking& answer) {
        const std::vector<uint64_t> q = served.rows.Pack(pool_bits[stream_pool[r]]);
        return SameRanking(answer,
                           BruteTopK(q.data(), served.rows, served_ids, kK,
                                     [](size_t) { return true; }),
                           served.rows.bits());
      },
      report);
}

// ============================================ build_reindex's serving ==

void TraceServingLayers(const RunOptions& opts, gdim::BatchExecutor* executor,
                        const Served& served, const GraphDatabase& queries,
                        Report* report) {
  const auto qbits = MapQueries(served.features, queries, opts.seed, report);
  std::vector<std::string> lines;
  for (const Graph& g : queries) lines.push_back(QueryLine(g, " MODE=full"));
  const std::vector<int> ids = Positional(served.rows.size());
  gdim::NetServer net(executor);
  const gdim::Status started = net.Start();
  if (!started.ok()) Fail("starting the in-process server: " + started.ToString());
  const ServerCounters before = Scrape(net.port());
  // The pool is small; the loop ends when every query was asked once.
  const ClosedLoopResult run = RunClosedLoop(net.port(), lines, opts.seconds, nullptr);
  const ServerCounters after = Scrape(net.port());
  ReportPing(net.port(), report);
  for (size_t i = 0; i < run.issued; ++i) {
    double overlap = 0.0;
    std::string why;
    if (CheckExactLine(run.responses[i], served.rows.Pack(qbits[i]), served.rows,
                       ids, &overlap, &why)) {
      report->Count(true);
    } else if (run.responses[i].rfind("OK", 0) != 0) {
      report->Failed("query " + std::to_string(i) + ": " + why);
    } else {
      report->Wrong("query " + std::to_string(i) + ": " + why);
    }
  }
  ReportServerLayers(before, after, report);
  ReportLoadgen(run, report);
  const size_t writes = std::min(kProbeWrites, queries.size());
  ProbeWrites(net.port(), GraphDatabase(queries.begin(), queries.begin() + static_cast<long>(writes)),
              opts.out_dir + "/snapshot.gdim", report);
  net.Stop();
  ReplayLayers(
      opts, served, lines, "build_reindex",
      [&](size_t r, const gdim::Ranking& answer) {
        const std::vector<uint64_t> q = served.rows.Pack(qbits[r]);
        return SameRanking(answer,
                           BruteTopK(q.data(), served.rows, ids, kK,
                                     [](size_t) { return true; }),
                           served.rows.bits());
      },
      report);
}

}  // namespace perfbench
