// build_reindex: the offline path in process. GraphSearchIndex::Build with
// DSPM (the `build` default), then BatchExecutor::Reindex with DSPMap (the
// REINDEX default) over the same live set, both at p=64. Each generation's
// answers are checked against brute force over its own fingerprints, and
// its top-10 precision is measured against the exact δ2 (MCS) ranking of
// held-out queries.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <numeric>
#include <random>
#include <stdexcept>

#include "core/binary_db.h"
#include "core/dspm.h"
#include "core/dspmap.h"
#include "core/index.h"
#include "core/index_io.h"
#include "core/mapper.h"
#include "datasets/chemgen.h"
#include "graph/graph_io.h"
#include "mcs/dissimilarity.h"
#include "mining/gspan.h"
#include "server/batch_executor.h"
#include "server/sharded_engine.h"
#include "store/graph_store.h"
#include "workloads.h"

namespace perfbench {

using gdim::Graph;
using gdim::GraphDatabase;

namespace {

constexpr int kGraphs = 400;
constexpr int kQueries = 160;
constexpr int kFamilies = 100;
constexpr uint64_t kCorpusSeed = 1;
constexpr int kQueryPoolFactor = 8;
constexpr int kDimension = 64;
constexpr int kK = 10;
constexpr int kSetupsPerGroup = 40;
constexpr size_t kSpotChecks = 40;

[[noreturn]] void Fail(const std::string& what) {
  throw std::runtime_error(what);
}

/// Exact top-10 ids per query by δ2 (ascending, ties by id).
std::vector<std::vector<int>> ExactTopIds(
    const std::vector<std::vector<double>>& delta) {
  std::vector<std::vector<int>> out;
  for (const std::vector<double>& row : delta) {
    std::vector<int> ids(row.size());
    std::iota(ids.begin(), ids.end(), 0);
    std::sort(ids.begin(), ids.end(), [&](int a, int b) {
      return row[static_cast<size_t>(a)] != row[static_cast<size_t>(b)]
                 ? row[static_cast<size_t>(a)] < row[static_cast<size_t>(b)]
                 : a < b;
    });
    ids.resize(static_cast<size_t>(kK));
    out.push_back(std::move(ids));
  }
  return out;
}

double Precision(const gdim::Ranking& answer, const std::vector<int>& exact) {
  int hits = 0;
  for (const gdim::RankedResult& r : answer) {
    hits += std::count(exact.begin(), exact.end(), r.id) > 0 ? 1 : 0;
  }
  return static_cast<double>(hits) / static_cast<double>(exact.size());
}

/// One generation as the reference sees it: features and every live row.
struct Generation {
  GraphDatabase features;
  BitRows rows;
  std::vector<int> ids;
};

/// Checks one answer against brute force over the generation's rows.
void CheckAnswer(const Generation& gen, const std::vector<uint8_t>& qbits,
                 const gdim::Ranking& answer, const std::string& what,
                 Report* report) {
  const std::vector<uint64_t> q = gen.rows.Pack(qbits);
  const auto ref =
      BruteTopK(q.data(), gen.rows, gen.ids, kK, [](size_t) { return true; });
  bool ok = answer.size() == ref.size();
  for (size_t i = 0; ok && i < ref.size(); ++i) {
    ok = answer[i].id == ref[i].id &&
         std::abs(answer[i].score - ScoreOf(ref[i].dist, gen.rows.bits())) < 1e-9;
  }
  if (ok) {
    report->Count(true);
  } else {
    report->Wrong(what + " differs from brute force");
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// CPU time (user + system, all threads) this process has used, in seconds.
double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// The serving side of one built index: engine, store and executor, with
/// REINDEX configured like `serve-net` (DSPMap, the same mining knobs).
struct Serving {
  std::unique_ptr<gdim::ShardedEngine> engine;
  std::unique_ptr<gdim::GraphStore> store;
  std::unique_ptr<gdim::BatchExecutor> executor;

  ~Serving() {
    executor.reset();  // before the engine and store it points at
  }
};

/// Starts serving the built generation from its files, the way serve-net
/// does: read the index and the graphs, partition the engine, seed the
/// store, start the executor.
std::unique_ptr<Serving> StartServing(const std::string& index_path,
                                      const std::string& db_path,
                                      const gdim::MiningOptions& mining) {
  auto s = std::make_unique<Serving>();
  gdim::Result<gdim::PackedIndex> packed = gdim::ReadIndexFilePacked(index_path);
  if (!packed.ok()) Fail("index: " + packed.status().ToString());
  gdim::Result<GraphDatabase> db = gdim::ReadGraphFile(db_path);
  if (!db.ok()) Fail("graphs: " + db.status().ToString());
  gdim::Result<gdim::ShardedEngine> engine =
      gdim::ShardedEngine::FromPacked(std::move(*packed), {});
  if (!engine.ok()) Fail("engine: " + engine.status().ToString());
  s->engine = std::make_unique<gdim::ShardedEngine>(std::move(*engine));
  s->store = std::make_unique<gdim::GraphStore>();
  {
    gdim::ScopedRole writer(&s->store->writer_role());
    for (size_t i = 0; i < db->size(); ++i) {
      if (!s->store->Put(static_cast<int>(i), std::move((*db)[i])).ok()) {
        Fail("store");
      }
    }
  }
  gdim::BatchExecutorOptions eo;
  eo.cache_bytes = size_t{64} << 20;  // serve-net's --cache-mb default
  eo.store = s->store.get();
  eo.refresh.selector = "DSPMap";
  eo.refresh.mining = mining;
  s->executor = std::make_unique<gdim::BatchExecutor>(s->engine.get(), eo);
  return s;
}

}  // namespace

void RunBuildReindex(const RunOptions& opts, Report* report) {
  // One fixed corpus: MCS cost is heavy-tailed across generated corpora, so
  // build and reindex times would swing with the corpus seed by far more
  // than any regression bound (see README.md). The seed draws the held-out
  // queries from the corpus's query pool.
  gdim::ChemGenOptions co;
  co.num_graphs = kGraphs;
  co.num_families = kFamilies;
  co.seed = kCorpusSeed;
  const GraphDatabase db = gdim::GenerateChemDatabase(co);
  std::mt19937_64 rng(opts.seed);
  GraphDatabase pool = gdim::GenerateChemQueries(co, kQueries * kQueryPoolFactor);
  std::shuffle(pool.begin(), pool.end(), rng);
  const GraphDatabase queries(pool.begin(), pool.begin() + kQueries);
  const gdim::MiningOptions mining;  // the build / REINDEX defaults
  const std::vector<size_t> spot_db = SampleIndices(db.size(), kSpotChecks, opts.seed);
  const std::vector<size_t> spot_q = SampleIndices(queries.size(), 10, opts.seed);

  // Reference quality: exact δ2 of every held-out query to every graph.
  const auto exact = ExactTopIds(gdim::QueryDissimilarities(
      queries, db, gdim::DissimilarityKind::kDelta2, {}, 0));

  // ---- build
  gdim::IndexOptions io;
  io.selector = "DSPM";
  io.p = kDimension;
  io.mining = mining;
  io.seed = opts.seed;
  double cpu0 = CpuSeconds();
  Clock::time_point t0 = Clock::now();
  gdim::Result<gdim::GraphSearchIndex> index = gdim::GraphSearchIndex::Build(db, io);
  const double build_s = SecondsSince(t0);
  const double build_cpu_s = CpuSeconds() - cpu0;
  if (!index.ok()) Fail("build: " + index.status().ToString());
  Generation built{index->dimension(), BitRows(static_cast<int>(index->dimension().size())), {}};
  for (size_t i = 0; i < db.size(); ++i) {
    built.rows.Append(index->mapped_database()[i]);
    built.ids.push_back(static_cast<int>(i));
  }
  SpotCheckFingerprints(built.features, db, spot_db,
                        [&](size_t i) { return index->mapped_database()[i]; },
                        "built database", report);
  SpotCheckFingerprints(built.features, queries, spot_q,
                        [&](size_t i) { return index->MapQuery(queries[i]); },
                        "built query", report);
  std::vector<double> build_precision;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const gdim::Ranking answer = index->Query(queries[qi], kK);
    CheckAnswer(built, index->MapQuery(queries[qi]), answer,
                "built answer " + std::to_string(qi), report);
    build_precision.push_back(Precision(answer, exact[qi]));
  }

  // ---- set-up: from the built index's files to the first answered query.
  gdim::PersistedIndex persisted;
  persisted.features = index->dimension();
  persisted.db_bits = index->mapped_database();
  const std::string index_path = opts.out_dir + "/index.gdim";
  const std::string db_path = opts.out_dir + "/db.gdb";
  if (!gdim::WriteIndexFile(persisted, index_path, gdim::IndexFormat::kV3Sectioned).ok() ||
      !gdim::WriteGraphFile(db, db_path).ok()) {
    Fail("writing the built index");
  }
  // The host's speed drifts over seconds, so the set-ups run in groups
  // spread over the run: after the build, after the reindex and at the end.
  std::vector<double> setup;
  auto measure_setups = [&] {
    for (int i = 0; i < kSetupsPerGroup; ++i) {
      t0 = Clock::now();
      const std::unique_ptr<Serving> started = StartServing(index_path, db_path, mining);
      gdim::Result<gdim::Ranking> first =
          started->executor->Query(queries[0], {.k = kK});
      setup.push_back(SecondsSince(t0));
      report->Count(first.ok());
    }
  };
  if (!opts.trace) measure_setups();
  std::unique_ptr<Serving> serving = StartServing(index_path, db_path, mining);

  // ---- reindex over the same live set
  cpu0 = CpuSeconds();
  t0 = Clock::now();
  gdim::Result<gdim::ReindexReport> reindexed =
      serving->executor->Reindex(kDimension);
  const double reindex_s = SecondsSince(t0);
  const double reindex_cpu_s = CpuSeconds() - cpu0;
  if (!reindexed.ok()) Fail("reindex: " + reindexed.status().ToString());
  report->Count(reindexed->generation == 1);
  const gdim::PersistedIndex next = serving->engine->ToPersistedIndex();
  Generation refreshed{next.features, BitRows(static_cast<int>(next.features.size())), next.ids};
  for (const auto& row : next.db_bits) refreshed.rows.Append(row);
  if (refreshed.ids.empty()) {
    for (size_t i = 0; i < refreshed.rows.size(); ++i) refreshed.ids.push_back(static_cast<int>(i));
  }
  SpotCheckFingerprints(refreshed.features, db, spot_db,
                        [&](size_t i) { return next.db_bits[i]; },
                        "reindexed database", report);
  const gdim::FeatureMapper& mapper = serving->engine->mapper();
  SpotCheckFingerprints(refreshed.features, queries, spot_q,
                        [&](size_t i) { return mapper.Map(queries[i]); },
                        "reindexed query", report);
  if (!opts.trace) measure_setups();
  std::vector<double> reindex_precision;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    gdim::Result<gdim::Ranking> answer = serving->executor->Query(
        queries[qi], {.k = kK, .scan_mode = gdim::ScanMode::kFull});
    if (!answer.ok()) {
      report->Failed("reindexed query: " + answer.status().ToString());
      continue;
    }
    CheckAnswer(refreshed, mapper.Map(queries[qi]), *answer,
                "reindexed answer " + std::to_string(qi), report);
    reindex_precision.push_back(Precision(*answer, exact[qi]));
  }

  std::fprintf(stderr,
               "build_reindex: build %.2f s (precision %.3f, cpu %.2f s), "
               "reindex %.2f s (precision %.3f, cpu %.2f s), setup %.4f s\n",
               build_s, Mean(build_precision), build_cpu_s, reindex_s,
               Mean(reindex_precision), reindex_cpu_s, Quantile(setup, 0.5));
  if (!opts.trace) {
    measure_setups();
    // Two operations, the two generations: the DSPM build and the DSPMap
    // reindex.
    std::vector<double> precision = build_precision;
    precision.insert(precision.end(), reindex_precision.begin(),
                     reindex_precision.end());
    report->Set("setup_s", Quantile(setup, 0.5));
    report->Set("ops_per_s", 2.0 / (build_s + reindex_s));
    report->Set("cpu_ms_per_op", (build_cpu_s + reindex_cpu_s) * 1e3 / 2.0);
    report->Set("quality_at_10", Mean(precision));
    report->Set("peak_rss_mb", PeakRssMb());
    return;
  }
  // The serving layers on the reindexed generation: the held-out queries'
  // whole pool, over the wire to this executor.
  for (size_t i = 0; i < refreshed.ids.size(); ++i) {
    if (refreshed.ids[i] != static_cast<int>(i)) Fail("reindexed ids are not positional");
  }
  Served served{refreshed.features, refreshed.rows, opts.out_dir + "/reindexed.gdim", ""};
  WriteIndex(served);
  TraceServingLayers(opts, serving->executor.get(), served, pool, report);
  serving.reset();
  TraceOfflineLayers(opts, "build_reindex", db, mining, kDimension, report);
}

void TraceOfflineLayers(const RunOptions& opts, const std::string& workload,
                        const GraphDatabase& db, const gdim::MiningOptions& mining,
                        int p, Report* report) {
  const std::vector<size_t> spot_db = SampleIndices(db.size(), kSpotChecks, opts.seed);
  Tracer tracer;
  std::vector<gdim::FrequentPattern> patterns;
  gdim::DissimilarityMatrix delta;
  gdim::DspmResult dspm;
  gdim::BinaryFeatureDb fdb;
  {
    ScopedSpan build(&tracer, "build", 0);
    {
      ScopedSpan span(&tracer, "gspan.mine", 0);
      auto mined = gdim::MineFrequentSubgraphs(db, mining);
      if (!mined.ok()) Fail("mining: " + mined.status().ToString());
      patterns = std::move(*mined);
    }
    fdb = gdim::BinaryFeatureDb::FromPatterns(static_cast<int>(db.size()), patterns);
    {
      ScopedSpan span(&tracer, "mcs.delta_matrix", 0);
      delta = gdim::DissimilarityMatrix::Compute(db, gdim::DissimilarityKind::kDelta2);
    }
    {
      ScopedSpan span(&tracer, "dspm.select", 0);
      gdim::DspmOptions o;
      o.p = p;
      dspm = gdim::RunDspm(fdb, delta, o);
    }
    GraphDatabase dimension;
    for (int r : dspm.selected) dimension.push_back(patterns[static_cast<size_t>(r)].graph);
    {
      ScopedSpan span(&tracer, "mapper.fingerprint_db", 0);
      const auto rows = gdim::FeatureMapper(dimension).MapAll(db);
      for (size_t i : spot_db) {
        report->Count(rows[i] == gdim::FeatureMapper(dimension).Map(db[i]));
      }
    }
  }
  std::atomic<long long> delta_calls{0};
  std::atomic<long long> delta_ns{0};
  {
    ScopedSpan reindex(&tracer, "reindex", 1);
    gdim::DspmapOptions o;
    o.p = p;
    o.seed = 1;
    const gdim::DissimilarityFn counted = [&](int i, int j) {
      const Clock::time_point t = Clock::now();
      const double d = gdim::GraphDissimilarity(db[static_cast<size_t>(i)],
                                                db[static_cast<size_t>(j)]);
      delta_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - t)
                      .count();
      ++delta_calls;
      return d;
    };
    ScopedSpan span(&tracer, "dspmap.select", 1);
    const gdim::DspmapResult r = gdim::RunDspmap(fdb, counted, o);
    report->Count(static_cast<int>(r.selected.size()) ==
                  std::min<int>(p, fdb.num_features()));
  }
  const std::string path = opts.out_dir + "/spans_" + workload + "_offline.jsonl";
  if (!tracer.Write(path)) Fail("writing " + path);
  std::map<std::string, double> us;
  for (const Tracer::Span& s : tracer.spans()) {
    us[s.name] += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
  }
  for (const auto& [name, t] : tracer.LayerTimes()) {
    std::fprintf(stderr, "span %-24s total=%.0fus self=%.0fus\n", name.c_str(),
                 t.total_us, t.self_us);
  }
  const double n = static_cast<double>(db.size());
  const double pairs = n * (n - 1.0) / 2.0;
  report->Set("gspan.mine_s", us["gspan.mine"] / 1e6);
  report->Set("gspan.patterns", static_cast<double>(patterns.size()));
  report->Set("mcs.delta_matrix_s", us["mcs.delta_matrix"] / 1e6);
  report->Set("mcs.pairs", pairs);
  report->Set("mcs.pair_us_mean", us["mcs.delta_matrix"] / pairs);
  report->Set("dspm.select_s", us["dspm.select"] / 1e6);
  report->Set("dspmap.select_s", us["dspmap.select"] / 1e6);
  report->Set("dspmap.delta_calls", static_cast<double>(delta_calls.load()));
  report->Set("dspmap.delta_s", static_cast<double>(delta_ns.load()) / 1e9);
  report->Set("mapper.fingerprint_db_s", us["mapper.fingerprint_db"] / 1e6);
}

}  // namespace perfbench
