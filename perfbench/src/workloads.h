// The three workloads. Each builds its inputs from the seed, runs against
// the program, checks every answer against the references in reference.h
// and fills a Report: every end-to-end metric when untraced, every
// per-layer metric when traced. A traced run measures each layer on the
// workload's own data, including the layers its main load does not reach
// (the write path after a read-only load, the offline pipeline after a
// serving load, the serving path after the offline build).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/index.h"
#include "graph/graph.h"
#include "server/batch_executor.h"
#include "reference.h"
#include "report.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tool;     ///< path of the built gdim_tool
  std::string out_dir;  ///< scratch files of this run (index, logs, spans)
};

/// What a server is started on, plus the benchmark's own copy of the rows
/// (row i is external id i).
struct Served {
  gdim::GraphDatabase features;
  BitRows rows;
  std::string index_path;
  std::string db_path;  ///< empty: the server gets no --db
};

/// Writes `served` as a DIMS-only v3 index file at served.index_path.
void WriteIndex(const Served& served);

/// The serving layers of build_reindex's traced run: serves `executor`
/// (whose rows are `served`, ids positional) in process through the
/// program's NetServer, and measures it the way the wire workloads'
/// traced runs measure serve-net: a closed loop of `queries`, the
/// STATS/METRICS deltas, PING, the write probe and the in-process replay.
void TraceServingLayers(const RunOptions& opts, gdim::BatchExecutor* executor,
                        const Served& served, const gdim::GraphDatabase& queries,
                        Report* report);

/// The offline layers of a traced run: gSpan, the δ matrix, DSPM, DSPMap
/// (with a counting dissimilarity function) and MapAll over `db`, one span
/// per public call, spans written to spans_<workload>_offline.jsonl.
void TraceOfflineLayers(const RunOptions& opts, const std::string& workload,
                        const gdim::GraphDatabase& db,
                        const gdim::MiningOptions& mining, int p,
                        Report* report);

void RunScan50kUnique(const RunOptions& opts, Report* report);
void RunCacheZipfChurn(const RunOptions& opts, Report* report);
void RunBuildReindex(const RunOptions& opts, Report* report);

/// Spot-checks fingerprints against the backtracking containment checker:
/// for every graph in `sample`, bit r of `bits_of(graph index)` must equal
/// Contains(features[r], graph). Each graph is one checked operation.
template <typename BitsOf>
void SpotCheckFingerprints(const gdim::GraphDatabase& features,
                           const gdim::GraphDatabase& graphs,
                           const std::vector<size_t>& sample, BitsOf bits_of,
                           const char* what, Report* report) {
  for (size_t i : sample) {
    const std::vector<uint8_t> bits = bits_of(i);
    bool ok = bits.size() == features.size();
    for (size_t r = 0; ok && r < features.size(); ++r) {
      ok = (bits[r] != 0) == Contains(features[r], graphs[i]);
    }
    if (ok) {
      report->Count(true);
    } else {
      report->Wrong(std::string(what) + " fingerprint of graph " +
                    std::to_string(i) + " disagrees with containment");
    }
  }
}

/// `count` indices spread over [0, n), shifted by the seed.
std::vector<size_t> SampleIndices(size_t n, size_t count, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
