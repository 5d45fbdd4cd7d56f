#ifndef GDIM_TESTS_TEST_UTIL_H_
#define GDIM_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "core/index_io.h"
#include "core/mapper.h"
#include "core/topk.h"
#include "graph/graph.h"
#include "graph/graph_utils.h"
#include "isomorphism/vf2.h"
#include "server/sharded_engine.h"

namespace gdim {
namespace testing_util {

/// Random connected labeled graph with n vertices and extra random edges.
inline Graph RandomConnectedGraph(int n, int extra_edges, int vertex_labels,
                                  int edge_labels, Rng* rng) {
  Graph g;
  for (int v = 0; v < n; ++v) {
    g.AddVertex(static_cast<LabelId>(
        rng->UniformU64(static_cast<uint64_t>(vertex_labels))));
  }
  for (int v = 1; v < n; ++v) {
    int u = static_cast<int>(rng->UniformU64(static_cast<uint64_t>(v)));
    g.AddEdge(u, v, static_cast<LabelId>(rng->UniformU64(
                        static_cast<uint64_t>(edge_labels))));
  }
  int guard = 0;
  while (extra_edges > 0 && guard < 200) {
    ++guard;
    int u = static_cast<int>(rng->UniformU64(static_cast<uint64_t>(n)));
    int v = static_cast<int>(rng->UniformU64(static_cast<uint64_t>(n)));
    if (u == v || g.HasEdge(u, v)) continue;
    g.AddEdge(u, v, static_cast<LabelId>(rng->UniformU64(
                        static_cast<uint64_t>(edge_labels))));
    --extra_edges;
  }
  return g;
}

/// Random edge-subgraph of g with the given number of edges kept.
inline Graph RandomEdgeSubgraph(const Graph& g, int keep_edges, Rng* rng) {
  std::vector<EdgeId> ids;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) ids.push_back(e);
  rng->Shuffle(&ids);
  keep_edges = std::min<int>(keep_edges, static_cast<int>(ids.size()));
  ids.resize(static_cast<size_t>(keep_edges));
  return EdgeSubgraph(g, ids);
}

/// Brute-force subgraph isomorphism: tries all injective vertex mappings.
/// Only usable for tiny patterns.
inline bool BruteForceSubgraphIso(const Graph& pattern, const Graph& target) {
  const int np = pattern.NumVertices();
  const int nt = target.NumVertices();
  if (np > nt) return false;
  std::vector<int> perm(static_cast<size_t>(nt));
  for (int i = 0; i < nt; ++i) perm[static_cast<size_t>(i)] = i;
  std::sort(perm.begin(), perm.end());
  do {
    bool ok = true;
    for (int v = 0; v < np && ok; ++v) {
      if (pattern.VertexLabel(v) !=
          target.VertexLabel(perm[static_cast<size_t>(v)])) {
        ok = false;
      }
    }
    for (const Edge& e : pattern.edges()) {
      if (!ok) break;
      EdgeId te = target.FindEdge(perm[static_cast<size_t>(e.u)],
                                  perm[static_cast<size_t>(e.v)]);
      if (te < 0 || target.GetEdge(te).label != e.label) ok = false;
    }
    if (ok) return true;
  } while (std::next_permutation(perm.begin(), perm.end()));
  return false;
}

/// Brute-force maximum common edge subgraph size: tries all edge subsets of
/// the smaller graph. Exponential; patterns must have few edges.
inline int BruteForceMcs(const Graph& a, const Graph& b) {
  const Graph& small = a.NumEdges() <= b.NumEdges() ? a : b;
  const Graph& big = a.NumEdges() <= b.NumEdges() ? b : a;
  const int ne = small.NumEdges();
  int best = 0;
  for (uint32_t mask = 0; mask < (1u << ne); ++mask) {
    int bits = __builtin_popcount(mask);
    if (bits <= best) continue;
    std::vector<EdgeId> ids;
    for (int e = 0; e < ne; ++e) {
      if (mask & (1u << e)) ids.push_back(e);
    }
    Graph sub = EdgeSubgraph(small, ids);
    if (BruteForceSubgraphIso(sub, big)) best = bits;
  }
  return best;
}

/// Serving options for `num_shards` shards (1 is the single-node case).
inline ShardedOptions Sharded(int num_shards, int threads = 0,
                              bool prefilter = false) {
  ShardedOptions opts;
  opts.num_shards = num_shards;
  opts.serve.threads = threads;
  opts.serve.containment_prefilter = prefilter;
  return opts;
}

/// The serving oracle, computed from core/ alone and sharing no serving
/// code: the top-k of the byte-vector mapped ranking over `live` (the live
/// fingerprints in ascending-id order), with positional ids lifted through
/// live.ids (empty = positional). Negative k answers like 0, as the
/// engine does.
inline Ranking ReferenceTopK(const std::vector<uint8_t>& query_bits,
                             const PersistedIndex& live, int k) {
  Ranking top = TopK(MappedRanking(query_bits, live.db_bits), std::max(k, 0));
  if (!live.ids.empty()) {
    for (RankedResult& r : top) r.id = live.ids[static_cast<size_t>(r.id)];
  }
  return top;
}

/// ReferenceTopK for every query graph, mapped onto live.features.
inline std::vector<Ranking> ReferenceBatch(const GraphDatabase& queries,
                                           const PersistedIndex& live,
                                           int k) {
  const FeatureMapper mapper(live.features);
  std::vector<Ranking> out;
  for (const Graph& q : queries) {
    out.push_back(ReferenceTopK(mapper.Map(q), live, k));
  }
  return out;
}

}  // namespace testing_util
}  // namespace gdim

#endif  // GDIM_TESTS_TEST_UTIL_H_
