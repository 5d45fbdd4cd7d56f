#ifndef GDIM_SERVE_QUERY_OPTIONS_H_
#define GDIM_SERVE_QUERY_OPTIONS_H_

#include <limits>

namespace gdim {

/// Stage-2 policy for a mapped query. kAuto applies the engine's
/// narrowed-vs-full fallback when the containment prefilter is on: the
/// sharded engine decides ONCE over global candidate counts and forces
/// every shard onto the same side — left to local heuristics, shards would
/// diverge from the unsharded answer (a shard holding fewer than k
/// candidates would widen to a full scan of rows the unsharded narrowed
/// scan never touches). The narrowed side goes through each shard's
/// QueryMappedCandidates with the rows the engine already collected; kFull
/// is the forced full-scan side, and also what the wire protocol's
/// MODE=full requests. kApprox (MODE=approx) trades exactness
/// for scan cost: the engine probes the `nprobe` nearest IVF centroid
/// buckets (src/index/ivf_index.h) and exact-scores only their members —
/// the answer may miss rows the probe pruned, and nothing else differs.
enum class ScanMode {
  kAuto,
  kFull,
  kApprox,
};

/// QueryOptions::nprobe value meaning "probe every bucket" (the wire's
/// NPROBE=all). Probing all buckets prunes nothing, so a kApprox query at
/// this value answers bit-identically to kFull.
inline constexpr int kNprobeAll = std::numeric_limits<int>::max();

/// Per-query knobs, threaded through every query entry point of
/// ShardedEngine, its shards, and BatchExecutor — the one options struct
/// behind the former positional (k, ScanMode) parameter zoo, and the
/// extension point future per-query knobs (kernel tile hints) land in
/// without touching any signature. Construct with designated
/// initializers: engine.Query(q, {.k = 10}).
struct QueryOptions {
  /// Result count. Negative values answer like 0 (empty ranking) — one
  /// malformed request must not take down the serving process; boundary
  /// layers (tool flags, the wire parser) additionally reject them.
  int k = 0;

  /// Stage-2 scan policy; see ScanMode.
  ScanMode scan_mode = ScanMode::kAuto;

  /// kApprox only: how many IVF centroid buckets to probe, per shard.
  /// 0 picks the engine default (IvfIndex::default_nprobe); kNprobeAll
  /// probes every bucket; values above the bucket count clamp down to it.
  /// Ignored by the other scan modes (boundary layers reject NPROBE
  /// without MODE=approx so cache keys and coalescing spans stay clean).
  int nprobe = 0;

  friend bool operator==(const QueryOptions&, const QueryOptions&) = default;
};

}  // namespace gdim

#endif  // GDIM_SERVE_QUERY_OPTIONS_H_
