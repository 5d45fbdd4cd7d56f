#ifndef GDIM_SERVE_QUERY_ENGINE_H_
#define GDIM_SERVE_QUERY_ENGINE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"
#include "common/sync.h"
#include "core/index_io.h"
#include "core/packed_bits.h"
#include "core/topk.h"
#include "index/ivf_index.h"
#include "serve/query_options.h"

namespace gdim {

/// Engine-wide serving knobs, fixed at load time.
struct ServeOptions {
  /// Worker threads for the sharded engine's batch and scatter pools; 0 =
  /// DefaultThreadCount(). Results are identical for every thread count
  /// (queries are independent and the per-query ranking uses the
  /// deterministic RankByScores order).
  int threads = 0;

  /// Stage-2 prefilter: restrict the distance scan to database graphs that
  /// contain *every* feature of the query fingerprint (the candidate set
  /// ∩_{r ∈ φ(q)} sup(f_r) of containment search). A lossy-for-similarity
  /// heuristic — graphs missing one query feature are skipped even though
  /// they could rank in the exact top-k — so it is off by default and meant
  /// for supergraph-biased workloads. Falls back to a full scan when the
  /// filter does not actually narrow anything: no candidate survives, fewer
  /// than k candidates survive, or every live graph survives.
  bool containment_prefilter = false;

  /// Bucket count of the IVF candidate-pruning index behind ScanMode::
  /// kApprox; 0 picks ceil(sqrt(rows)) per engine (per shard). The index is
  /// always built — construction cost is one clustering pass over the base
  /// segment — so MODE=approx works out of the box on any engine.
  int ivf_buckets = 0;
};

/// Per-query observability counters from one hot-path execution.
struct ServeQueryStats {
  double latency_ms = 0.0;
  int features_on = 0;     ///< set bits in the query fingerprint
  int scanned = 0;         ///< rows scored in stage 3; the full-scan path
                           ///< scores every physical row, so removed-but-not-
                           ///< compacted rows count until Compact()
  bool prefiltered = false;  ///< stage 2 narrowed the scan (no fallback)
  bool approx = false;     ///< served from the IVF candidate path (kApprox)
  /// kApprox only: live rows the probe pruned (alive − scanned); what the
  /// approximate mode saved relative to a full scan of the live set.
  int rows_pruned = 0;
  /// Stage timings for the observability layer, microseconds; 0 when the
  /// stage did not run. On a sharded engine ivf_probe_usec sums the shard
  /// probes (like `scanned`) and gather_usec times the k-way merge.
  double ivf_probe_usec = 0.0;
  double gather_usec = 0.0;
  /// One sample per per-shard scan pass this query rode (the shard's wall
  /// time for its stage 2–3 work). Filled only by the sharded engine — a
  /// tiled scan attributes its per-shard passes to the tile's first query,
  /// so the sample count matches the passes actually run.
  std::vector<double> shard_scan_usec;
};

/// Aggregate report for one batch of queries.
struct ServeBatchReport {
  double wall_ms = 0.0;          ///< end-to-end batch wall time
  double qps = 0.0;              ///< queries / wall second
  LatencySummary latency_ms;     ///< per-query latency distribution
  long long scanned_rows = 0;    ///< total rows scored across the batch
  size_t prefiltered_queries = 0;  ///< queries served from a narrowed scan
  size_t approx_queries = 0;     ///< queries served from the IVF path
  /// Candidate rows exact-scored by approx queries (their share of
  /// scanned_rows) and the live rows their probes pruned away.
  long long approx_candidates_scanned = 0;
  long long approx_rows_pruned = 0;
  /// Per-stage samples (microseconds) for the metric registry: every
  /// per-shard scan pass, every IVF probe that ran, and every gather merge.
  /// The executor folds these into the process-wide stage histograms.
  std::vector<double> stage_scan_usec;
  std::vector<double> stage_ivf_probe_usec;
  std::vector<double> stage_gather_usec;
};

/// Aggregates per-query stats into a batch report (qps, latency
/// percentiles, scan counters). Shared by the sharded engine's batch entry
/// points and the batch executor's.
void FillServeBatchReport(double wall_ms,
                          const std::vector<ServeQueryStats>& stats,
                          ServeBatchReport* report);

/// An immutable capture of one shard segment's live state, taken by
/// Freeze() for asynchronous snapshotting. The sealed base segment — the
/// part that scales with database size — is shared by refcount (it is only
/// ever *replaced*, by Compact, never mutated in place), so a freeze copies
/// just the delta segment, the tombstone bitset, and the id column:
/// O(delta + n) small fields, no O(n·p) word copying and no file I/O. A
/// background writer can then stream the capture to disk while the live
/// engine keeps mutating.
struct FrozenEngineState {
  std::shared_ptr<const PackedBitMatrix> base;  ///< shared, never mutated
  PackedBitMatrix delta;                        ///< copied (small)
  std::vector<uint8_t> tombstones;              ///< copied; base + delta rows
  std::vector<int> row_ids;                     ///< copied; base + delta rows
  /// Copied IVF layout (centroids + postings, O(n) ints) so a background
  /// v3 snapshot can persist the IVFX section without touching the live
  /// index.
  IvfIndex ivf;

  /// Live rows in ascending-id order as (id, packed word pointer) pairs;
  /// pointers address into this capture's own segments and stay valid for
  /// the capture's lifetime (unlike the live segment's LiveRowWords, which
  /// a mutation invalidates).
  std::vector<std::pair<int, const uint64_t*>> LiveRowWords() const;
};

/// The live (non-tombstoned) postings of `ivf` lifted into external-id
/// space — the v3 IVFX payload of one shard segment. Buckets left empty by
/// tombstones are dropped (the reader rejects empty buckets), so the result
/// partitions exactly the live ids. tombstones/row_ids are indexed by
/// physical row, like the segment's own members.
PersistedIvf PersistIvf(const IvfIndex& ivf,
                        const std::vector<uint8_t>& tombstones,
                        const std::vector<int>& row_ids);

/// One shard segment of a ShardedEngine — the only engine callers build,
/// query, mutate or snapshot. The segment holds packed fingerprint rows
/// only: the sharded owner keeps the one FeatureMapper, fingerprints every
/// query and insert once, validates ids globally, and routes each id to
/// its segment. What is left here is stages 2–3 of the online path:
///   2. optionally collect prefilter candidates from the feature inverted
///      lists (the owner decides narrowed-vs-full globally),
///   3. popcount-Hamming distance scan over the packed bit matrices.
///
/// The segment is *mutable*: a sealed base of packed rows plus an
/// append-only delta, with a tombstone bitset over both. InsertMappedWithId
/// appends to the delta, Remove tombstones, and Compact rewrites the live
/// rows into a fresh sealed base. Physical row order is always ascending
/// external id, so ranking by physical row and the score-then-id tie-break
/// agree, and after any mutation sequence a segment answers bit-identically
/// to a fresh one built over its live rows.
///
/// Mutations are not thread-safe. Every mutating method (and Freeze, which
/// reads state a mutation invalidates) REQUIRES writer_role(); the owner
/// asserts it under its own single-writer role.
class QueryEngine {
 public:
  /// Builds a segment whose sealed base is `base` (rows already in the
  /// packed scan layout), with external ids `ids` (one per row, strictly
  /// ascending) and id cursor `next_id` (greater than every id); the owner
  /// has validated both. When `ivf` is set its buckets are adopted instead
  /// of re-clustered: postings arrive in external-id space, so the segment
  /// keeps exactly the buckets holding ids it owns (any shard partition of
  /// a snapshot works) after checking that they cover its rows exactly
  /// once.
  static Result<QueryEngine> FromPacked(PackedBitMatrix base,
                                        std::vector<int> ids, int next_id,
                                        const PersistedIvf* ivf,
                                        const ServeOptions& options);

  /// Lifts the epoch to at least `epoch`. Monotonic (never lowers); the
  /// owner's epoch is the sum over segments, so this is how a generation
  /// swap or a snapshot reload moves it forward.
  void RaiseEpochToAtLeast(uint64_t epoch) GDIM_REQUIRES(writer_role_);

  /// The single-writer capability; see the class comment. The accessor
  /// resolves to the same capability as the member, so call sites may spell
  /// either `engine.writer_role()` or (inside the class) `writer_role_`.
  ThreadRole& writer_role() const GDIM_RETURN_CAPABILITY(writer_role_) {
    return writer_role_;
  }

  /// Live (non-tombstoned) rows.
  int num_graphs() const { return alive_; }
  int num_features() const { return base_->num_bits(); }

  /// Monotonic mutation epoch: bumped by every successful insert/Remove and
  /// by every Compact that does work; queries never bump it.
  uint64_t epoch() const { return epoch_; }

  /// Physical layout observability: sealed base rows, appended delta rows,
  /// and rows removed but not yet reclaimed by Compact().
  int base_rows() const { return base_->num_rows(); }
  int delta_rows() const { return delta_.num_rows(); }
  int tombstoned_rows() const { return num_tombstones_; }

  /// Buckets of the IVF candidate-pruning index (summed over segments into
  /// the `ivf_buckets` STATS gauge).
  int ivf_buckets() const { return ivf_.num_buckets(); }

  /// Appends a mapped row under a caller-assigned external id. id must be
  /// >= this segment's id cursor — per-segment ids stay strictly ascending
  /// — and the cursor advances to id + 1. Width must equal num_features().
  Result<int> InsertMappedWithId(const std::vector<uint8_t>& fingerprint,
                                 int id) GDIM_REQUIRES(writer_role_);

  /// Tombstones the row with the given external id; NotFound if no live
  /// row has that id. O(log n) + inverted-list maintenance.
  Status Remove(int id) GDIM_REQUIRES(writer_role_);

  /// Rewrites the live rows into a fresh sealed base segment, drops
  /// tombstones, and empties the delta. External ids are unchanged. No-op
  /// with no delta rows and no tombstones.
  void Compact() GDIM_REQUIRES(writer_role_);

  /// Live rows in physical (= ascending external id) order as (id, packed
  /// word pointer) pairs; each pointer addresses words_per_row() words and
  /// stays valid until the next mutation.
  std::vector<std::pair<int, const uint64_t*>> LiveRowWords() const;

  /// Words per packed row (= ceil(num_features() / 64)).
  size_t words_per_row() const { return base_->words_per_row(); }

  /// Captures the live state for asynchronous snapshotting: the sealed base
  /// is cloned by refcount, the delta/tombstones/ids are copied. The pause
  /// is O(delta rows · words + total rows) — independent of the sealed
  /// base's size — and the capture stays bit-exact at this epoch no matter
  /// what mutations follow. The capture must be ordered against writers,
  /// so it REQUIRES the role.
  FrozenEngineState Freeze() const GDIM_REQUIRES(writer_role_);

  /// Stage 3 over every physical row (kAuto/kFull), or over the live
  /// members of the nearest IVF buckets (kApprox, `options.nprobe`). The
  /// stage-2 prefilter decision belongs to the owner, which narrows through
  /// QueryMappedCandidates instead. Ascending score with id tie-break,
  /// external ids in the result. Width must equal num_features().
  Ranking QueryMapped(const std::vector<uint8_t>& fingerprint,
                      const QueryOptions& options,
                      ServeQueryStats* stats = nullptr) const;

  /// Stage 2 alone: the live physical rows surviving ∩ sup(f_r) over the
  /// fingerprint's set bits (ascending). Requires the containment
  /// prefilter to be enabled and at least one set bit (the intersection
  /// over an empty feature family is degenerate — the owner falls back to
  /// a full scan there). The owner collects these once per segment,
  /// decides narrowed-vs-full globally, and feeds them back through
  /// QueryMappedCandidates — one intersection pass total.
  std::vector<int> PrefilterCandidateRows(
      const std::vector<uint8_t>& fingerprint) const;

  /// Stage 3 alone, over an explicit candidate row set (stage 2 already
  /// done by the owner): scores candidate_rows against the fingerprint and
  /// ranks with the usual score-then-id order, external ids in the result.
  /// stats reports a narrowed scan of candidate_rows.size() rows.
  Ranking QueryMappedCandidates(const std::vector<uint8_t>& fingerprint,
                                const QueryOptions& options,
                                const std::vector<int>& candidate_rows,
                                ServeQueryStats* stats = nullptr) const;

  /// Full-scan stage 3 for a contiguous tile of `count` pre-mapped
  /// fingerprints, scored together: every row block is loaded once and
  /// XORed against all `count` queries while cache-resident (the
  /// multi-query kernel path behind the sharded engine's
  /// QueryMappedBatch). results[q] / (*stats)[q] correspond to
  /// fingerprints[q]; each equals QueryMapped(fingerprints[q],
  /// {.k = options.k, .scan_mode = ScanMode::kFull}) bit for bit. Per-query
  /// latency_ms reports the tile's wall time (each query waited for the
  /// shared pass).
  std::vector<Ranking> QueryMappedTile(
      const std::vector<uint8_t>* fingerprints, int count,
      const QueryOptions& options,
      std::vector<ServeQueryStats>* stats = nullptr) const;

 private:
  QueryEngine() = default;

  int total_rows() const { return base_->num_rows() + delta_.num_rows(); }

  /// Physical row of a live external id, or -1.
  int FindLiveRow(int id) const;

  /// Row `row` of the segmented matrix back as a 0/1 byte vector.
  std::vector<uint8_t> RowBits(int row) const;

  /// Stage-3 subset scan across both segments (prefiltered path).
  void ScoreRows(const std::vector<uint64_t>& packed_query,
                 const std::vector<int>& rows,
                 std::vector<double>* scores) const;

  ServeOptions options_;
  /// Sealed segment. Held by shared_ptr and treated as immutable — Compact
  /// installs a fresh matrix instead of mutating — so Freeze() can clone it
  /// by refcount and a background snapshot can read it safely while the
  /// segment keeps mutating. Never null once the segment is built; its
  /// width is the feature dimension.
  std::shared_ptr<const PackedBitMatrix> base_;
  PackedBitMatrix delta_;  ///< append-only segment (same width as base_)
  /// tombstones_[row] = 1 iff the physical row was removed; sized to
  /// total_rows().
  std::vector<uint8_t> tombstones_;
  int num_tombstones_ = 0;
  int alive_ = 0;
  /// row_ids_[row] = stable external id; strictly increasing in row, so
  /// ranking by physical row and ranking by external id agree on ties.
  std::vector<int> row_ids_;
  int next_id_ = 0;
  /// Monotonic mutation counter; see epoch().
  uint64_t epoch_ = 0;
  /// supports_[r] = ascending physical rows of live graphs containing
  /// feature r; only populated when options_.containment_prefilter.
  std::vector<std::vector<int>> supports_;
  /// IVF candidate-pruning index over the packed rows (ScanMode::kApprox).
  /// Built with the segment (so a generation swap re-clusters over the new
  /// generation's fingerprints), maintained by InsertMappedWithId
  /// (nearest-centroid assignment) and Compact (posting renumbering);
  /// removals are lazy — Probe skips tombstones. Mutated only under
  /// writer_role_, like every other member.
  IvfIndex ivf_;
  /// See writer_role(). mutable: acquiring a role is not a state change.
  mutable ThreadRole writer_role_;
};

}  // namespace gdim

#endif  // GDIM_SERVE_QUERY_ENGINE_H_
