#include "serve/query_engine.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"
#include "core/binary_db.h"

namespace gdim {

namespace {

/// Sentinel score for tombstoned rows on the full-scan path. Real scores are
/// finite (sqrt(diff/p) ∈ [0, 1]), so the sentinel sorts strictly last and
/// can never displace a live row from the top-k.
constexpr double kRemovedScore = std::numeric_limits<double>::infinity();

}  // namespace

Result<QueryEngine> QueryEngine::FromPacked(PackedBitMatrix base,
                                            std::vector<int> ids,
                                            int next_id,
                                            const PersistedIvf* ivf,
                                            const ServeOptions& options) {
  const int p = base.num_bits();
  const int n = base.num_rows();
  GDIM_DCHECK(ids.size() == static_cast<size_t>(n));
  QueryEngine engine;
  engine.options_ = options;
  engine.base_ = std::make_shared<const PackedBitMatrix>(std::move(base));
  engine.delta_ = PackedBitMatrix::WithWidth(p);
  engine.tombstones_.assign(static_cast<size_t>(n), 0);
  engine.alive_ = n;
  engine.row_ids_ = std::move(ids);
  engine.next_id_ = next_id;
  // The inverted lists only serve the prefilter; skip the O(n·p) pass and
  // their memory when it is disabled.
  if (options.containment_prefilter) {
    engine.supports_.assign(static_cast<size_t>(p), {});
    for (int row = 0; row < n; ++row) {
      const std::vector<uint8_t> bits = engine.base_->UnpackRow(row);
      for (int r = 0; r < p; ++r) {
        if (bits[static_cast<size_t>(r)] != 0) {
          engine.supports_[static_cast<size_t>(r)].push_back(row);
        }
      }
    }
  }
  if (ivf != nullptr) {
    // Adopt the persisted IVF layout instead of re-clustering: reload skips
    // the O(n·sqrt(n)) Build. Snapshot postings are in external-id space
    // and may span a different shard partition than this segment's, so
    // keep exactly the buckets holding ids this segment owns, mapped to
    // local physical rows. Relative bucket order is preserved, so at an
    // unchanged shard count the probe's (distance, bucket id) ranking
    // reproduces the snapshotted segment's exactly.
    const PersistedIvf& persisted = *ivf;
    if (persisted.num_bits != p) {
      return Status::InvalidArgument("IVF width does not match the index");
    }
    const size_t wpc = engine.base_->words_per_row();
    std::vector<uint64_t> centroid_words;
    std::vector<std::vector<int>> postings;
    std::vector<uint8_t> seen(static_cast<size_t>(n), 0);
    int covered = 0;
    for (const PersistedIvfBucket& bucket : persisted.buckets) {
      if (bucket.centroid_words.size() != wpc) {
        return Status::InvalidArgument(
            "IVF centroid stride does not match width");
      }
      std::vector<int> rows;
      for (const int id : bucket.ids) {
        const auto it = std::lower_bound(engine.row_ids_.begin(),
                                         engine.row_ids_.end(), id);
        if (it == engine.row_ids_.end() || *it != id) {
          continue;  // another shard's row under this partition
        }
        const int row = static_cast<int>(it - engine.row_ids_.begin());
        if (seen[static_cast<size_t>(row)] != 0) {
          return Status::InvalidArgument("duplicate IVF posting id");
        }
        seen[static_cast<size_t>(row)] = 1;
        ++covered;
        // Bucket ids ascend and the id→row map is monotone, so each
        // adopted posting list stays sorted, as Probe requires.
        rows.push_back(row);
      }
      if (rows.empty()) continue;  // no rows of this engine's partition
      centroid_words.insert(centroid_words.end(),
                            bucket.centroid_words.begin(),
                            bucket.centroid_words.end());
      postings.push_back(std::move(rows));
    }
    // Strict coverage: every owned row reachable by some probe, or
    // NPROBE=all would silently diverge from MODE=full after a restart.
    if (covered != n) {
      return Status::InvalidArgument(
          "IVF postings do not cover this engine's rows");
    }
    // Count first: the by-value parameter's move-construction below is
    // unsequenced with the other argument's postings.size() read.
    const int num_buckets = static_cast<int>(postings.size());
    engine.ivf_ = IvfIndex::FromParts(
        PackedBitMatrix::FromWords(num_buckets, p, std::move(centroid_words)),
        std::move(postings));
  } else {
    // No persisted layout: the IVF index is rebuilt with the engine — which
    // is exactly what gives a generation swap fresh clusters over the
    // refreshed fingerprints (zero stale buckets by construction).
    engine.ivf_ = IvfIndex::Build(*engine.base_, options.ivf_buckets);
  }
  return engine;
}

void QueryEngine::RaiseEpochToAtLeast(uint64_t epoch) {
  if (epoch_ < epoch) epoch_ = epoch;
}

Result<int> QueryEngine::InsertMappedWithId(
    const std::vector<uint8_t>& fingerprint, int id) {
  if (fingerprint.size() != static_cast<size_t>(num_features())) {
    return Status::InvalidArgument(
        "fingerprint has " + std::to_string(fingerprint.size()) +
        " bits, engine dimension is " + std::to_string(num_features()));
  }
  // INT_MAX itself is unassignable: next_id_ would overflow, and the v2
  // reader's id cap would reject the engine's own snapshot.
  if (id == std::numeric_limits<int>::max()) {
    return Status::ResourceExhausted("graph id space exhausted");
  }
  // Per-engine ids must stay strictly ascending (row order == id order is
  // what makes the score-then-id tie-break equal the physical-row order).
  if (id < next_id_) {
    return Status::InvalidArgument(
        "id " + std::to_string(id) + " not after the engine's id cursor " +
        std::to_string(next_id_));
  }
  const int row = base_->num_rows() + delta_.AppendRow(fingerprint);
  tombstones_.push_back(0);
  row_ids_.push_back(id);
  ++alive_;
  ivf_.AddRow(delta_.row(row - base_->num_rows()), delta_.words_per_row(),
              row);
  if (options_.containment_prefilter) {
    for (size_t r = 0; r < fingerprint.size(); ++r) {
      // Rows only grow, so appending keeps each list sorted.
      if (fingerprint[r] != 0) supports_[r].push_back(row);
    }
  }
  next_id_ = id + 1;
  ++epoch_;
  return id;
}

Status QueryEngine::Remove(int id) {
  const int row = FindLiveRow(id);
  if (row < 0) {
    return Status::NotFound("no live graph with id " + std::to_string(id));
  }
  tombstones_[static_cast<size_t>(row)] = 1;
  ++num_tombstones_;
  --alive_;
  if (options_.containment_prefilter) {
    const std::vector<uint8_t> bits = RowBits(row);
    for (size_t r = 0; r < bits.size(); ++r) {
      if (bits[r] == 0) continue;
      std::vector<int>& list = supports_[r];
      const auto it = std::lower_bound(list.begin(), list.end(), row);
      GDIM_DCHECK(it != list.end() && *it == row);
      list.erase(it);
    }
  }
  ++epoch_;
  return Status::OK();
}

void QueryEngine::Compact() {
  if (num_tombstones_ == 0 && delta_.num_rows() == 0) return;
  const int total = total_rows();
  PackedBitMatrix merged = PackedBitMatrix::WithWidth(num_features());
  merged.Reserve(alive_);
  std::vector<int> new_ids;
  new_ids.reserve(static_cast<size_t>(alive_));
  std::vector<int> old_to_new(static_cast<size_t>(total), -1);
  const int base_n = base_->num_rows();
  for (int row = 0; row < total; ++row) {
    if (tombstones_[static_cast<size_t>(row)] != 0) continue;
    old_to_new[static_cast<size_t>(row)] =
        row < base_n ? merged.AppendRowFrom(*base_, row)
                     : merged.AppendRowFrom(delta_, row - base_n);
    new_ids.push_back(row_ids_[static_cast<size_t>(row)]);
  }
  // Install a fresh sealed segment rather than mutating in place: frozen
  // snapshots may still hold a refcount on the old one.
  base_ = std::make_shared<const PackedBitMatrix>(std::move(merged));
  delta_ = PackedBitMatrix::WithWidth(num_features());
  row_ids_ = std::move(new_ids);
  tombstones_.assign(static_cast<size_t>(alive_), 0);
  num_tombstones_ = 0;
  ++epoch_;
  // Prune the IVF postings: tombstoned rows drop out (old_to_new == -1),
  // the survivors renumber monotonically. Centroids are kept — only a
  // generation swap re-clusters.
  ivf_.Renumber(old_to_new);
  if (options_.containment_prefilter) {
    // The lists already hold exactly the live rows; renumber in place (the
    // old→new map is monotone, so each list stays sorted).
    for (std::vector<int>& list : supports_) {
      for (int& row : list) {
        row = old_to_new[static_cast<size_t>(row)];
        GDIM_DCHECK(row >= 0);
      }
    }
  }
}

std::vector<std::pair<int, const uint64_t*>> QueryEngine::LiveRowWords()
    const {
  std::vector<std::pair<int, const uint64_t*>> live;
  live.reserve(static_cast<size_t>(alive_));
  const int base_n = base_->num_rows();
  for (int row = 0; row < total_rows(); ++row) {
    if (tombstones_[static_cast<size_t>(row)] != 0) continue;
    live.emplace_back(row_ids_[static_cast<size_t>(row)],
                      row < base_n ? base_->row(row)
                                   : delta_.row(row - base_n));
  }
  return live;
}

std::vector<std::pair<int, const uint64_t*>> FrozenEngineState::LiveRowWords()
    const {
  std::vector<std::pair<int, const uint64_t*>> live;
  const int base_n = base->num_rows();
  const int total = base_n + delta.num_rows();
  live.reserve(static_cast<size_t>(total));
  for (int row = 0; row < total; ++row) {
    if (tombstones[static_cast<size_t>(row)] != 0) continue;
    live.emplace_back(row_ids[static_cast<size_t>(row)],
                      row < base_n ? base->row(row)
                                   : delta.row(row - base_n));
  }
  return live;
}

FrozenEngineState QueryEngine::Freeze() const {
  FrozenEngineState frozen;
  frozen.base = base_;  // refcount clone; Compact replaces, never mutates
  frozen.delta = delta_;
  frozen.tombstones = tombstones_;
  frozen.row_ids = row_ids_;
  frozen.ivf = ivf_;
  return frozen;
}

PersistedIvf PersistIvf(const IvfIndex& ivf,
                        const std::vector<uint8_t>& tombstones,
                        const std::vector<int>& row_ids) {
  PersistedIvf persisted;
  persisted.num_bits = ivf.centroids().num_bits();
  const size_t wpc = ivf.centroids().words_per_row();
  for (int b = 0; b < ivf.num_buckets(); ++b) {
    PersistedIvfBucket bucket;
    for (const int row : ivf.posting(b)) {
      // Persist live rows only, lifted to external ids: the snapshot has no
      // notion of this engine's physical row space, and tombstoned postings
      // would violate the reader's live-coverage invariant.
      if (tombstones[static_cast<size_t>(row)] == 0) {
        bucket.ids.push_back(row_ids[static_cast<size_t>(row)]);
      }
    }
    // The reader rejects empty buckets, and a bucket emptied by tombstones
    // carries no information worth restoring.
    if (bucket.ids.empty()) continue;
    const uint64_t* words = ivf.centroids().row(b);
    bucket.centroid_words.assign(words, words + wpc);
    persisted.buckets.push_back(std::move(bucket));
  }
  return persisted;
}

int QueryEngine::FindLiveRow(int id) const {
  const auto it = std::lower_bound(row_ids_.begin(), row_ids_.end(), id);
  if (it == row_ids_.end() || *it != id) return -1;
  const int row = static_cast<int>(it - row_ids_.begin());
  return tombstones_[static_cast<size_t>(row)] == 0 ? row : -1;
}

std::vector<uint8_t> QueryEngine::RowBits(int row) const {
  return row < base_->num_rows()
             ? base_->UnpackRow(row)
             : delta_.UnpackRow(row - base_->num_rows());
}

std::vector<int> QueryEngine::PrefilterCandidateRows(
    const std::vector<uint8_t>& fingerprint) const {
  GDIM_DCHECK(options_.containment_prefilter);
  // Collect the inverted lists of the set bits, smallest support first so
  // the running intersection shrinks as fast as possible.
  std::vector<const std::vector<int>*> lists;
  for (size_t r = 0; r < fingerprint.size(); ++r) {
    if (fingerprint[r] != 0) lists.push_back(&supports_[r]);
  }
  return IntersectSupports(std::move(lists));
}

Ranking QueryEngine::QueryMappedCandidates(
    const std::vector<uint8_t>& fingerprint, const QueryOptions& options,
    const std::vector<int>& candidate_rows, ServeQueryStats* stats) const {
  const int k = std::max(options.k, 0);
  WallTimer timer;
  const std::vector<uint64_t> packed_query = base_->PackQuery(fingerprint);
  std::vector<double> scores;
  ScoreRows(packed_query, candidate_rows, &scores);
  Ranking top = TopKCandidates(candidate_rows, scores, k);
  for (RankedResult& r : top) r.id = row_ids_[static_cast<size_t>(r.id)];
  if (stats != nullptr) {
    stats->latency_ms = timer.Millis();
    int features_on = 0;
    for (uint8_t b : fingerprint) features_on += b != 0 ? 1 : 0;
    stats->features_on = features_on;
    stats->scanned = static_cast<int>(candidate_rows.size());
    stats->prefiltered = true;
  }
  return top;
}

void QueryEngine::ScoreRows(const std::vector<uint64_t>& packed_query,
                            const std::vector<int>& rows,
                            std::vector<double>* scores) const {
  // Candidate lists are ascending, so base rows form a prefix and delta
  // rows a suffix; score in place (no per-query candidate-list copies).
  scores->resize(rows.size());
  const int base_n = base_->num_rows();
  for (size_t j = 0; j < rows.size(); ++j) {
    const int row = rows[j];
    (*scores)[j] =
        row < base_n
            ? base_->NormalizedDistance(packed_query, row)
            : delta_.NormalizedDistance(packed_query, row - base_n);
  }
}

Ranking QueryEngine::QueryMapped(const std::vector<uint8_t>& fingerprint,
                                 const QueryOptions& options,
                                 ServeQueryStats* stats) const {
  // A malformed k must not abort the serving process; k < 0 answers like
  // k == 0 (empty ranking). The tool boundary additionally rejects it.
  const int k = std::max(options.k, 0);
  WallTimer timer;

  int features_on = 0;
  for (uint8_t b : fingerprint) features_on += b != 0 ? 1 : 0;
  const std::vector<uint64_t> packed_query = base_->PackQuery(fingerprint);

  // Approximate stage 2 (MODE=approx): the IVF probe collects the live
  // members of the nprobe nearest centroid buckets, and stage 3 then
  // exact-scores exactly those rows through the same machinery as the
  // prefiltered path. The answer differs from kFull only by rows the probe
  // pruned — at NPROBE=all nothing is pruned, the pool is precisely the
  // live rows, and the ranking is bit-identical to a full scan. Any other
  // mode scans every physical row: the prefilter decision is the owner's.
  const bool approx = options.scan_mode == ScanMode::kApprox;
  double ivf_probe_usec = 0.0;
  std::vector<int> candidates;
  if (approx) {
    const int nprobe =
        options.nprobe > 0 ? options.nprobe : ivf_.default_nprobe();
    WallTimer probe_timer;
    candidates = ivf_.Probe(packed_query, nprobe, tombstones_);
    ivf_probe_usec = probe_timer.Micros();
  }

  // Stage 3: popcount distance scan (probed or full) + deterministic rank.
  // Rankings are computed over physical rows, then mapped to external ids;
  // row order is ascending-id, so the score-then-id tie-break is preserved.
  Ranking top;
  int scanned;
  std::vector<double> scores;
  if (approx) {
    ScoreRows(packed_query, candidates, &scores);
    top = TopKCandidates(candidates, scores, k);
    scanned = static_cast<int>(candidates.size());
  } else {
    scores.resize(static_cast<size_t>(total_rows()));
    base_->ScoreAllInto(packed_query, scores.data());
    delta_.ScoreAllInto(packed_query, scores.data() + base_->num_rows());
    if (num_tombstones_ > 0) {
      for (size_t row = 0; row < scores.size(); ++row) {
        if (tombstones_[row] != 0) scores[row] = kRemovedScore;
      }
    }
    top = TopKByScores(scores, k);
    // Tombstone sentinels can only appear when k exceeds the live count.
    while (!top.empty() && top.back().score == kRemovedScore) top.pop_back();
    scanned = total_rows();
  }
  for (RankedResult& r : top) r.id = row_ids_[static_cast<size_t>(r.id)];

  if (stats != nullptr) {
    stats->latency_ms = timer.Millis();
    stats->features_on = features_on;
    stats->scanned = scanned;
    stats->prefiltered = false;
    stats->approx = approx;
    stats->rows_pruned = approx ? alive_ - scanned : 0;
    stats->ivf_probe_usec = ivf_probe_usec;
  }
  return top;
}

void FillServeBatchReport(double wall_ms,
                          const std::vector<ServeQueryStats>& stats,
                          ServeBatchReport* report) {
  report->wall_ms = wall_ms;
  report->qps = wall_ms > 0.0
                    ? static_cast<double>(stats.size()) / (wall_ms * 1e-3)
                    : 0.0;
  std::vector<double> latencies;
  latencies.reserve(stats.size());
  report->scanned_rows = 0;
  report->prefiltered_queries = 0;
  report->approx_queries = 0;
  report->approx_candidates_scanned = 0;
  report->approx_rows_pruned = 0;
  report->stage_scan_usec.clear();
  report->stage_ivf_probe_usec.clear();
  report->stage_gather_usec.clear();
  for (const ServeQueryStats& s : stats) {
    latencies.push_back(s.latency_ms);
    report->scanned_rows += s.scanned;
    report->prefiltered_queries += s.prefiltered ? 1 : 0;
    if (s.approx) {
      ++report->approx_queries;
      report->approx_candidates_scanned += s.scanned;
      report->approx_rows_pruned += s.rows_pruned;
    }
    report->stage_scan_usec.insert(report->stage_scan_usec.end(),
                                   s.shard_scan_usec.begin(),
                                   s.shard_scan_usec.end());
    if (s.ivf_probe_usec > 0.0) {
      report->stage_ivf_probe_usec.push_back(s.ivf_probe_usec);
    }
    if (s.gather_usec > 0.0) {
      report->stage_gather_usec.push_back(s.gather_usec);
    }
  }
  report->latency_ms = SummarizeLatencies(std::move(latencies));
}

std::vector<Ranking> QueryEngine::QueryMappedTile(
    const std::vector<uint8_t>* fingerprints, int count,
    const QueryOptions& options, std::vector<ServeQueryStats>* stats) const {
  const int k = std::max(options.k, 0);
  WallTimer timer;
  std::vector<Ranking> results(static_cast<size_t>(std::max(count, 0)));
  if (stats != nullptr) {
    stats->assign(static_cast<size_t>(std::max(count, 0)),
                  ServeQueryStats{});
  }
  if (count <= 0) return results;

  const int total = total_rows();
  std::vector<std::vector<uint64_t>> packed(static_cast<size_t>(count));
  std::vector<const uint64_t*> query_ptrs(static_cast<size_t>(count));
  for (int q = 0; q < count; ++q) {
    packed[static_cast<size_t>(q)] =
        base_->PackQuery(fingerprints[q]);
    query_ptrs[static_cast<size_t>(q)] =
        packed[static_cast<size_t>(q)].data();
  }
  // One score column per query; base and delta fill disjoint row ranges of
  // every column, exactly like the single-query full-scan path.
  std::vector<std::vector<double>> scores(
      static_cast<size_t>(count),
      std::vector<double>(static_cast<size_t>(total)));
  std::vector<double*> outs(static_cast<size_t>(count));
  for (int q = 0; q < count; ++q) {
    outs[static_cast<size_t>(q)] = scores[static_cast<size_t>(q)].data();
  }
  base_->ScoreAllMultiInto(query_ptrs.data(), count, outs.data());
  if (delta_.num_rows() > 0) {
    std::vector<double*> delta_outs(static_cast<size_t>(count));
    for (int q = 0; q < count; ++q) {
      delta_outs[static_cast<size_t>(q)] =
          outs[static_cast<size_t>(q)] + base_->num_rows();
    }
    delta_.ScoreAllMultiInto(query_ptrs.data(), count, delta_outs.data());
  }

  for (int q = 0; q < count; ++q) {
    std::vector<double>& column = scores[static_cast<size_t>(q)];
    if (num_tombstones_ > 0) {
      for (size_t row = 0; row < column.size(); ++row) {
        if (tombstones_[row] != 0) column[row] = kRemovedScore;
      }
    }
    Ranking top = TopKByScores(column, k);
    while (!top.empty() && top.back().score == kRemovedScore) top.pop_back();
    for (RankedResult& r : top) r.id = row_ids_[static_cast<size_t>(r.id)];
    results[static_cast<size_t>(q)] = std::move(top);
  }

  if (stats != nullptr) {
    const double tile_ms = timer.Millis();
    for (int q = 0; q < count; ++q) {
      ServeQueryStats& s = (*stats)[static_cast<size_t>(q)];
      s.latency_ms = tile_ms;
      int features_on = 0;
      for (uint8_t b : fingerprints[q]) features_on += b != 0 ? 1 : 0;
      s.features_on = features_on;
      s.scanned = total;
      s.prefiltered = false;
    }
  }
  return results;
}

}  // namespace gdim
