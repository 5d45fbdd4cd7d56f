// Reference computations the benchmark checks the program's answers
// against. None of them calls into the program's search path: the Hamming
// top-k, the containment checker and the label-set fingerprints are written
// here from their definitions. The program's Graph type is used only as a
// container of labels and edges.
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace perfbench {

/// Fingerprints packed 64 bits to a word, one row per graph.
class BitRows {
 public:
  explicit BitRows(int bits = 0)
      : bits_(bits), words_((static_cast<size_t>(bits) + 63) / 64) {}

  int bits() const { return bits_; }
  size_t words() const { return words_; }
  size_t size() const { return words_ == 0 ? 0 : data_.size() / words_; }
  const uint64_t* row(size_t i) const { return data_.data() + i * words_; }
  const std::vector<uint64_t>& data() const { return data_; }

  /// Appends one 0/1 byte vector of exactly bits() entries.
  void Append(const std::vector<uint8_t>& bits);
  /// Packs one 0/1 byte vector the same way (a query).
  std::vector<uint64_t> Pack(const std::vector<uint8_t>& bits) const;

 private:
  int bits_;
  size_t words_;
  std::vector<uint64_t> data_;
};

int Hamming(const uint64_t* a, const uint64_t* b, size_t words);

/// One ranked answer of the reference: row id and Hamming distance.
struct Hit {
  int id = 0;
  int dist = 0;
  friend bool operator==(const Hit&, const Hit&) = default;
};

/// Brute-force top-k over every row whose `alive(row)` holds, in the
/// program's order: ascending distance (so ascending score sqrt(d/p)),
/// ties broken by ascending id. ids[row] is the row's external id.
template <typename Alive>
std::vector<Hit> BruteTopK(const uint64_t* query, const BitRows& rows,
                           const std::vector<int>& ids, int k, Alive alive);

/// Plain backtracking subgraph containment: true iff `pattern` has a
/// non-induced, label-preserving embedding into `target` (every pattern
/// vertex to a distinct target vertex of the same label, every pattern edge
/// to a target edge of the same label).
bool Contains(const gdim::Graph& pattern, const gdim::Graph& target);

/// A QUERY answer as printed on the wire: "OK <m> <id>:<score> ...".
struct Answer {
  std::vector<std::pair<int, double>> items;
};

/// Parses an OK ranking line; false with `why` on anything else.
bool ParseAnswer(const std::string& line, Answer* out, std::string* why);

/// The exact check: the answer lists exactly the reference hits, in
/// order, each with score sqrt(dist / p) to the printed precision.
bool MatchesExact(const Answer& answer, const std::vector<Hit>& ref, int p,
                  std::string* why);

/// The approximate check: `k` distinct ids (fewer only if `live` is
/// smaller), each a live row whose printed score is its true distance to
/// the query, in ascending (score, id) order. `dist_of(id)` returns the
/// true distance or -1 for an id that is not live.
template <typename DistOf>
bool ValidApprox(const Answer& answer, int k, int live, int p, DistOf dist_of,
                 std::string* why);

/// The score the program prints for Hamming distance d over p bits.
double ScoreOf(int dist, int p);

// ----------------------------------------------------------- templates --

template <typename Alive>
std::vector<Hit> BruteTopK(const uint64_t* query, const BitRows& rows,
                           const std::vector<int>& ids, int k, Alive alive) {
  std::vector<Hit> best;  // sorted ascending by (dist, id), at most k
  if (k <= 0) return best;
  best.reserve(static_cast<size_t>(k) + 1);
  for (size_t r = 0; r < rows.size(); ++r) {
    if (!alive(r)) continue;
    const Hit h{ids[r], Hamming(query, rows.row(r), rows.words())};
    if (static_cast<int>(best.size()) == k) {
      const Hit& worst = best.back();
      if (h.dist > worst.dist || (h.dist == worst.dist && h.id > worst.id)) {
        continue;
      }
    }
    size_t pos = best.size();
    while (pos > 0 && (best[pos - 1].dist > h.dist ||
                       (best[pos - 1].dist == h.dist && best[pos - 1].id > h.id))) {
      --pos;
    }
    best.insert(best.begin() + static_cast<long>(pos), h);
    if (static_cast<int>(best.size()) > k) best.pop_back();
  }
  return best;
}

template <typename DistOf>
bool ValidApprox(const Answer& answer, int k, int live, int p, DistOf dist_of,
                 std::string* why) {
  const size_t want = static_cast<size_t>(k < live ? k : live);
  if (answer.items.size() != want) {
    *why = "answer has " + std::to_string(answer.items.size()) +
           " entries, expected " + std::to_string(want);
    return false;
  }
  int prev_dist = -1;
  int prev_id = -1;
  for (const auto& [id, score] : answer.items) {
    const int d = dist_of(id);
    if (d < 0) {
      *why = "answer names id " + std::to_string(id) + ", which is not live";
      return false;
    }
    const double expect = ScoreOf(d, p);
    if (score < expect - 1e-6 || score > expect + 1e-6) {
      *why = "id " + std::to_string(id) + " scored " + std::to_string(score) +
             ", its distance gives " + std::to_string(expect);
      return false;
    }
    if (d < prev_dist || (d == prev_dist && id <= prev_id)) {
      *why = "answer is not in ascending (score, id) order at id " +
             std::to_string(id);
      return false;
    }
    prev_dist = d;
    prev_id = id;
  }
  return true;
}

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
