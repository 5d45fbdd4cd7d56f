#include "reference.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>

namespace perfbench {

void BitRows::Append(const std::vector<uint8_t>& bits) {
  const std::vector<uint64_t> row = Pack(bits);
  data_.insert(data_.end(), row.begin(), row.end());
}

std::vector<uint64_t> BitRows::Pack(const std::vector<uint8_t>& bits) const {
  if (static_cast<int>(bits.size()) != bits_) std::abort();
  std::vector<uint64_t> row(words_, 0);
  for (size_t r = 0; r < bits.size(); ++r) {
    if (bits[r] != 0) row[r / 64] |= uint64_t{1} << (r % 64);
  }
  return row;
}

int Hamming(const uint64_t* a, const uint64_t* b, size_t words) {
  int d = 0;
  for (size_t w = 0; w < words; ++w) d += std::popcount(a[w] ^ b[w]);
  return d;
}

double ScoreOf(int dist, int p) {
  return std::sqrt(static_cast<double>(dist) / static_cast<double>(p));
}

namespace {

/// Dense view of a labelled graph: vertex labels and an adjacency matrix
/// holding each edge's label (-1 where there is no edge).
struct Dense {
  int n = 0;
  std::vector<int> label;
  std::vector<int> edge;  // n*n
  int at(int u, int v) const { return edge[static_cast<size_t>(u * n + v)]; }
};

Dense ToDense(const gdim::Graph& g) {
  Dense d;
  d.n = g.NumVertices();
  d.label.resize(static_cast<size_t>(d.n));
  for (int v = 0; v < d.n; ++v) {
    d.label[static_cast<size_t>(v)] = static_cast<int>(g.VertexLabel(v));
  }
  d.edge.assign(static_cast<size_t>(d.n) * static_cast<size_t>(d.n), -1);
  for (const gdim::Edge& e : g.edges()) {
    d.edge[static_cast<size_t>(e.u * d.n + e.v)] = static_cast<int>(e.label);
    d.edge[static_cast<size_t>(e.v * d.n + e.u)] = static_cast<int>(e.label);
  }
  return d;
}

struct Search {
  const Dense& pat;
  const Dense& tgt;
  std::vector<int> order;    // pattern vertices in matching order
  std::vector<int> image;    // pattern vertex -> target vertex or -1
  std::vector<char> used;    // target vertex taken

  bool Extend(size_t depth) {
    if (depth == order.size()) return true;
    const int u = order[depth];
    for (int v = 0; v < tgt.n; ++v) {
      if (used[static_cast<size_t>(v)] ||
          tgt.label[static_cast<size_t>(v)] != pat.label[static_cast<size_t>(u)]) {
        continue;
      }
      bool fits = true;
      for (size_t j = 0; j < depth && fits; ++j) {
        const int w = order[j];
        const int want = pat.at(u, w);
        if (want >= 0 && tgt.at(v, image[static_cast<size_t>(w)]) != want) {
          fits = false;
        }
      }
      if (!fits) continue;
      image[static_cast<size_t>(u)] = v;
      used[static_cast<size_t>(v)] = 1;
      if (Extend(depth + 1)) return true;
      used[static_cast<size_t>(v)] = 0;
      image[static_cast<size_t>(u)] = -1;
    }
    return false;
  }
};

}  // namespace

bool Contains(const gdim::Graph& pattern, const gdim::Graph& target) {
  if (pattern.NumVertices() > target.NumVertices() ||
      pattern.NumEdges() > target.NumEdges()) {
    return false;
  }
  const Dense pat = ToDense(pattern);
  const Dense tgt = ToDense(target);
  Search s{pat, tgt, {}, std::vector<int>(static_cast<size_t>(pat.n), -1),
           std::vector<char>(static_cast<size_t>(tgt.n), 0)};
  // Match order: repeatedly take the unplaced vertex with the most edges
  // to placed ones (then the highest degree), so each new vertex is
  // constrained by its already-mapped neighbours.
  std::vector<char> placed(static_cast<size_t>(pat.n), 0);
  std::vector<int> degree(static_cast<size_t>(pat.n), 0);
  for (int u = 0; u < pat.n; ++u) {
    for (int w = 0; w < pat.n; ++w) degree[static_cast<size_t>(u)] += pat.at(u, w) >= 0;
  }
  for (int step = 0; step < pat.n; ++step) {
    int best = -1, best_links = -1;
    for (int u = 0; u < pat.n; ++u) {
      if (placed[static_cast<size_t>(u)]) continue;
      int links = 0;
      for (int w : s.order) links += pat.at(u, w) >= 0;
      if (links > best_links ||
          (links == best_links && degree[static_cast<size_t>(u)] >
                                      degree[static_cast<size_t>(best)])) {
        best = u;
        best_links = links;
      }
    }
    placed[static_cast<size_t>(best)] = 1;
    s.order.push_back(best);
  }
  return s.Extend(0);
}

bool ParseAnswer(const std::string& line, Answer* out, std::string* why) {
  out->items.clear();
  if (line.rfind("OK ", 0) != 0) {
    *why = "not an OK line: '" + line.substr(0, 120) + "'";
    return false;
  }
  const char* p = line.c_str() + 3;
  char* end = nullptr;
  const long m = std::strtol(p, &end, 10);
  if (end == p || m < 0) {
    *why = "bad count in '" + line.substr(0, 120) + "'";
    return false;
  }
  p = end;
  for (long i = 0; i < m; ++i) {
    if (*p != ' ') {
      *why = "truncated answer '" + line.substr(0, 120) + "'";
      return false;
    }
    ++p;
    const long id = std::strtol(p, &end, 10);
    if (end == p || *end != ':') {
      *why = "bad id in '" + line.substr(0, 120) + "'";
      return false;
    }
    p = end + 1;
    const double score = std::strtod(p, &end);
    if (end == p) {
      *why = "bad score in '" + line.substr(0, 120) + "'";
      return false;
    }
    p = end;
    out->items.emplace_back(static_cast<int>(id), score);
  }
  if (*p != '\0') {
    *why = "trailing text in '" + line.substr(0, 120) + "'";
    return false;
  }
  return true;
}

bool MatchesExact(const Answer& answer, const std::vector<Hit>& ref, int p,
                  std::string* why) {
  if (answer.items.size() != ref.size()) {
    *why = "answer has " + std::to_string(answer.items.size()) +
           " entries, reference " + std::to_string(ref.size());
    return false;
  }
  for (size_t i = 0; i < ref.size(); ++i) {
    const auto& [id, score] = answer.items[i];
    const double expect = ScoreOf(ref[i].dist, p);
    if (id != ref[i].id || score < expect - 1e-6 || score > expect + 1e-6) {
      *why = "rank " + std::to_string(i) + ": answer " + std::to_string(id) +
             ":" + std::to_string(score) + ", reference " +
             std::to_string(ref[i].id) + ":" + std::to_string(expect);
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
