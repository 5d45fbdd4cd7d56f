// Self-test of the benchmark's reference checks: hand-built cases for the
// brute-force top-k and the containment checker, and deliberately
// corrupted answers that the checks must catch and count as failed.
//
//   perfbench_selftest        (exit code 0 when every case passes)
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "reference.h"
#include "report.h"
#include "workloads.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

using perfbench::Answer;
using perfbench::BitRows;
using perfbench::Hit;

gdim::Graph Path(const std::vector<gdim::LabelId>& labels,
                 gdim::LabelId edge_label) {
  gdim::Graph g;
  for (gdim::LabelId l : labels) g.AddVertex(l);
  for (int v = 1; v < g.NumVertices(); ++v) g.AddEdge(v - 1, v, edge_label);
  return g;
}

std::vector<uint8_t> Bits(const std::string& s) {
  std::vector<uint8_t> out;
  for (char c : s) out.push_back(c == '1');
  return out;
}

std::string Line(const std::vector<Hit>& hits, int p) {
  std::string line = "OK " + std::to_string(hits.size());
  for (const Hit& h : hits) {
    char score[32];
    std::snprintf(score, sizeof(score), "%.6f", perfbench::ScoreOf(h.dist, p));
    line += " " + std::to_string(h.id) + ":" + score;
  }
  return line;
}

void TestBruteTopK() {
  // Rows at distances 2, 1, 1, 0, 3 from the query 0000: ties at distance
  // 1 go to the smaller id.
  BitRows rows(4);
  for (const char* r : {"1100", "0100", "0010", "0000", "1110"}) rows.Append(Bits(r));
  const std::vector<int> ids = {0, 1, 2, 3, 4};
  const std::vector<uint64_t> q = rows.Pack(Bits("0000"));
  const auto all = [](size_t) { return true; };
  const auto top3 = perfbench::BruteTopK(q.data(), rows, ids, 3, all);
  Expect(top3 == std::vector<Hit>{{3, 0}, {1, 1}, {2, 1}}, "top-3 order");
  const auto top9 = perfbench::BruteTopK(q.data(), rows, ids, 9, all);
  Expect(top9.size() == 5 && top9.back() == Hit{4, 3}, "k above n");
  // Dead rows never appear; external ids are reported, not row numbers.
  const std::vector<int> ext = {10, 11, 12, 13, 14};
  const auto live = perfbench::BruteTopK(q.data(), rows, ext, 2,
                                         [](size_t r) { return r != 3; });
  Expect(live == std::vector<Hit>{{11, 1}, {12, 1}}, "alive filter");
  // Words beyond the first: a 70-bit row differing in bit 69 only.
  BitRows wide(70);
  std::vector<uint8_t> a(70, 0), b(70, 0);
  b[69] = 1;
  wide.Append(a);
  wide.Append(b);
  Expect(perfbench::Hamming(wide.row(0), wide.row(1), wide.words()) == 1,
         "hamming across words");
}

void TestContains() {
  const gdim::Graph ab = Path({0, 1}, 0);
  const gdim::Graph abc = Path({0, 1, 2}, 0);
  const gdim::Graph cba = Path({2, 1, 0}, 0);
  Expect(perfbench::Contains(ab, abc), "edge in path");
  Expect(perfbench::Contains(abc, cba), "path in its reverse");
  Expect(!perfbench::Contains(abc, ab), "bigger pattern");
  Expect(!perfbench::Contains(Path({0, 1}, 1), abc), "edge label differs");
  Expect(!perfbench::Contains(Path({0, 2}, 0), abc), "non-adjacent labels");
  // A triangle is not in a path of three, but is in a 4-cycle with chord.
  gdim::Graph tri = Path({0, 0, 0}, 0);
  tri.AddEdge(0, 2, 0);
  Expect(!perfbench::Contains(tri, Path({0, 0, 0}, 0)), "triangle vs path");
  gdim::Graph square = Path({0, 0, 0, 0}, 0);
  square.AddEdge(0, 3, 0);
  Expect(!perfbench::Contains(tri, square), "triangle vs square");
  square.AddEdge(0, 2, 0);
  Expect(perfbench::Contains(tri, square), "triangle vs chorded square");
  // Non-induced: a path embeds into a triangle.
  Expect(perfbench::Contains(Path({0, 0, 0}, 0), tri), "path in triangle");
  // Distinct target vertices: two 0-labelled vertices need two targets.
  gdim::Graph two;
  two.AddVertex(0);
  two.AddVertex(0);
  gdim::Graph one;
  one.AddVertex(0);
  one.AddVertex(1);
  Expect(!perfbench::Contains(two, one), "injective mapping");
}

void TestCorruptedAnswers() {
  BitRows rows(4);
  for (const char* r : {"1100", "0100", "0010", "0000", "1110"}) rows.Append(Bits(r));
  const std::vector<int> ids = {0, 1, 2, 3, 4};
  const std::vector<uint64_t> q = rows.Pack(Bits("0000"));
  const auto ref = perfbench::BruteTopK(q.data(), rows, ids, 3,
                                        [](size_t) { return true; });
  Answer good, swapped;
  std::string why;
  Expect(perfbench::ParseAnswer(Line(ref, 4), &good, &why), "parse: " + why);
  Expect(perfbench::MatchesExact(good, ref, 4, &why), "good answer: " + why);
  // One swapped id: 1 and 2 tie, so only the id order is wrong.
  std::vector<Hit> bad = ref;
  std::swap(bad[1].id, bad[2].id);
  Expect(perfbench::ParseAnswer(Line(bad, 4), &swapped, &why), "parse swapped");
  Expect(!perfbench::MatchesExact(swapped, ref, 4, &why), "swapped id caught");
  const auto dist = [&](int id) {
    return id >= 0 && id < 5 ? perfbench::Hamming(q.data(), rows.row(static_cast<size_t>(id)), 1) : -1;
  };
  Expect(perfbench::ValidApprox(good, 3, 5, 4, dist, &why), "approx good");
  Expect(!perfbench::ValidApprox(swapped, 3, 5, 4, dist, &why), "approx swapped");
  // An id the corpus does not have, and a score that is not the distance.
  Answer ghost = good;
  ghost.items[0].first = 7;
  Expect(!perfbench::ValidApprox(ghost, 3, 5, 4, dist, &why), "approx ghost id");
  Answer off = good;
  off.items[2].second += 0.01;
  Expect(!perfbench::ValidApprox(off, 3, 5, 4, dist, &why), "approx score");
  Expect(!perfbench::ParseAnswer("ERR NotFound nope", &good, &why), "ERR line");
  Expect(!perfbench::ParseAnswer("OK 2 1:0.5", &good, &why), "short line");

  // One flipped fingerprint bit is caught by the containment spot check
  // and counted as a failed operation.
  const gdim::GraphDatabase features = {Path({0, 1}, 0), Path({1, 2}, 0),
                                        Path({0, 2}, 0)};
  const gdim::GraphDatabase graphs = {Path({0, 1, 2}, 0), Path({2, 0}, 0)};
  std::vector<std::vector<uint8_t>> fp = {Bits("110"), Bits("001")};
  perfbench::Report clean(false);
  perfbench::SpotCheckFingerprints(features, graphs, {0, 1},
                                   [&](size_t i) { return fp[i]; }, "test",
                                   &clean);
  Expect(clean.attempted() == 2 && clean.failed() == 0 && clean.correct(),
         "true fingerprints pass");
  fp[1][2] = 0;
  perfbench::Report flipped(false);
  perfbench::SpotCheckFingerprints(features, graphs, {0, 1},
                                   [&](size_t i) { return fp[i]; }, "test",
                                   &flipped);
  Expect(flipped.attempted() == 2 && flipped.failed() == 1 &&
             !flipped.correct(),
         "flipped bit counted failed");
}

void TestQuantile() {
  Expect(perfbench::Quantile({5, 1, 3, 2, 4}, 0.5) == 3, "median");
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  Expect(perfbench::Quantile(v, 0.99) == 99, "p99 nearest rank");
}

}  // namespace

int main() {
  TestBruteTopK();
  TestContains();
  TestCorruptedAnswers();
  TestQuantile();
  if (failures == 0) std::printf("perfbench selftest: all cases pass\n");
  return failures == 0 ? 0 : 1;
}
