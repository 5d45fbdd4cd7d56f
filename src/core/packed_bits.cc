#include "core/packed_bits.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "core/kernels/scan_kernel.h"

namespace gdim {

namespace {

inline int PopcountXor(const uint64_t* a, const uint64_t* b, size_t words) {
  int diff = 0;
  for (size_t w = 0; w < words; ++w) {
    diff += std::popcount(a[w] ^ b[w]);
  }
  return diff;
}

/// Rows per kernel call: 256 rows of up to a few hundred words keeps the
/// block plus the diff scratch comfortably inside L2 while amortizing the
/// virtual dispatch to nothing.
constexpr int kScanBlockRows = 256;

}  // namespace

PackedBitMatrix PackedBitMatrix::WithWidth(int num_bits) {
  GDIM_CHECK(num_bits >= 0);
  PackedBitMatrix m;
  m.num_bits_ = num_bits;
  m.words_per_row_ = (static_cast<size_t>(num_bits) + 63) / 64;
  return m;
}

PackedBitMatrix PackedBitMatrix::FromRows(
    const std::vector<std::vector<uint8_t>>& rows) {
  return FromRows(rows, rows.empty() ? 0 : static_cast<int>(rows[0].size()));
}

PackedBitMatrix PackedBitMatrix::FromRows(
    const std::vector<std::vector<uint8_t>>& rows, int num_bits) {
  PackedBitMatrix m = WithWidth(num_bits);
  m.num_rows_ = static_cast<int>(rows.size());
  m.words_.assign(static_cast<size_t>(m.num_rows_) * m.words_per_row_, 0);
  for (size_t i = 0; i < rows.size(); ++i) {
    GDIM_CHECK(rows[i].size() == static_cast<size_t>(m.num_bits_))
        << "ragged bit rows: row " << i << " has " << rows[i].size()
        << " bits, expected " << m.num_bits_;
    uint64_t* out = m.words_.data() + i * m.words_per_row_;
    for (size_t r = 0; r < rows[i].size(); ++r) {
      if (rows[i][r] != 0) out[r >> 6] |= uint64_t{1} << (r & 63);
    }
  }
  return m;
}

PackedBitMatrix PackedBitMatrix::FromWords(int num_rows, int num_bits,
                                           std::vector<uint64_t> words) {
  PackedBitMatrix m = WithWidth(num_bits);
  GDIM_CHECK(num_rows >= 0);
  GDIM_CHECK(words.size() ==
             static_cast<size_t>(num_rows) * m.words_per_row_)
      << "word block has " << words.size() << " words, expected "
      << static_cast<size_t>(num_rows) * m.words_per_row_;
  m.num_rows_ = num_rows;
  m.words_ = std::move(words);
  // Scan kernels popcount whole words, so stray padding bits would corrupt
  // every distance; clear them rather than trusting the producer.
  const int tail_bits = num_bits & 63;
  if (tail_bits != 0 && m.words_per_row_ > 0) {
    const uint64_t mask = (uint64_t{1} << tail_bits) - 1;
    for (size_t i = m.words_per_row_ - 1; i < m.words_.size();
         i += m.words_per_row_) {
      m.words_[i] &= mask;
    }
  }
  return m;
}

std::vector<uint64_t> PackedBitMatrix::PackBits(
    const std::vector<uint8_t>& bits) {
  std::vector<uint64_t> words((bits.size() + 63) / 64, 0);
  for (size_t r = 0; r < bits.size(); ++r) {
    if (bits[r] != 0) words[r >> 6] |= uint64_t{1} << (r & 63);
  }
  return words;
}

void PackedBitMatrix::Reserve(int rows) {
  GDIM_CHECK(rows >= 0);
  words_.reserve(static_cast<size_t>(rows) * words_per_row_);
}

int PackedBitMatrix::AppendRow(const std::vector<uint8_t>& bits) {
  GDIM_CHECK(bits.size() == static_cast<size_t>(num_bits_))
      << "appended row has " << bits.size() << " bits, expected " << num_bits_;
  words_.resize(words_.size() + words_per_row_, 0);
  uint64_t* out =
      words_.data() + static_cast<size_t>(num_rows_) * words_per_row_;
  for (size_t r = 0; r < bits.size(); ++r) {
    if (bits[r] != 0) out[r >> 6] |= uint64_t{1} << (r & 63);
  }
  return num_rows_++;
}

int PackedBitMatrix::AppendRowFrom(const PackedBitMatrix& src, int src_row) {
  GDIM_CHECK(src.num_bits_ == num_bits_)
      << "cannot append a " << src.num_bits_ << "-bit row to a " << num_bits_
      << "-bit matrix";
  GDIM_DCHECK(src_row >= 0 && src_row < src.num_rows_);
  // Resize before taking the source pointer so self-appends survive the
  // reallocation.
  words_.resize(words_.size() + words_per_row_);
  const uint64_t* from =
      src.words_.data() + static_cast<size_t>(src_row) * src.words_per_row_;
  std::copy(from, from + words_per_row_,
            words_.end() - static_cast<std::ptrdiff_t>(words_per_row_));
  return num_rows_++;
}

bool PackedBitMatrix::GetBit(int row_id, int bit) const {
  GDIM_DCHECK(bit >= 0 && bit < num_bits_);
  return (row(row_id)[bit >> 6] >> (bit & 63)) & 1;
}

std::vector<uint8_t> PackedBitMatrix::UnpackBits(const uint64_t* words,
                                                 int num_bits) {
  std::vector<uint8_t> bits(static_cast<size_t>(num_bits), 0);
  for (int r = 0; r < num_bits; ++r) {
    bits[static_cast<size_t>(r)] =
        static_cast<uint8_t>((words[r >> 6] >> (r & 63)) & 1);
  }
  return bits;
}

std::vector<uint8_t> PackedBitMatrix::UnpackRow(int row_id) const {
  return UnpackBits(row(row_id), num_bits_);
}

int PackedBitMatrix::HammingDistance(const std::vector<uint64_t>& query,
                                     int row_id) const {
  GDIM_CHECK(query.size() == words_per_row_) << "query width mismatch";
  return PopcountXor(query.data(), row(row_id), words_per_row_);
}

double PackedBitMatrix::NormalizedDistance(const std::vector<uint64_t>& query,
                                           int row_id) const {
  if (num_bits_ == 0) return 0.0;
  return std::sqrt(static_cast<double>(HammingDistance(query, row_id)) /
                   static_cast<double>(num_bits_));
}

void PackedBitMatrix::ScoreAll(const std::vector<uint64_t>& query,
                               std::vector<double>* scores) const {
  scores->resize(static_cast<size_t>(num_rows_));
  ScoreAllInto(query, scores->data());
}

void PackedBitMatrix::ScoreAllInto(const std::vector<uint64_t>& query,
                                   double* out) const {
  GDIM_CHECK(query.size() == words_per_row_) << "query width mismatch";
  if (num_bits_ == 0) {
    for (int i = 0; i < num_rows_; ++i) out[i] = 0.0;
    return;
  }
  const ScanKernel& kernel = ActiveScanKernel();
  const double p = static_cast<double>(num_bits_);
  uint32_t diffs[kScanBlockRows];
  for (int begin = 0; begin < num_rows_; begin += kScanBlockRows) {
    const int block = std::min(kScanBlockRows, num_rows_ - begin);
    kernel.HammingBlock(query.data(),
                        words_.data() +
                            static_cast<size_t>(begin) * words_per_row_,
                        words_per_row_, block, diffs);
    for (int i = 0; i < block; ++i) {
      out[begin + i] = std::sqrt(static_cast<double>(diffs[i]) / p);
    }
  }
}

void PackedBitMatrix::ScoreAllMultiInto(const uint64_t* const* queries,
                                        int num_queries,
                                        double* const* outs) const {
  if (num_queries <= 0) return;
  if (num_bits_ == 0) {
    for (int q = 0; q < num_queries; ++q) {
      for (int i = 0; i < num_rows_; ++i) outs[q][i] = 0.0;
    }
    return;
  }
  const ScanKernel& kernel = ActiveScanKernel();
  const double p = static_cast<double>(num_bits_);
  std::vector<uint32_t> diffs(static_cast<size_t>(num_queries) *
                              kScanBlockRows);
  for (int begin = 0; begin < num_rows_; begin += kScanBlockRows) {
    const int block = std::min(kScanBlockRows, num_rows_ - begin);
    kernel.HammingBlockMulti(queries, num_queries,
                             words_.data() +
                                 static_cast<size_t>(begin) * words_per_row_,
                             words_per_row_, block, diffs.data());
    for (int q = 0; q < num_queries; ++q) {
      const uint32_t* row_diffs =
          diffs.data() + static_cast<size_t>(q) * block;
      for (int i = 0; i < block; ++i) {
        outs[q][begin + i] =
            std::sqrt(static_cast<double>(row_diffs[i]) / p);
      }
    }
  }
}

void PackedBitMatrix::ScoreSubset(const std::vector<uint64_t>& query,
                                  const std::vector<int>& candidates,
                                  std::vector<double>* scores) const {
  GDIM_CHECK(query.size() == words_per_row_) << "query width mismatch";
  scores->resize(candidates.size());
  if (num_bits_ == 0) {
    for (double& s : *scores) s = 0.0;
    return;
  }
  const double p = static_cast<double>(num_bits_);
  for (size_t j = 0; j < candidates.size(); ++j) {
    const int diff = PopcountXor(query.data(), row(candidates[j]),
                                 words_per_row_);
    (*scores)[j] = std::sqrt(static_cast<double>(diff) / p);
  }
}

}  // namespace gdim
