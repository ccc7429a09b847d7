#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "common/faultinject.hpp"
#include "graph/io.hpp"
#include "sparse/io.hpp"
#include "test_util.hpp"

namespace bepi {
namespace {

/// Bit pattern of a double, so -0.0 vs 0.0 and NaN payloads compare
/// exactly.
std::uint64_t Bits(real_t v) { return std::bit_cast<std::uint64_t>(v); }

void ExpectIdentical(const CsrMatrix& a, const CsrMatrix& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  EXPECT_EQ(a.row_ptr(), b.row_ptr());
  EXPECT_EQ(a.col_idx(), b.col_idx());
  ASSERT_EQ(a.values().size(), b.values().size());
  for (std::size_t i = 0; i < a.values().size(); ++i) {
    EXPECT_EQ(Bits(a.values()[i]), Bits(b.values()[i])) << "entry " << i;
  }
}

/// Overwrites the int64 word at `word` of an encoded payload.
void PatchWord(std::string* payload, std::size_t word, index_t value) {
  std::memcpy(payload->data() + word * 8, &value, sizeof(value));
}

TEST(CsrCodec, RoundTripIsExact) {
  Rng rng(151);
  for (auto [rows, cols] : {std::pair<index_t, index_t>{6, 9}, {0, 0},
                            {0, 5}, {7, 0}, {40, 40}}) {
    CsrMatrix a = test::RandomSparse(rows, cols, 0.3, &rng);
    const std::string payload = EncodeCsr(a);
    EXPECT_EQ(payload.size(), static_cast<std::size_t>(
                                  24 + 8 * (rows + 1) + 16 * a.nnz()));
    auto back = DecodeCsr(payload, rows, cols);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ExpectIdentical(a, *back);
    EXPECT_EQ(EncodeCsr(*back), payload);
  }
}

TEST(CsrCodec, KeepsNegativeZeroAndSubnormalsExactly) {
  const std::vector<real_t> values = {
      -0.0,
      0.0,
      std::numeric_limits<real_t>::denorm_min(),
      -std::numeric_limits<real_t>::denorm_min(),
      std::numeric_limits<real_t>::min() / 3.0,
      0.1,
      -1.0 / 3.0,
      std::numeric_limits<real_t>::max()};
  const index_t n = static_cast<index_t>(values.size());
  std::vector<index_t> row_ptr(static_cast<std::size_t>(n) + 1);
  std::vector<index_t> col_idx(static_cast<std::size_t>(n));
  for (index_t i = 0; i <= n; ++i) row_ptr[static_cast<std::size_t>(i)] = i;
  for (index_t i = 0; i < n; ++i) col_idx[static_cast<std::size_t>(i)] = i;
  auto a = CsrMatrix::FromParts(n, n, row_ptr, col_idx, values);
  ASSERT_TRUE(a.ok());
  auto back = DecodeCsr(EncodeCsr(*a), n, n);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectIdentical(*a, *back);
  EXPECT_TRUE(std::signbit(back->values()[0]));
}

TEST(CsrCodec, RejectsMalformedPayloads) {
  Rng rng(157);
  const CsrMatrix a = test::RandomSparse(4, 5, 0.5, &rng);
  const std::string good = EncodeCsr(a);
  const auto rejected = [](const std::string& payload, index_t rows,
                           index_t cols) {
    auto m = DecodeCsr(payload, rows, cols);
    if (m.ok()) return false;
    EXPECT_EQ(m.status().code(), StatusCode::kDataLoss)
        << m.status().ToString();
    return true;
  };
  EXPECT_TRUE(rejected("", -1, -1));
  EXPECT_TRUE(rejected(good.substr(0, 23), -1, -1));
  EXPECT_TRUE(rejected(good + "x", 4, 5));
  EXPECT_TRUE(rejected(good + std::string(8, '\0'), 4, 5));
  // Shape disagreeing with what the caller knows.
  EXPECT_TRUE(rejected(good, 5, 4));
  EXPECT_TRUE(rejected(good, 4, 6));
  // Negative dimensions.
  for (std::size_t word : {0u, 1u, 2u}) {
    std::string bad = good;
    PatchWord(&bad, word, -1);
    EXPECT_TRUE(rejected(bad, -1, -1)) << "word " << word;
  }
  EXPECT_TRUE(DecodeCsr(good, 4, 5).ok());
}

TEST(CsrCodec, RejectsClaimsLargerThanThePayloadBeforeAllocating) {
  Rng rng(163);
  const std::string good = EncodeCsr(test::RandomSparse(3, 3, 0.5, &rng));
  // Sizes that could never be allocated: a decoder that sized its arrays
  // from the header before checking the length would throw or die here.
  for (index_t claim : {index_t{4'000'000'000},
                        std::numeric_limits<index_t>::max() / 2,
                        std::numeric_limits<index_t>::max()}) {
    std::string rows_bomb = good;
    PatchWord(&rows_bomb, 0, claim);
    auto m = DecodeCsr(rows_bomb);
    ASSERT_FALSE(m.ok()) << "rows " << claim;
    EXPECT_EQ(m.status().code(), StatusCode::kDataLoss);
    std::string nnz_bomb = good;
    PatchWord(&nnz_bomb, 2, claim);
    m = DecodeCsr(nnz_bomb);
    ASSERT_FALSE(m.ok()) << "nnz " << claim;
    EXPECT_EQ(m.status().code(), StatusCode::kDataLoss);
    std::string count_bomb = EncodeIndexVector({1, 2, 3});
    PatchWord(&count_bomb, 0, claim);
    auto v = DecodeIndexVector(count_bomb);
    ASSERT_FALSE(v.ok()) << "count " << claim;
    EXPECT_EQ(v.status().code(), StatusCode::kDataLoss);
  }
}

TEST(CsrCodec, RejectsUnsortedAndOutOfRangeColumns) {
  // 2x3 with rows {0: cols 0, 2} {1: col 1}: words are the 3-word header,
  // row_ptr at 3..5, col_idx at 6..8, values at 9..11.
  auto a = CsrMatrix::FromParts(2, 3, {0, 2, 3}, {0, 2, 1}, {1.0, 2.0, 3.0});
  ASSERT_TRUE(a.ok());
  const std::string good = EncodeCsr(*a);
  ASSERT_TRUE(DecodeCsr(good, 2, 3).ok());
  const auto expect_rejected = [](const std::string& payload,
                                  const char* what) {
    auto m = DecodeCsr(payload, 2, 3);
    ASSERT_FALSE(m.ok()) << what;
    EXPECT_EQ(m.status().code(), StatusCode::kDataLoss) << what;
  };
  std::string unsorted = good;
  PatchWord(&unsorted, 6, 2);
  PatchWord(&unsorted, 7, 0);
  expect_rejected(unsorted, "unsorted columns");
  std::string duplicate = good;
  PatchWord(&duplicate, 7, 0);
  expect_rejected(duplicate, "duplicate column");
  std::string past_end = good;
  PatchWord(&past_end, 8, 3);
  expect_rejected(past_end, "column == cols");
  std::string negative = good;
  PatchWord(&negative, 6, -1);
  expect_rejected(negative, "negative column");
  std::string backwards = good;
  PatchWord(&backwards, 4, 4);  // row_ptr {0, 4, 3}: overshoots nnz
  expect_rejected(backwards, "row_ptr overshoot");
  std::string bad_start = good;
  PatchWord(&bad_start, 3, 1);
  expect_rejected(bad_start, "row_ptr[0] != 0");
}

TEST(CsrCodec, TruncationAtEveryByteIsRejected) {
  Rng rng(167);
  const CsrMatrix a = test::RandomSparse(9, 7, 0.4, &rng);
  const std::string payload = EncodeCsr(a);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    auto m = DecodeCsr(payload.substr(0, cut), 9, 7);
    ASSERT_FALSE(m.ok()) << "truncation at byte " << cut;
    EXPECT_EQ(m.status().code(), StatusCode::kDataLoss);
  }
}

TEST(IndexVectorCodec, RoundTripAndRejections) {
  for (const std::vector<index_t>& v :
       {std::vector<index_t>{}, std::vector<index_t>{7},
        std::vector<index_t>{3, -1, 0, std::numeric_limits<index_t>::max()}}) {
    const std::string payload = EncodeIndexVector(v);
    EXPECT_EQ(payload.size(), 8 * (v.size() + 1));
    auto back = DecodeIndexVector(payload);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, v);
  }
  const std::string good = EncodeIndexVector({1, 2, 3});
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_FALSE(DecodeIndexVector(good.substr(0, cut)).ok()) << cut;
  }
  EXPECT_FALSE(DecodeIndexVector(good + std::string(8, '\0')).ok());
  std::string negative = good;
  PatchWord(&negative, 0, -1);
  EXPECT_FALSE(DecodeIndexVector(negative).ok());
}

TEST(EdgeList, RoundTrip) {
  Graph g = test::SmallRmat(50, 200, 0.1, 163);
  std::stringstream ss;
  ASSERT_TRUE(WriteEdgeList(g, ss).ok());
  auto back = ReadEdgeList(ss, g.num_nodes());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_nodes(), g.num_nodes());
  EXPECT_EQ(back->num_edges(), g.num_edges());
  EXPECT_EQ(CsrMatrix::MaxAbsDiff(g.adjacency(), back->adjacency()), 0.0);
}

TEST(EdgeList, InfersNodeCount) {
  std::stringstream ss("0 5\n3 2\n");
  auto g = ReadEdgeList(ss);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 6);
  EXPECT_EQ(g->num_edges(), 2);
}

TEST(EdgeList, SkipsCommentsAndRejectsGarbage) {
  std::stringstream ok("# comment\n% other comment\n0 1\n");
  EXPECT_TRUE(ReadEdgeList(ok).ok());
  std::stringstream bad("0 x\n");
  EXPECT_EQ(ReadEdgeList(bad).status().code(), StatusCode::kIoError);
  std::stringstream negative("0 -2\n");
  EXPECT_EQ(ReadEdgeList(negative).status().code(), StatusCode::kIoError);
}

TEST(EdgeList, RejectsTrailingGarbageAndPartialLines) {
  for (const char* text : {"0 1 2\n", "0 1 x\n", "0\n", "0 1.5\n", "0 1e3\n",
                           "+0 1\n", "0 2x\n", "nan 1\n"}) {
    std::stringstream ss(text);
    EXPECT_EQ(ReadEdgeList(ss).status().code(), StatusCode::kIoError) << text;
  }
  // Extra blanks between and around tokens stay legal.
  std::stringstream padded("  0 \t 1  \n\n   \n");
  EXPECT_TRUE(ReadEdgeList(padded).ok());
}

TEST(EdgeList, RejectsOverflowingIds) {
  std::stringstream ss("0 99999999999999999999999999\n");
  auto g = ReadEdgeList(ss);
  EXPECT_EQ(g.status().code(), StatusCode::kIoError);
  EXPECT_NE(g.status().ToString().find("overflow"), std::string::npos);
}

TEST(EdgeList, RejectsIdsBeyondDeclaredNodeCount) {
  std::stringstream ss("0 1\n2 7\n");
  auto g = ReadEdgeList(ss, /*num_nodes=*/5);
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
  // The message pinpoints the offending line.
  EXPECT_NE(g.status().ToString().find("line 2"), std::string::npos);
}

TEST(EdgeList, ErrorsCarryLineNumbers) {
  std::stringstream ss("# header\n0 1\nbroken line\n");
  auto g = ReadEdgeList(ss);
  EXPECT_EQ(g.status().code(), StatusCode::kIoError);
  EXPECT_NE(g.status().ToString().find("line 3"), std::string::npos);
}

TEST(EdgeList, InjectedIoFaultSurfacesMidStream) {
  FaultInjector::Global().Reset();
  FaultInjector::Global().Arm(fault_sites::kEdgeListRead, /*skip=*/2,
                              /*count=*/1);
  std::stringstream ss("0 1\n1 2\n2 3\n3 4\n");
  auto g = ReadEdgeList(ss);
  FaultInjector::Global().Reset();
  EXPECT_EQ(g.status().code(), StatusCode::kIoError);
  EXPECT_NE(g.status().ToString().find("line 3"), std::string::npos);
}

TEST(EdgeListFile, MissingFile) {
  EXPECT_EQ(ReadEdgeListFile("/nonexistent/graph.txt").status().code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace bepi
