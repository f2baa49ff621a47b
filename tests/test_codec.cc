#include "rdf/codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace rdfdb::rdf::codec {
namespace {

// ---- Varint ---------------------------------------------------------------

TEST(VarintTest, RoundTripBoundaries) {
  const std::vector<uint32_t> values = {
      0,          1,          0x7f,       0x80,        0x3fff,
      0x4000,     0x1fffff,   0x200000,   0xfffffff,   0x10000000,
      0x7fffffff, 0x80000000, 0xfffffffe, 0xffffffff};
  for (uint32_t v : values) {
    std::vector<uint8_t> buf;
    PutVarint32(&buf, v);
    EXPECT_EQ(buf.size(), VarintLength(v));
    uint32_t decoded = 0;
    const uint8_t* end = GetVarint32(buf.data(), &decoded);
    EXPECT_EQ(decoded, v);
    EXPECT_EQ(end, buf.data() + buf.size());
  }
}

TEST(VarintTest, FuzzRoundTripConcatenated) {
  std::mt19937 rng(7);
  std::vector<uint32_t> values;
  std::vector<uint8_t> buf;
  for (int i = 0; i < 10000; ++i) {
    // Mix magnitudes so every byte-length occurs.
    int shift = static_cast<int>(rng() % 32);
    uint32_t v = static_cast<uint32_t>(rng()) >> shift;
    values.push_back(v);
    PutVarint32(&buf, v);
  }
  const uint8_t* p = buf.data();
  for (uint32_t expected : values) {
    uint32_t v = 0;
    p = GetVarint32(p, &v);
    ASSERT_EQ(v, expected);
  }
  EXPECT_EQ(p, buf.data() + buf.size());
}

// ---- PostingList ----------------------------------------------------------

std::vector<uint32_t> MakeAscending(std::mt19937* rng, size_t n,
                                    uint32_t max_gap) {
  std::vector<uint32_t> out;
  uint32_t cur = (*rng)() % 3;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(cur);
    cur += 1 + (*rng)() % max_gap;
  }
  return out;
}

TEST(PostingListTest, EmptyList) {
  PostingList list;
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.size(), 0u);
  PostingList::Cursor cur(list);
  EXPECT_TRUE(cur.AtEnd());
  EXPECT_FALSE(cur.SkipTo(0));
  EXPECT_TRUE(list.ToVector().empty());
}

TEST(PostingListTest, SingleElement) {
  for (uint32_t v : {0u, 1u, 127u, 128u, 0xffffffffu}) {
    PostingList list;
    list.Append(v);
    EXPECT_EQ(list.size(), 1u);
    EXPECT_EQ(list.back(), v);
    PostingList::Cursor cur(list);
    ASSERT_FALSE(cur.AtEnd());
    EXPECT_EQ(cur.Value(), v);
    cur.Next();
    EXPECT_TRUE(cur.AtEnd());

    PostingList::Cursor skip(list);
    EXPECT_TRUE(skip.SkipTo(v));
    EXPECT_EQ(skip.Value(), v);
    if (v > 0) {
      PostingList::Cursor skip2(list);
      EXPECT_TRUE(skip2.SkipTo(v - 1));
      EXPECT_EQ(skip2.Value(), v);
    }
    if (v < std::numeric_limits<uint32_t>::max()) {
      PostingList::Cursor skip3(list);
      EXPECT_FALSE(skip3.SkipTo(v + 1));
    }
  }
}

TEST(PostingListTest, SequentialRoundTrip) {
  PostingList list;
  std::vector<uint32_t> expected;
  for (uint32_t i = 0; i < 1000; ++i) {
    list.Append(i * 3);
    expected.push_back(i * 3);
  }
  EXPECT_EQ(list.ToVector(), expected);
  // Sequential ids delta-encode to ~1 byte each.
  EXPECT_LT(list.EncodedBytes(), expected.size() * 2);
}

TEST(PostingListTest, FourByteBoundaryValues) {
  // Values straddling every varint length boundary, including the
  // 5-byte encodings near 2^32.
  PostingList list;
  std::vector<uint32_t> expected = {0,          0x7f,       0x80,
                                    0x3fff,     0x4000,     0x1fffff,
                                    0x200000,   0xfffffff,  0x10000000,
                                    0x7fffffff, 0x80000000, 0xffffffff};
  for (uint32_t v : expected) list.Append(v);
  EXPECT_EQ(list.ToVector(), expected);
  for (uint32_t v : expected) {
    PostingList::Cursor cur(list);
    ASSERT_TRUE(cur.SkipTo(v));
    EXPECT_EQ(cur.Value(), v);
  }
}

TEST(PostingListTest, FuzzRoundTripAndSkip) {
  std::mt19937 rng(42);
  for (int round = 0; round < 30; ++round) {
    size_t n = 1 + rng() % 2000;
    uint32_t max_gap = 1 + rng() % 1000;
    std::vector<uint32_t> values = MakeAscending(&rng, n, max_gap);
    PostingList list;
    for (uint32_t v : values) list.Append(v);
    ASSERT_EQ(list.ToVector(), values);

    // Random SkipTo targets, validated against std::lower_bound.
    for (int probe = 0; probe < 50; ++probe) {
      uint32_t target = values[rng() % values.size()] + rng() % max_gap;
      PostingList::Cursor cur(list);
      auto it = std::lower_bound(values.begin(), values.end(), target);
      if (it == values.end()) {
        EXPECT_FALSE(cur.SkipTo(target));
      } else {
        ASSERT_TRUE(cur.SkipTo(target));
        EXPECT_EQ(cur.Value(), *it);
      }
    }

    // Monotone forward skipping from a moving cursor (the intersection
    // access pattern): never rewind, always land on lower_bound.
    PostingList::Cursor cur(list);
    uint32_t target = 0;
    while (true) {
      target += 1 + rng() % (max_gap * 4);
      auto it = std::lower_bound(values.begin(), values.end(), target);
      if (it == values.end()) {
        EXPECT_FALSE(cur.SkipTo(target));
        break;
      }
      ASSERT_TRUE(cur.SkipTo(target));
      ASSERT_EQ(cur.Value(), *it);
    }
  }
}

TEST(PostingListTest, GallopingIntersection) {
  // Intersect a dense list with a sparse one; verify against sets.
  std::mt19937 rng(99);
  std::vector<uint32_t> dense = MakeAscending(&rng, 5000, 3);
  std::vector<uint32_t> sparse;
  for (uint32_t v : dense) {
    if (rng() % 50 == 0) sparse.push_back(v);
  }
  PostingList dense_list, sparse_list;
  for (uint32_t v : dense) dense_list.Append(v);
  for (uint32_t v : sparse) sparse_list.Append(v);

  std::vector<uint32_t> got;
  PostingList::Cursor a(sparse_list);
  PostingList::Cursor b(dense_list);
  while (!a.AtEnd() && b.SkipTo(a.Value())) {
    if (b.Value() == a.Value()) got.push_back(a.Value());
    a.Next();
    if (a.AtEnd()) break;
  }
  EXPECT_EQ(got, sparse);
}

}  // namespace
}  // namespace rdfdb::rdf::codec
