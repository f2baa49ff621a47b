// Compression codec for the in-memory store's posting lists:
// PostingList, a delta+varint encoded strictly-ascending uint32
// sequence with a per-64-value skip table, replacing the raw
// vector<uint32_t> posting lists in LinkStore::ModelIdCache. A Cursor
// decodes sequentially; SkipTo gallops over skip entries so
// intersections decode only the blocks they visit.
//
// (Terms are not compressed: TermDict stores each term's finished
// N-Triples spelling in an arena, because rendering a result cell
// from it is a copy, where a front-coded pack cost a decode per cell.)
//
// A list is immutable once shared: the COW quad-cache discipline
// (LinkStore::MutableCache clones before the first mutation after a
// ShareCaches()) means readers only ever see fully-published bytes, so
// the list needs no atomics of its own.

#ifndef RDFDB_RDF_CODEC_H_
#define RDFDB_RDF_CODEC_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rdfdb::rdf::codec {

// ---- Varint primitives ----------------------------------------------------

/// LEB128 append (1–5 bytes for uint32).
inline void PutVarint32(std::vector<uint8_t>* out, uint32_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

/// Unchecked decode: the caller guarantees a complete varint at `p`
/// (all codec bytes are produced by PutVarint32). Returns the byte
/// after the varint.
inline const uint8_t* GetVarint32(const uint8_t* p, uint32_t* v) {
  uint32_t result = *p & 0x7f;
  if ((*p++ & 0x80) != 0) {
    int shift = 7;
    do {
      result |= static_cast<uint32_t>(*p & 0x7f) << shift;
      shift += 7;
    } while ((*p++ & 0x80) != 0);
  }
  *v = result;
  return p;
}

/// Encoded size of `v` in bytes.
inline size_t VarintLength(uint32_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

// ---- PostingList ----------------------------------------------------------

/// Delta+varint encoded ascending uint32 sequence. Append-only and
/// strictly ascending (each value must exceed the last); deletions are
/// handled above this layer by tombstoning the referenced quad.
class PostingList {
 public:
  /// Values per skip block. Each block start gets a skip entry
  /// (first value + byte offset), so SkipTo lands inside the right
  /// block and decodes at most kBlockSize-1 deltas.
  static constexpr uint32_t kBlockSize = 64;

  PostingList() = default;

  /// Append `value`; must be strictly greater than back() (or anything
  /// for the first append).
  void Append(uint32_t value) {
    uint32_t delta = count_ == 0 ? value : value - last_;
    if ((count_ % kBlockSize) == 0) {
      size_t at = bytes_.size();
      PutVarint32(&bytes_, delta);
      skip_.push_back(SkipEntry{value, static_cast<uint32_t>(at)});
    } else {
      PutVarint32(&bytes_, delta);
    }
    last_ = value;
    ++count_;
  }

  uint32_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// Largest (= most recent) value; undefined when empty.
  uint32_t back() const { return last_; }

  /// Actual heap bytes owned (vector capacities), excluding sizeof(*this).
  size_t ApproxBytes() const {
    return bytes_.capacity() * sizeof(uint8_t) +
           skip_.capacity() * sizeof(SkipEntry);
  }

  /// Encoded payload size (exact, no capacity slack) — what a
  /// capacity-tight copy would occupy.
  size_t EncodedBytes() const {
    return bytes_.size() + skip_.size() * sizeof(SkipEntry);
  }

  /// Decode everything (tests / slow paths).
  std::vector<uint32_t> ToVector() const;

  /// Decode every value in order, calling fn(value) until it returns
  /// false. The whole decode state lives in registers — measurably
  /// faster than driving a Cursor when the full list is visited (the
  /// executor's hot single-list leaf scans).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const uint8_t* p = bytes_.data();
    uint32_t cur = 0;
    for (uint32_t i = 0; i < count_; ++i) {
      uint32_t delta;
      p = GetVarint32(p, &delta);
      cur += delta;  // first delta is the absolute value (cur == 0)
      if (!fn(cur)) return;
    }
  }

  /// Forward decoder. Valid while the list is unmodified (the COW
  /// discipline guarantees this for readers).
  class Cursor {
   public:
    Cursor() = default;
    explicit Cursor(const PostingList& list) : list_(&list) {
      if (list.count_ > 0) {
        pos_ = GetVarint32(list.bytes_.data(), &cur_);
      }
    }

    bool AtEnd() const { return list_ == nullptr || idx_ >= list_->count_; }
    uint32_t Value() const { return cur_; }
    /// Index of the current value within the list (0-based).
    uint32_t Index() const { return idx_; }

    void Next() {
      if (++idx_ >= list_->count_) return;
      uint32_t delta;
      pos_ = GetVarint32(pos_, &delta);
      cur_ += delta;
    }

    /// Advance to the first value >= target (no-op if already there).
    /// Returns false when the list is exhausted. Gallops across skip
    /// blocks: doubling probe from the current block, then a binary
    /// search over the bracketed range, then ≤ kBlockSize-1 decodes.
    bool SkipTo(uint32_t target) {
      if (AtEnd()) return false;
      if (cur_ >= target) return true;
      const auto& skip = list_->skip_;
      size_t block = idx_ / kBlockSize;
      // Gallop: find the last block whose first value <= target.
      size_t step = 1;
      size_t hi = block;
      while (hi + step < skip.size() && skip[hi + step].first <= target) {
        hi += step;
        step <<= 1;
      }
      // Binary-search (hi, min(hi+step, size)) for more blocks <= target.
      size_t lo = hi;
      size_t end = std::min(hi + step, skip.size());
      while (lo + 1 < end) {
        size_t mid = (lo + end) / 2;
        if (skip[mid].first <= target) {
          lo = mid;
        } else {
          end = mid;
        }
      }
      if (lo > block) {
        idx_ = static_cast<uint32_t>(lo) * kBlockSize;
        cur_ = skip[lo].first;
        pos_ = list_->bytes_.data() + skip[lo].offset;
        uint32_t delta;
        pos_ = GetVarint32(pos_, &delta);  // re-decode the block head
      }
      while (cur_ < target) {
        Next();
        if (AtEnd()) return false;
      }
      return true;
    }

   private:
    const PostingList* list_ = nullptr;
    const uint8_t* pos_ = nullptr;
    uint32_t idx_ = 0;
    uint32_t cur_ = 0;
  };

  Cursor NewCursor() const { return Cursor(*this); }

 private:
  struct SkipEntry {
    uint32_t first;   ///< first value of the block
    uint32_t offset;  ///< byte offset of the block's head varint
  };

  std::vector<uint8_t> bytes_;
  std::vector<SkipEntry> skip_;
  uint32_t count_ = 0;
  uint32_t last_ = 0;
};

}  // namespace rdfdb::rdf::codec

#endif  // RDFDB_RDF_CODEC_H_
