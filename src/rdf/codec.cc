#include "rdf/codec.h"

#include <cstring>

namespace rdfdb::rdf::codec {

std::vector<uint32_t> PostingList::ToVector() const {
  std::vector<uint32_t> out;
  out.reserve(count_);
  for (Cursor cur(*this); !cur.AtEnd(); cur.Next()) {
    out.push_back(cur.Value());
  }
  return out;
}

std::string FrontCodedPack::Get(uint32_t idx) const {
  std::string out;
  AppendTo(idx, &out);
  return out;
}

void FrontCodedPack::AppendTo(uint32_t idx, std::string* out) const {
  const uint32_t block = idx / kBlockSize;
  const uint32_t within = idx % kBlockSize;
  const uint8_t* p = bytes_.data() + block_offsets_[block];
  uint32_t head_len;
  p = GetVarint32(p, &head_len);
  const char* head = reinterpret_cast<const char*>(p);
  p += head_len;
  // Member i is member i-1's first `shared` bytes plus its own suffix.
  // Walk the block's headers up to the target, then write the target
  // in place on the tail of *out, back to front: its suffix, the part
  // of each earlier suffix that survives into it, and finally the head.
  // Every byte is written once and no scratch string is built.
  struct Piece {
    uint32_t shared;
    uint32_t len;
    const char* bytes;
  };
  Piece pieces[kBlockSize] = {};
  for (uint32_t i = 1; i <= within; ++i) {
    p = GetVarint32(p, &pieces[i].shared);
    p = GetVarint32(p, &pieces[i].len);
    pieces[i].bytes = reinterpret_cast<const char*>(p);
    p += pieces[i].len;
  }
  size_t need = within == 0 ? head_len
                            : size_t{pieces[within].shared} + pieces[within].len;
  const size_t base = out->size();
  out->resize(base + need);
  char* dst = out->data() + base;
  for (uint32_t i = within; i >= 1; --i) {
    // Invariant: dst[0, need) is still to be written and equals the
    // first `need` bytes of member i.
    if (pieces[i].shared < need) {
      std::memcpy(dst + pieces[i].shared, pieces[i].bytes,
                  need - pieces[i].shared);
      need = pieces[i].shared;
    }
  }
  std::memcpy(dst, head, need);
}

uint32_t FrontCodedPackBuilder::Add(std::string_view s) {
  const uint32_t idx = pack_.count_;
  if ((idx % FrontCodedPack::kBlockSize) == 0) {
    pack_.block_offsets_.push_back(static_cast<uint32_t>(pack_.bytes_.size()));
    PutVarint32(&pack_.bytes_, static_cast<uint32_t>(s.size()));
    pack_.bytes_.insert(pack_.bytes_.end(), s.begin(), s.end());
  } else {
    size_t shared = 0;
    const size_t limit = std::min(prev_.size(), s.size());
    while (shared < limit && prev_[shared] == s[shared]) ++shared;
    PutVarint32(&pack_.bytes_, static_cast<uint32_t>(shared));
    PutVarint32(&pack_.bytes_, static_cast<uint32_t>(s.size() - shared));
    pack_.bytes_.insert(pack_.bytes_.end(), s.begin() + shared, s.end());
  }
  prev_.assign(s.data(), s.size());
  ++pack_.count_;
  return idx;
}

FrontCodedPack FrontCodedPackBuilder::Build() {
  pack_.bytes_.shrink_to_fit();
  pack_.block_offsets_.shrink_to_fit();
  FrontCodedPack out = std::move(pack_);
  pack_ = FrontCodedPack();
  prev_.clear();
  return out;
}

}  // namespace rdfdb::rdf::codec
