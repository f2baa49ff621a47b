#include "rdf/codec.h"

namespace rdfdb::rdf::codec {

std::vector<uint32_t> PostingList::ToVector() const {
  std::vector<uint32_t> out;
  out.reserve(count_);
  for (Cursor cur(*this); !cur.AtEnd(); cur.Next()) {
    out.push_back(cur.Value());
  }
  return out;
}

}  // namespace rdfdb::rdf::codec
