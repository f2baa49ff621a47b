// LinkStore: binding over the central-schema rdf_link$ table.
//
// "The rdf_link$ table is dual-purposed: it stores the triples for all the
// RDF graphs in the database, and it defines the logical network seen by
// NDM." This class maintains the table rows, the companion rdf_node$
// rows (one per VALUE_ID that is a live link's endpoint), and the
// id-native quad cache, and it is itself that logical network: NDM
// analysis reads nodes from rdf_node$ and links from the cache's posting
// lists. The table is partitioned by MODEL_ID, as in the paper. The
// cache's layout (posting lists, the (s, p) map, tombstones) is known
// here alone: every pattern match over it goes through LinkStore::Scan.

#ifndef RDFDB_RDF_LINK_STORE_H_
#define RDFDB_RDF_LINK_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "ndm/network.h"
#include "rdf/codec.h"
#include "rdf/value_store.h"
#include "storage/database.h"

namespace rdfdb::rdf {

/// LINK_ID type (rdf_link$ primary key; also the triple id rdf_t_id).
using LinkId = int64_t;

/// Statement context: directly asserted fact vs. implied (entered only as
/// the base of a reification).
enum class TripleContext : char {
  kDirect = 'D',
  kImplied = 'I',
};

/// Materialized rdf_link$ row.
struct LinkRow {
  LinkId link_id = 0;
  ValueId start_node_id = 0;       ///< subject VALUE_ID
  ValueId p_value_id = 0;          ///< predicate VALUE_ID
  ValueId end_node_id = 0;         ///< object VALUE_ID
  ValueId canon_end_node_id = 0;   ///< canonical-object VALUE_ID
  std::string link_type;           ///< STANDARD / RDF_TYPE / RDF_MEMBER / RDF_*
  int64_t cost = 1;                ///< app-table reference count
  TripleContext context = TripleContext::kDirect;
  bool reif_link = false;          ///< any position references a reified triple
  int64_t model_id = 0;
};

/// Outcome of an insert: the (possibly pre-existing) link and whether a
/// new row was created.
struct LinkInsertOutcome {
  LinkRow row;
  bool inserted = false;
};

/// One statement of a batched link insert (already-interned VALUE_IDs).
struct LinkBatchEntry {
  ValueId s = 0;
  ValueId p = 0;
  ValueId o = 0;
  ValueId canon_o = 0;
  std::string link_type;
  TripleContext context = TripleContext::kDirect;
  bool reif_link = false;
};

/// Classify a predicate URI into the paper's LINK_TYPE codes.
std::string ClassifyPredicate(const std::string& predicate_uri);

/// Triple storage over rdf_link$ + rdf_node$, and the NDM network they
/// define.
class LinkStore : public ndm::Network {
 public:
  /// Creates (or reattaches to) MDSYS.RDF_LINK$ / MDSYS.RDF_NODE$ inside
  /// `db`. `values` resolves a node's canonical VALUE_ID for in-link
  /// lookups and must outlive the store.
  LinkStore(storage::Database* db, const ValueStore* values);

  /// Insert a triple into a model. If the identical (s, p, o) triple
  /// already exists in the model, no new row is created: COST is
  /// incremented ("the triple is only stored once ... but may exist in
  /// several rows in a user's application table"), an Implied row is
  /// upgraded to Direct when `context` is Direct, and REIF_LINK is OR-ed.
  Result<LinkInsertOutcome> Insert(int64_t model_id, ValueId s, ValueId p,
                                   ValueId o, ValueId canon_o,
                                   const std::string& link_type,
                                   TripleContext context, bool reif_link);

  /// Batched Insert for the bulk loader: semantically identical to
  /// calling Insert() once per entry in order (same LINK_ID assignment,
  /// same final COST / CONTEXT-upgrade / REIF_LINK state), but duplicate
  /// detection probes the SPO index once per distinct (s, p, o), repeated
  /// statements fold into a single UPDATE, and new rows go through the
  /// table's staged append path with a pre-reserved LINK_ID range.
  /// Outcome i reports whether entry i was the batch's first sighting of
  /// a brand-new triple.
  Result<std::vector<LinkInsertOutcome>> InsertBatch(
      int64_t model_id, const std::vector<LinkBatchEntry>& entries);

  /// Exact lookup of a triple in a model.
  std::optional<LinkRow> Find(int64_t model_id, ValueId s, ValueId p,
                              ValueId o) const;

  /// Fetch by LINK_ID.
  Result<LinkRow> Get(LinkId link_id) const;

  /// Pattern match within one model. Unbound positions are nullopt. The
  /// object position matches on CANON_END_NODE_ID (query semantics), so
  /// callers pass the canonical object's VALUE_ID.
  std::vector<LinkRow> Match(int64_t model_id, std::optional<ValueId> s,
                             std::optional<ValueId> p,
                             std::optional<ValueId> canon_o) const;

  /// Streaming variant of Match: visits each hit without materializing a
  /// vector; return false from `fn` to stop early. Candidates come from
  /// Scan over the model's quad cache; each is fetched as its full
  /// rdf_link$ row.
  void MatchEach(int64_t model_id, std::optional<ValueId> s,
                 std::optional<ValueId> p, std::optional<ValueId> canon_o,
                 const std::function<bool(const LinkRow&)>& fn) const;

  /// Rebuild the id-native quad cache from the rdf_link$ rows. The
  /// cache is maintained in lockstep by Insert/InsertBatch/Delete/
  /// DeleteModel; this is for callers that populate the table behind
  /// the store's back (snapshot restore copies raw rows to preserve
  /// LINK_IDs). The constructor runs it for reattach.
  void RebuildCache();

  /// Drop one application-table reference: decrements COST and removes
  /// the row (plus now-orphaned rdf_node$ rows) when the count reaches
  /// zero. `force` removes regardless of COST.
  Status Delete(int64_t model_id, ValueId s, ValueId p, ValueId o,
                bool force = false);

  /// Remove every triple of a model (model drop).
  Status DeleteModel(int64_t model_id);

  /// Number of triples in one model.
  size_t TripleCount(int64_t model_id) const;

  /// Number of triples across all models.
  size_t TotalTripleCount() const { return links_->row_count(); }

  /// Visit every link row of a model.
  void ScanModel(int64_t model_id,
                 const std::function<bool(const LinkRow&)>& fn) const;

  /// Live quads across every model's cache; equals TotalTripleCount()
  /// unless the cache and rdf_link$ disagree.
  size_t CachedTripleCount() const;

  // ---- ndm::Network: nodes are rdf_node$ rows, links are live quads
  // (cost 1, label = predicate VALUE_ID). Models are visited in
  // ascending MODEL_ID, each model's links in quad order. -------------

  size_t node_count() const override { return nodes_->row_count(); }
  size_t link_count() const override { return links_->row_count(); }
  bool HasNode(ndm::NodeId node) const override;
  void ForEachNode(const std::function<void(ndm::NodeId)>& fn) const override;
  void ForEachLink(ndm::NodeId node, ndm::Direction direction,
                   const std::function<void(const ndm::Link&)>& fn)
      const override;

  /// Underlying table (Experiment I's direct-join query reads it).
  const storage::Table& table() const { return *links_; }

  /// Attach the owning store's metric handles. Null (the default, and
  /// the state of standalone test instances) disables instrumentation.
  void set_metrics(obs::StoreMetrics* metrics) { metrics_ = metrics; }

  /// One rdf_link$ row's VALUE_ID columns, as cached for query scans.
  struct IdQuad {
    ValueId s, p, o, canon_o;
    LinkId link_id;
  };

  /// Flat open-addressing (subject, predicate) → rows map with the
  /// single-row answer inlined in the slot: the overwhelmingly common
  /// probe shape in chain and star joins (one matching row) is answered
  /// from one slot load, with no posting-list or quad-array
  /// indirection. Multi-row groups spill to an overflow posting list in
  /// creation order. Deletes tombstone the slot; rehashing drops
  /// tombstones.
  class SpMap {
   public:
    struct Hit {
      const uint32_t* list = nullptr;  ///< row indexes when n > 1
      uint32_t n = 0;                  ///< match count (0 = miss)
      uint32_t head = 0;               ///< single row's quad index
      ValueId o = 0;                   ///< single row's object
      ValueId canon_o = 0;             ///< single row's canonical object
    };

    Hit Probe(ValueId s, ValueId p) const {
      if (slots_.empty()) return Hit{};
      for (size_t i = IndexFor(s, p);; i = (i + 1) & mask_) {
        const Slot& slot = slots_[i];
        if (slot.s == kEmpty) return Hit{};
        if (slot.s != s || slot.p != p) continue;  // incl. tombstones
        Hit hit;
        if (slot.overflow < 0) {
          hit.n = 1;
          hit.head = slot.head;
          hit.o = slot.o;
          hit.canon_o = slot.canon_o;
        } else {
          const std::vector<uint32_t>& rows = overflow_[slot.overflow];
          hit.list = rows.data();
          hit.n = static_cast<uint32_t>(rows.size());
        }
        return hit;
      }
    }

    void Insert(ValueId s, ValueId p, uint32_t idx, ValueId o,
                ValueId canon_o);

    /// Approximate heap bytes: slot array + overflow posting lists.
    size_t ApproxBytes() const {
      size_t n = slots_.capacity() * sizeof(Slot) +
                 overflow_.capacity() * sizeof(std::vector<uint32_t>) +
                 free_overflow_.capacity() * sizeof(int32_t);
      for (const std::vector<uint32_t>& rows : overflow_) {
        n += rows.capacity() * sizeof(uint32_t);
      }
      return n;
    }
    /// Remove row `idx`; `quads` re-derives the inline payload when an
    /// overflow list collapses back to a single row.
    void Erase(ValueId s, ValueId p, uint32_t idx,
               const std::vector<IdQuad>& quads);

   private:
    static constexpr ValueId kEmpty = -1;
    static constexpr ValueId kGone = -2;  ///< tombstone
    struct Slot {
      ValueId s = kEmpty;
      ValueId p = 0;
      uint32_t head = 0;
      int32_t overflow = -1;
      ValueId o = 0;
      ValueId canon_o = 0;
    };

    size_t IndexFor(ValueId s, ValueId p) const {
      uint64_t h = HashCombine(static_cast<uint64_t>(s),
                               static_cast<uint64_t>(p));
      // Full-avalanche finalizer: linear probing clusters badly on
      // HashCombine alone when ids are near-sequential.
      h ^= h >> 33;
      h *= 0xff51afd7ed558ccdULL;
      h ^= h >> 33;
      return static_cast<size_t>(h) & mask_;
    }
    Slot& SlotFor(ValueId s, ValueId p);
    void Grow();

    std::vector<Slot> slots_;
    std::vector<std::vector<uint32_t>> overflow_;
    std::vector<int32_t> free_overflow_;
    size_t used_ = 0;  ///< full + tombstoned slots
    size_t mask_ = 0;
  };

  /// Posting map: one delta+varint compressed list of quad indexes per
  /// key. Lists are append-only ascending; deletions tombstone the
  /// referenced quad instead of editing the list (see DESIGN.md §14).
  using PostingMap = std::unordered_map<ValueId, codec::PostingList>;

  /// Per-model id-native postings backing Scan: quads in creation
  /// order plus compressed posting lists by subject, canonical object,
  /// and predicate (quad indexes, delta+varint with a skip table for
  /// galloping), an exact (subject, predicate) hash, and a sorted
  /// LINK_ID → quad index vector. Scans decode cursors instead of
  /// walking flat int arrays.
  /// Maintained by every mutation path in lockstep with the table (and
  /// rebuilt from it on reattach), so reads need no locking beyond
  /// what the table itself requires.
  ///
  /// Deletes tombstone: the quad's ids are overwritten with -1 (no
  /// query carries a negative id, so residual filters skip dead quads
  /// for free) and stale posting entries are tolerated by every scan.
  /// Compact() renumbers once dead quads outnumber live ones.
  ///
  /// Instances are held by shared_ptr and copied-on-write: the store
  /// clones a model's cache before the first mutation that follows a
  /// ShareCaches() call, so published snapshots keep reading the old
  /// object while the store mutates the clone.
  struct ModelIdCache {
    std::vector<IdQuad> quads;       ///< creation order; dead = all -1
    std::vector<uint32_t> row_ids;   ///< parallel: rdf_link$ RowId per quad
    PostingMap by_s;
    SpMap by_sp;
    PostingMap by_canon;
    PostingMap by_p;
    /// LINK_ID → quad index, sorted by LINK_ID (link ids ascend in
    /// creation order). Tombstoned entries keep the key with
    /// kDeadIdx as the value so the vector stays sorted.
    std::vector<std::pair<LinkId, uint32_t>> by_link;
    size_t implied_count = 0;  ///< rows with CONTEXT == Implied
    size_t dead_count = 0;     ///< tombstoned quads awaiting Compact()
    /// Heap bytes of the three posting maps' list payloads (vector
    /// capacities), maintained incrementally by Append/Compact so
    /// ApproxBytes stays cheap on the publish path.
    size_t posting_heap_bytes = 0;

    static constexpr uint32_t kDeadIdx = 0xffffffffu;
    static bool Dead(const IdQuad& q) { return q.link_id < 0; }
    size_t live_count() const { return quads.size() - dead_count; }

    /// Append a new quad (all posting structures updated).
    void Append(const IdQuad& quad, uint32_t row_id, bool implied);
    /// Tombstone quad `idx` (caller resolved it via IndexOfLink).
    void Tombstone(uint32_t idx, bool implied);
    /// Quad index for LINK_ID, or -1 when absent/tombstoned.
    int64_t IndexOfLink(LinkId link_id) const;
    /// Renumber live quads and rebuild every posting structure.
    void Compact();
    bool ShouldCompact() const {
      return dead_count > 4096 && dead_count * 2 > quads.size();
    }
    /// Re-derive posting_heap_bytes exactly (used after a COW clone,
    /// whose copied vectors have fresh capacities).
    void RecomputePostingBytes();

    /// Approximate heap bytes owned by this cache object, from real
    /// container geometry: vector capacities, hash bucket arrays, and
    /// per-node allocator overhead — no flat per-entry constants.
    /// Drives the quad-cache memory gauge and the exclusive-footprint
    /// estimate stamped onto retired StoreVersions. O(1)-ish — the
    /// publish path calls it once per mutation.
    size_t ApproxBytes() const {
      return sizeof(ModelIdCache) + quads.capacity() * sizeof(IdQuad) +
             row_ids.capacity() * sizeof(uint32_t) + by_sp.ApproxBytes() +
             by_link.capacity() * sizeof(std::pair<LinkId, uint32_t>) +
             posting_heap_bytes + MapNodeBytes(by_s) +
             MapNodeBytes(by_canon) + MapNodeBytes(by_p);
    }

    /// Exact (s, p, lexical-object) probe — the identity Insert/Delete
    /// and IS_TRIPLE use. Returns the quad index or -1.
    int64_t FindSpoIdx(ValueId s, ValueId p, ValueId o) const {
      SpMap::Hit hit = by_sp.Probe(s, p);
      if (hit.n == 0) return -1;
      if (hit.n == 1) return hit.o == o ? static_cast<int64_t>(hit.head) : -1;
      for (uint32_t i = 0; i < hit.n; ++i) {
        if (quads[hit.list[i]].o == o) {
          return static_cast<int64_t>(hit.list[i]);
        }
      }
      return -1;
    }
    const IdQuad* FindSpo(ValueId s, ValueId p, ValueId o) const {
      int64_t idx = FindSpoIdx(s, p, o);
      return idx < 0 ? nullptr : &quads[static_cast<uint32_t>(idx)];
    }

   private:
    /// Hash-map node accounting: bucket array + one node per key
    /// (payload + ~two pointers of allocator overhead). List payload
    /// bytes live in posting_heap_bytes.
    static size_t MapNodeBytes(const PostingMap& postings) {
      return postings.bucket_count() * sizeof(void*) +
             postings.size() *
                 (sizeof(std::pair<const ValueId, codec::PostingList>) +
                  2 * sizeof(void*));
    }
    /// Append `idx` to postings[key], keeping posting_heap_bytes exact.
    void PostingAppend(PostingMap* postings, ValueId key, uint32_t idx);
  };

  /// Shared read-only handles on every model's current cache — the raw
  /// material of a published snapshot. Cheap (one shared_ptr copy per
  /// model); subsequent store mutations copy-on-write and leave the
  /// returned objects untouched.
  std::unordered_map<int64_t, std::shared_ptr<const ModelIdCache>>
  ShareCaches() const {
    std::unordered_map<int64_t, std::shared_ptr<const ModelIdCache>> out;
    out.reserve(id_cache_.size());
    for (const auto& [model_id, cache] : id_cache_) {
      out.emplace(model_id, cache);
    }
    return out;
  }

  /// Minimum driven-list size before Scan intersects two posting lists
  /// by galloping instead of residual-filtering the shorter one.
  static constexpr uint32_t kGallopMinDriven = 4096;

  /// The access-path kernel. Every id-level match over a model's quad
  /// cache runs through it (MatchEach, ModelSource::Match, the
  /// executor's leaf steps, snapshot statistics), so the posting format,
  /// the SpMap and the tombstone convention stay inside this module.
  /// Index choice for the bound positions (the object is canonical):
  ///  - s and p: the SpMap probe; a single-row group is answered from
  ///    the slot with no quad-array load;
  ///  - s and o, or p and o: the shorter posting list with residual
  ///    checks, or a galloping intersection when the driven list is long
  ///    and the other is sparse relative to it;
  ///  - one position: its posting list; none: every live quad.
  /// `fn(idx, s, p, o, canon_o)` sees each live match (`idx` indexes
  /// cache.quads) and returns false to stop. The rows visited are added
  /// to `scans` (nullable) once per call.
  template <typename Fn>
  static void Scan(const ModelIdCache& cache, std::optional<ValueId> s,
                   std::optional<ValueId> p, std::optional<ValueId> canon_o,
                   obs::Counter* scans, Fn&& fn);

  /// Current quad cache of `model_id`, or null when the model has no
  /// rows. Invalidated by any mutation of the store, so hold it only
  /// for the duration of a read.
  const ModelIdCache* CacheFor(int64_t model_id) const {
    auto it = id_cache_.find(model_id);
    return it == id_cache_.end() ? nullptr : it->second.get();
  }

  /// The quad carrying `link_id` in whichever model of `caches` (a
  /// model id → cache map) holds it, or null. A LINK_ID alone does not
  /// name its model; models are few and each probe is O(log n).
  template <typename CacheMap>
  static const IdQuad* FindLinkIn(const CacheMap& caches, LinkId link_id) {
    for (const auto& [model_id, cache] : caches) {
      int64_t idx = cache->IndexOfLink(link_id);
      if (idx >= 0) return &cache->quads[static_cast<uint32_t>(idx)];
    }
    return nullptr;
  }
  const IdQuad* FindLink(LinkId link_id) const {
    return FindLinkIn(id_cache_, link_id);
  }

  /// Approximate heap bytes across every model's current quad cache.
  size_t CacheBytes() const {
    size_t n = 0;
    for (const auto& [model_id, cache] : id_cache_) {
      (void)model_id;
      n += cache->ApproxBytes();
    }
    return n;
  }

  /// Approximate heap bytes of the rdf_link$ + rdf_node$ rows and their
  /// storage-layer indexes.
  size_t TableBytes() const {
    return links_->ApproxTotalBytes() + nodes_->ApproxTotalBytes();
  }

 private:
  /// Mutable handle on one model's cache, cloning it first when a
  /// published snapshot still shares the current object (copy-on-write;
  /// only the serialized writer manipulates these shared_ptrs).
  ModelIdCache& MutableCache(int64_t model_id);

  void CacheInsert(int64_t model_id, const IdQuad& quad,
                   storage::RowId row_id, bool implied);
  void CacheErase(int64_t model_id, LinkId link_id, bool implied);
  /// An existing row's CONTEXT flipped Implied → Direct.
  void CacheContextUpgrade(int64_t model_id);

  LinkRow RowToLink(const storage::Row& row) const;
  storage::Row LinkToRow(const LinkRow& link) const;

  /// VALUE_ID under which quads whose object is `node` are posted in
  /// by_canon (differs from `node` only for non-canonical typed
  /// literals).
  ValueId CanonicalNodeId(ValueId node) const;
  /// Visit live quads with s == node (out) and then with o == node
  /// (in, found under `canon`) until `fn` returns false; false if it
  /// did.
  bool VisitQuads(ValueId node, ValueId canon, ndm::Direction direction,
                  const std::function<bool(const IdQuad&)>& fn) const;
  void EnsureNode(ValueId node);
  /// "When a triple is deleted from the database, the corresponding link
  /// is removed. However, the nodes attached to this link are not removed
  /// if there are other links connected to them."
  void DropOrphanedEndpoints(const LinkRow& link);
  void DropNodeIfOrphaned(ValueId node, ValueId canon);

  storage::Database* db_;
  const ValueStore* values_;
  storage::Table* links_;   // MDSYS.RDF_LINK$
  storage::Table* nodes_;   // MDSYS.RDF_NODE$
  const storage::Index* node_idx_;  // rdf_node_id_idx (unique NODE_ID)
  storage::Sequence* link_seq_;
  /// Ordered by MODEL_ID so network traversals are deterministic.
  std::map<int64_t, std::shared_ptr<ModelIdCache>> id_cache_;
  obs::StoreMetrics* metrics_ = nullptr;
};

template <typename Fn>
void LinkStore::Scan(const ModelIdCache& cache, std::optional<ValueId> s,
                     std::optional<ValueId> p, std::optional<ValueId> canon_o,
                     obs::Counter* scans, Fn&& fn) {
  const IdQuad* quads = cache.quads.data();
  uint32_t visited = 0;
  // Residual compares double as the tombstone guard: a dead quad's ids
  // are all -1 and no query carries a negative id.
  auto visit = [&](uint32_t idx) {
    ++visited;
    const IdQuad& q = quads[idx];
    if (s.has_value() && q.s != *s) return true;
    if (p.has_value() && q.p != *p) return true;
    if (canon_o.has_value() && q.canon_o != *canon_o) return true;
    return fn(idx, q.s, q.p, q.o, q.canon_o);
  };
  auto find = [](const PostingMap& postings,
                 ValueId key) -> const codec::PostingList* {
    auto it = postings.find(key);
    return it == postings.end() ? nullptr : &it->second;
  };
  // Two bound lists. Posting values are quad indexes, so membership in
  // the longer list equals a residual compare on the quad: filtering
  // the shorter list costs one random quad load per candidate.
  // Galloping the longer list pays a block decode per candidate but
  // skips the load on misses, so it wins only when the driven list is
  // big enough for those loads to dominate AND the longer list is
  // sparse relative to it (a dense one means nearly every candidate
  // hits and the quad gets loaded anyway).
  auto pair_scan = [&](const codec::PostingList* x,
                       const codec::PostingList* y) {
    if (x == nullptr || y == nullptr) return;
    const codec::PostingList& shorter = x->size() <= y->size() ? *x : *y;
    const codec::PostingList& longer = x->size() <= y->size() ? *y : *x;
    if (shorter.size() <= kGallopMinDriven ||
        longer.size() / 8 <= shorter.size()) {
      shorter.ForEach(visit);
      return;
    }
    codec::PostingList::Cursor driven(shorter);
    codec::PostingList::Cursor skipped(longer);
    while (!driven.AtEnd() && skipped.SkipTo(driven.Value())) {
      if (skipped.Value() == driven.Value() && !visit(driven.Value())) break;
      driven.Next();
    }
  };

  if (s.has_value() && p.has_value()) {
    SpMap::Hit hit = cache.by_sp.Probe(*s, *p);
    if (hit.n == 1) {
      visited = 1;
      if (!canon_o.has_value() || hit.canon_o == *canon_o) {
        fn(hit.head, *s, *p, hit.o, hit.canon_o);
      }
    } else {
      for (uint32_t i = 0; i < hit.n; ++i) {
        if (!visit(hit.list[i])) break;
      }
    }
  } else if (s.has_value() && canon_o.has_value()) {
    pair_scan(find(cache.by_s, *s), find(cache.by_canon, *canon_o));
  } else if (p.has_value() && canon_o.has_value()) {
    pair_scan(find(cache.by_p, *p), find(cache.by_canon, *canon_o));
  } else if (s.has_value() || p.has_value() || canon_o.has_value()) {
    const codec::PostingList* list =
        s.has_value()         ? find(cache.by_s, *s)
        : canon_o.has_value() ? find(cache.by_canon, *canon_o)
                              : find(cache.by_p, *p);
    if (list != nullptr) list->ForEach(visit);
  } else {
    for (uint32_t idx = 0; idx < cache.quads.size(); ++idx) {
      ++visited;
      const IdQuad& q = quads[idx];
      if (!ModelIdCache::Dead(q) && !fn(idx, q.s, q.p, q.o, q.canon_o)) break;
    }
  }
  if (scans != nullptr && visited > 0) scans->Inc(visited);
}

}  // namespace rdfdb::rdf

#endif  // RDFDB_RDF_LINK_STORE_H_
