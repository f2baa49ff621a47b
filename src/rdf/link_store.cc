#include "rdf/link_store.h"

#include <algorithm>
#include <unordered_map>

#include "common/hash.h"
#include "common/string_util.h"
#include "obs/store_metrics.h"
#include "rdf/canonical.h"
#include "rdf/term.h"
#include "rdf/vocab.h"

namespace rdfdb::rdf {

namespace {

using storage::ColumnDef;
using storage::IndexKind;
using storage::KeyExtractor;
using storage::Row;
using storage::Schema;
using storage::Value;
using storage::ValueKey;
using storage::ValueType;

// rdf_link$ column positions.
constexpr size_t kLinkId = 0;
constexpr size_t kStartNodeId = 1;
constexpr size_t kPValueId = 2;
constexpr size_t kEndNodeId = 3;
constexpr size_t kCanonEndNodeId = 4;
constexpr size_t kLinkType = 5;
constexpr size_t kCost = 6;
constexpr size_t kContext = 7;
constexpr size_t kReifLink = 8;
constexpr size_t kModelId = 9;

// rdf_node$ column positions.
constexpr size_t kNodeId = 0;
constexpr size_t kNodeActive = 1;

Schema LinkSchema() {
  return Schema({
      ColumnDef{"LINK_ID", ValueType::kInt64, /*nullable=*/false},
      ColumnDef{"START_NODE_ID", ValueType::kInt64, /*nullable=*/false},
      ColumnDef{"P_VALUE_ID", ValueType::kInt64, /*nullable=*/false},
      ColumnDef{"END_NODE_ID", ValueType::kInt64, /*nullable=*/false},
      ColumnDef{"CANON_END_NODE_ID", ValueType::kInt64, /*nullable=*/false},
      ColumnDef{"LINK_TYPE", ValueType::kString, /*nullable=*/false},
      ColumnDef{"COST", ValueType::kInt64, /*nullable=*/false},
      ColumnDef{"CONTEXT", ValueType::kString, /*nullable=*/false},
      ColumnDef{"REIF_LINK", ValueType::kString, /*nullable=*/false},
      ColumnDef{"MODEL_ID", ValueType::kInt64, /*nullable=*/false},
  });
}

Schema NodeSchema() {
  return Schema({
      ColumnDef{"NODE_ID", ValueType::kInt64, /*nullable=*/false},
      ColumnDef{"ACTIVE", ValueType::kString, /*nullable=*/false},
  });
}

}  // namespace

std::string ClassifyPredicate(const std::string& predicate_uri) {
  if (predicate_uri == kRdfType) return "RDF_TYPE";
  if (predicate_uri == kRdfLi ||
      IsContainerMembershipProperty(predicate_uri)) {
    return "RDF_MEMBER";
  }
  if (StartsWith(predicate_uri, kRdfNs)) return "RDF_*";
  return "STANDARD";
}

LinkStore::LinkStore(storage::Database* db, const ValueStore* values)
    : db_(db), values_(values) {
  links_ = db_->GetTable("MDSYS", "RDF_LINK$");
  if (links_ == nullptr) {
    links_ = *db_->CreateTable("MDSYS", "RDF_LINK$", LinkSchema());
    (void)links_->SetPartitionColumn(kModelId);
  }
  nodes_ = db_->GetTable("MDSYS", "RDF_NODE$");
  if (nodes_ == nullptr) {
    nodes_ = *db_->CreateTable("MDSYS", "RDF_NODE$", NodeSchema());
  }
  link_seq_ = db_->GetSequence("MDSYS", "RDF_LINK_SEQ");
  if (link_seq_ == nullptr) {
    link_seq_ = *db_->CreateSequence("MDSYS", "RDF_LINK_SEQ", 2000);
  }

  // No generic hash indexes on rdf_link$: every access path (SPO
  // identity probes, per-position pattern scans, LINK_ID fetches) is
  // served by the id-native quad cache, whose compressed posting
  // lists cost a fraction of ValueKey-keyed index entries. The cache
  // carries the table RowId per quad, so row-level reads stay point
  // lookups.

  if (nodes_->GetIndex("rdf_node_id_idx") == nullptr) {
    (void)nodes_->CreateIndex("rdf_node_id_idx", IndexKind::kHash,
                              KeyExtractor::Columns({kNodeId}),
                              /*unique=*/true);
  }
  node_idx_ = nodes_->GetIndex("rdf_node_id_idx");

  // Reattach: rebuild the id-native quad cache from existing rows.
  RebuildCache();
}

void LinkStore::RebuildCache() {
  id_cache_.clear();
  links_->Scan([&](storage::RowId row_id, const Row& row) {
    CacheInsert(row[kModelId].as_int64(),
                IdQuad{row[kStartNodeId].as_int64(),
                       row[kPValueId].as_int64(),
                       row[kEndNodeId].as_int64(),
                       row[kCanonEndNodeId].as_int64(),
                       row[kLinkId].as_int64()},
                row_id,
                /*implied=*/row[kContext].as_string()[0] ==
                    static_cast<char>(TripleContext::kImplied));
    return true;
  });
}

LinkStore::SpMap::Slot& LinkStore::SpMap::SlotFor(ValueId s, ValueId p) {
  size_t first_gone = SIZE_MAX;
  for (size_t i = IndexFor(s, p);; i = (i + 1) & mask_) {
    Slot& slot = slots_[i];
    if (slot.s == kEmpty) {
      return first_gone != SIZE_MAX ? slots_[first_gone] : slot;
    }
    if (slot.s == kGone) {
      if (first_gone == SIZE_MAX) first_gone = i;
      continue;
    }
    if (slot.s == s && slot.p == p) return slot;
  }
}

void LinkStore::SpMap::Grow() {
  std::vector<Slot> old = std::move(slots_);
  size_t live = 0;
  for (const Slot& slot : old) {
    if (slot.s >= 0) ++live;
  }
  size_t capacity = 64;
  while (capacity < 2 * (live + 8)) capacity <<= 1;
  slots_.assign(capacity, Slot{});
  mask_ = capacity - 1;
  used_ = live;
  for (const Slot& slot : old) {
    if (slot.s < 0) continue;
    size_t i = IndexFor(slot.s, slot.p);
    while (slots_[i].s != kEmpty) i = (i + 1) & mask_;
    slots_[i] = slot;
  }
}

void LinkStore::SpMap::Insert(ValueId s, ValueId p, uint32_t idx, ValueId o,
                              ValueId canon_o) {
  if (slots_.empty() || (used_ + 1) * 10 >= slots_.size() * 7) Grow();
  Slot& slot = SlotFor(s, p);
  if (slot.s < 0) {
    if (slot.s == kEmpty) ++used_;  // tombstone reuse keeps used_ flat
    slot.s = s;
    slot.p = p;
    slot.head = idx;
    slot.overflow = -1;
    slot.o = o;
    slot.canon_o = canon_o;
    return;
  }
  if (slot.overflow < 0) {
    int32_t ref;
    if (!free_overflow_.empty()) {
      ref = free_overflow_.back();
      free_overflow_.pop_back();
      overflow_[ref] = {slot.head, idx};
    } else {
      ref = static_cast<int32_t>(overflow_.size());
      overflow_.push_back({slot.head, idx});
    }
    slot.overflow = ref;
  } else {
    overflow_[slot.overflow].push_back(idx);
  }
}

void LinkStore::SpMap::Erase(ValueId s, ValueId p, uint32_t idx,
                             const std::vector<IdQuad>& quads) {
  for (size_t i = IndexFor(s, p);; i = (i + 1) & mask_) {
    Slot& slot = slots_[i];
    if (slot.s == kEmpty) return;
    if (slot.s != s || slot.p != p) continue;
    if (slot.overflow < 0) {
      slot.s = kGone;
      return;
    }
    std::vector<uint32_t>& rows = overflow_[slot.overflow];
    rows.erase(std::find(rows.begin(), rows.end(), idx));
    if (rows.size() == 1) {
      const IdQuad& q = quads[rows.front()];
      slot.head = rows.front();
      slot.o = q.o;
      slot.canon_o = q.canon_o;
      free_overflow_.push_back(slot.overflow);
      rows.clear();
      slot.overflow = -1;
    }
    return;
  }
}

void LinkStore::ModelIdCache::PostingAppend(PostingMap* postings, ValueId key,
                                            uint32_t idx) {
  codec::PostingList& list = (*postings)[key];
  posting_heap_bytes -= list.ApproxBytes();
  list.Append(idx);
  posting_heap_bytes += list.ApproxBytes();
}

void LinkStore::ModelIdCache::Append(const IdQuad& quad, uint32_t row_id,
                                     bool implied) {
  const uint32_t idx = static_cast<uint32_t>(quads.size());
  quads.push_back(quad);
  row_ids.push_back(row_id);
  PostingAppend(&by_s, quad.s, idx);
  by_sp.Insert(quad.s, quad.p, idx, quad.o, quad.canon_o);
  PostingAppend(&by_canon, quad.canon_o, idx);
  PostingAppend(&by_p, quad.p, idx);
  // Link ids come off an ascending sequence, so creation order is id
  // order and by_link stays sorted with a plain append. A snapshot
  // restore replays rows in id order too; tolerate stragglers anyway.
  if (by_link.empty() || by_link.back().first < quad.link_id) {
    by_link.emplace_back(quad.link_id, idx);
  } else {
    auto it = std::upper_bound(
        by_link.begin(), by_link.end(), quad.link_id,
        [](LinkId id, const auto& e) { return id < e.first; });
    by_link.insert(it, {quad.link_id, idx});
  }
  if (implied) implied_count += 1;
}

int64_t LinkStore::ModelIdCache::IndexOfLink(LinkId link_id) const {
  auto it = std::lower_bound(
      by_link.begin(), by_link.end(), link_id,
      [](const auto& e, LinkId id) { return e.first < id; });
  if (it == by_link.end() || it->first != link_id || it->second == kDeadIdx) {
    return -1;
  }
  return static_cast<int64_t>(it->second);
}

void LinkStore::ModelIdCache::Tombstone(uint32_t idx, bool implied) {
  const IdQuad& q = quads[idx];
  // SpMap entries are exact (Erase edits the overflow list in place),
  // so remove before the quad's fields are wiped — the collapse path
  // reads the surviving sibling's quad.
  by_sp.Erase(q.s, q.p, idx, quads);
  auto it = std::lower_bound(
      by_link.begin(), by_link.end(), q.link_id,
      [](const auto& e, LinkId id) { return e.first < id; });
  if (it != by_link.end() && it->first == q.link_id) it->second = kDeadIdx;
  // Stale posting entries stay behind; a dead quad's -1 ids fail every
  // residual compare, and unfiltered scans check Dead() explicitly.
  quads[idx] = IdQuad{-1, -1, -1, -1, -1};
  dead_count += 1;
  if (implied && implied_count > 0) implied_count -= 1;
}

void LinkStore::ModelIdCache::Compact() {
  std::vector<IdQuad> old_quads = std::move(quads);
  std::vector<uint32_t> old_rows = std::move(row_ids);
  quads.clear();
  row_ids.clear();
  quads.reserve(old_quads.size() - dead_count);
  row_ids.reserve(old_quads.size() - dead_count);
  by_s.clear();
  by_canon.clear();
  by_p.clear();
  by_link.clear();
  by_sp = SpMap();
  posting_heap_bytes = 0;
  dead_count = 0;
  const size_t implied = implied_count;
  implied_count = 0;
  for (size_t i = 0; i < old_quads.size(); ++i) {
    if (Dead(old_quads[i])) continue;
    Append(old_quads[i], old_rows[i], /*implied=*/false);
  }
  implied_count = implied;  // tombstones already adjusted it
}

void LinkStore::ModelIdCache::RecomputePostingBytes() {
  posting_heap_bytes = 0;
  for (const auto* postings : {&by_s, &by_canon, &by_p}) {
    for (const auto& [key, list] : *postings) {
      (void)key;
      posting_heap_bytes += list.ApproxBytes();
    }
  }
}

LinkStore::ModelIdCache& LinkStore::MutableCache(int64_t model_id) {
  std::shared_ptr<ModelIdCache>& slot = id_cache_[model_id];
  if (slot == nullptr) {
    slot = std::make_shared<ModelIdCache>();
  } else if (slot.use_count() > 1) {
    // A published snapshot still reads the current object: mutate a
    // clone instead (only the serialized writer runs here, so the
    // use_count answer is stable). The clone's copied vectors are
    // capacity-tight, so the byte ledger must be re-derived.
    slot = std::make_shared<ModelIdCache>(*slot);
    slot->RecomputePostingBytes();
  }
  return *slot;
}

void LinkStore::CacheInsert(int64_t model_id, const IdQuad& quad,
                            storage::RowId row_id, bool implied) {
  MutableCache(model_id).Append(quad, static_cast<uint32_t>(row_id), implied);
}

void LinkStore::CacheContextUpgrade(int64_t model_id) {
  ModelIdCache& cache = MutableCache(model_id);
  if (cache.implied_count > 0) cache.implied_count -= 1;
}

void LinkStore::CacheErase(int64_t model_id, LinkId link_id, bool implied) {
  auto mit = id_cache_.find(model_id);
  if (mit == id_cache_.end()) return;
  if (mit->second.use_count() > 1) {
    mit->second = std::make_shared<ModelIdCache>(*mit->second);
    mit->second->RecomputePostingBytes();
  }
  ModelIdCache& cache = *mit->second;
  int64_t idx = cache.IndexOfLink(link_id);
  if (idx < 0) return;
  cache.Tombstone(static_cast<uint32_t>(idx), implied);
  if (cache.live_count() == 0) {
    id_cache_.erase(mit);
  } else if (cache.ShouldCompact()) {
    cache.Compact();
  }
}

LinkRow LinkStore::RowToLink(const Row& row) const {
  LinkRow link;
  link.link_id = row[kLinkId].as_int64();
  link.start_node_id = row[kStartNodeId].as_int64();
  link.p_value_id = row[kPValueId].as_int64();
  link.end_node_id = row[kEndNodeId].as_int64();
  link.canon_end_node_id = row[kCanonEndNodeId].as_int64();
  link.link_type = row[kLinkType].as_string();
  link.cost = row[kCost].as_int64();
  link.context = static_cast<TripleContext>(row[kContext].as_string()[0]);
  link.reif_link = row[kReifLink].as_string() == "Y";
  link.model_id = row[kModelId].as_int64();
  return link;
}

storage::Row LinkStore::LinkToRow(const LinkRow& link) const {
  Row row(10);
  row[kLinkId] = Value::Int64(link.link_id);
  row[kStartNodeId] = Value::Int64(link.start_node_id);
  row[kPValueId] = Value::Int64(link.p_value_id);
  row[kEndNodeId] = Value::Int64(link.end_node_id);
  row[kCanonEndNodeId] = Value::Int64(link.canon_end_node_id);
  row[kLinkType] = Value::String(link.link_type);
  row[kCost] = Value::Int64(link.cost);
  row[kContext] =
      Value::String(std::string(1, static_cast<char>(link.context)));
  row[kReifLink] = Value::String(link.reif_link ? "Y" : "N");
  row[kModelId] = Value::Int64(link.model_id);
  return row;
}

bool LinkStore::HasNode(ndm::NodeId node) const {
  bool found = false;
  node_idx_->FindEach(ValueKey{Value::Int64(node)}, [&](storage::RowId) {
    found = true;
    return false;
  });
  return found;
}

void LinkStore::ForEachNode(const std::function<void(ndm::NodeId)>& fn) const {
  nodes_->Scan([&](storage::RowId, const Row& row) {
    fn(row[kNodeId].as_int64());
    return true;
  });
}

ValueId LinkStore::CanonicalNodeId(ValueId node) const {
  // Only typed literals ("TL"/"TLL") have a canonical form other than
  // themselves.
  Result<std::string> type = values_->GetTypeCode(node);
  if (!type.ok() || (*type)[0] != 'T') return node;
  Result<Term> term = values_->GetTerm(node);
  if (!term.ok()) return node;
  return values_->Lookup(CanonicalForm(*term)).value_or(node);
}

bool LinkStore::VisitQuads(
    ValueId node, ValueId canon, ndm::Direction direction,
    const std::function<bool(const IdQuad&)>& fn) const {
  auto scan = [&](bool out) {
    const std::optional<ValueId> s = out ? std::optional(node) : std::nullopt;
    const std::optional<ValueId> o = out ? std::nullopt : std::optional(canon);
    for (const auto& [model_id, cache] : id_cache_) {
      (void)model_id;
      bool more = true;
      Scan(*cache, s, std::nullopt, o, /*scans=*/nullptr,
           [&](uint32_t idx, ValueId, ValueId, ValueId qo, ValueId) {
             // by_canon also holds the other lexical forms of `canon`.
             if (!out && qo != node) return true;
             return more = fn(cache->quads[idx]);
           });
      if (!more) return false;
    }
    return true;
  };
  if (direction != ndm::Direction::kIncoming && !scan(/*out=*/true)) {
    return false;
  }
  return direction == ndm::Direction::kOutgoing || scan(/*out=*/false);
}

void LinkStore::ForEachLink(
    ndm::NodeId node, ndm::Direction direction,
    const std::function<void(const ndm::Link&)>& fn) const {
  ValueId canon =
      direction == ndm::Direction::kOutgoing ? node : CanonicalNodeId(node);
  VisitQuads(node, canon, direction, [&](const IdQuad& q) {
    fn(ndm::Link{q.link_id, q.s, q.o, /*cost=*/1.0, /*label=*/q.p});
    return true;
  });
}

void LinkStore::EnsureNode(ValueId node) {
  if (HasNode(node)) return;
  Row row(2);
  row[kNodeId] = Value::Int64(node);
  row[kNodeActive] = Value::String("Y");
  (void)nodes_->Insert(std::move(row));
}

void LinkStore::DropOrphanedEndpoints(const LinkRow& link) {
  // Subjects are URIs or blank nodes, which are their own canonical form.
  DropNodeIfOrphaned(link.start_node_id, link.start_node_id);
  DropNodeIfOrphaned(link.end_node_id, link.canon_end_node_id);
}

void LinkStore::DropNodeIfOrphaned(ValueId node, ValueId canon) {
  bool linked = !VisitQuads(node, canon, ndm::Direction::kBoth,
                            [](const IdQuad&) { return false; });
  if (linked) return;
  std::vector<storage::RowId> rows =
      node_idx_->Find(ValueKey{Value::Int64(node)});
  if (!rows.empty()) (void)nodes_->Delete(rows.front());
}

Result<LinkInsertOutcome> LinkStore::Insert(int64_t model_id, ValueId s,
                                            ValueId p, ValueId o,
                                            ValueId canon_o,
                                            const std::string& link_type,
                                            TripleContext context,
                                            bool reif_link) {
  // Reuse path: "If the triple already exists in the specified graph, the
  // IDs for the previously inserted triple are returned".
  auto cached = id_cache_.find(model_id);
  int64_t existing_idx =
      cached == id_cache_.end() ? -1 : cached->second->FindSpoIdx(s, p, o);
  if (existing_idx >= 0) {
    storage::RowId rid =
        cached->second->row_ids[static_cast<uint32_t>(existing_idx)];
    LinkRow link = RowToLink(*links_->Get(rid));
    link.cost += 1;
    bool upgraded = false;
    if (context == TripleContext::kDirect &&
        link.context == TripleContext::kImplied) {
      // "If the triple is subsequently entered into the database as a
      // fact, the CONTEXT for this triple is changed from I to D."
      link.context = TripleContext::kDirect;
      upgraded = true;
    }
    link.reif_link = link.reif_link || reif_link;
    RDFDB_RETURN_NOT_OK(links_->Update(rid, LinkToRow(link)));
    if (upgraded) CacheContextUpgrade(model_id);
    if (metrics_ != nullptr) metrics_->link_duplicates->Inc();
    return LinkInsertOutcome{link, /*inserted=*/false};
  }

  LinkRow link;
  link.link_id = link_seq_->Next();
  link.start_node_id = s;
  link.p_value_id = p;
  link.end_node_id = o;
  link.canon_end_node_id = canon_o;
  link.link_type = link_type;
  link.cost = 1;
  link.context = context;
  link.reif_link = reif_link;
  link.model_id = model_id;

  auto insert = links_->Insert(LinkToRow(link));
  if (!insert.ok()) return insert.status();
  CacheInsert(model_id, IdQuad{s, p, o, canon_o, link.link_id}, *insert,
              context == TripleContext::kImplied);

  // "A new link is always created whenever a new triple is inserted";
  // nodes are reused.
  EnsureNode(s);
  EnsureNode(o);
  if (metrics_ != nullptr) metrics_->link_inserts->Inc();
  return LinkInsertOutcome{link, /*inserted=*/true};
}

namespace {

struct SpoKey {
  ValueId s, p, o;
  bool operator==(const SpoKey& other) const {
    return s == other.s && p == other.p && o == other.o;
  }
};

struct SpoKeyHash {
  size_t operator()(const SpoKey& k) const {
    uint64_t h = HashCombine(static_cast<uint64_t>(k.s),
                             static_cast<uint64_t>(k.p));
    return static_cast<size_t>(HashCombine(h, static_cast<uint64_t>(k.o)));
  }
};

}  // namespace

Result<std::vector<LinkInsertOutcome>> LinkStore::InsertBatch(
    int64_t model_id, const std::vector<LinkBatchEntry>& entries) {
  // Phase 1: group the batch by (s, p, o) — one SPO probe per distinct
  // triple — and fold duplicate occurrences into per-group aggregates
  // (COST += occurrences, Implied→Direct upgrade, REIF_LINK OR), exactly
  // the state N sequential Insert() calls would leave behind.
  struct Group {
    LinkRow row;
    std::optional<storage::RowId> existing_rid;
    size_t first_entry = 0;
    int64_t occurrences = 0;
    bool is_new = false;
    bool was_implied = false;  ///< existing row's CONTEXT before the fold
  };
  std::unordered_map<SpoKey, size_t, SpoKeyHash> group_of;
  group_of.reserve(entries.size());
  std::vector<Group> groups;
  groups.reserve(entries.size());
  std::vector<size_t> entry_group(entries.size());
  size_t new_groups = 0;

  // No cache mutation happens before phase 2, so one lookup serves the
  // whole probing pass.
  auto cached = id_cache_.find(model_id);
  const ModelIdCache* cache =
      cached == id_cache_.end() ? nullptr : cached->second.get();
  for (size_t i = 0; i < entries.size(); ++i) {
    const LinkBatchEntry& e = entries[i];
    auto [it, first_sighting] =
        group_of.try_emplace(SpoKey{e.s, e.p, e.o}, groups.size());
    if (first_sighting) {
      Group g;
      g.first_entry = i;
      int64_t idx = cache == nullptr ? -1 : cache->FindSpoIdx(e.s, e.p, e.o);
      if (idx >= 0) {
        storage::RowId rid = cache->row_ids[static_cast<uint32_t>(idx)];
        g.existing_rid = rid;
        g.row = RowToLink(*links_->Get(rid));
        g.was_implied = g.row.context == TripleContext::kImplied;
      } else {
        g.is_new = true;
        ++new_groups;
        g.row.start_node_id = e.s;
        g.row.p_value_id = e.p;
        g.row.end_node_id = e.o;
        g.row.canon_end_node_id = e.canon_o;
        g.row.link_type = e.link_type;
        g.row.cost = 0;  // set from occurrences below
        g.row.context = e.context;
        g.row.reif_link = e.reif_link;
        g.row.model_id = model_id;
      }
      groups.push_back(std::move(g));
    }
    Group& g = groups[it->second];
    ++g.occurrences;
    if (e.context == TripleContext::kDirect &&
        g.row.context == TripleContext::kImplied) {
      g.row.context = TripleContext::kDirect;
    }
    g.row.reif_link = g.row.reif_link || e.reif_link;
    entry_group[i] = it->second;
  }

  // Phase 2: reserve the LINK_ID range and assign in first-occurrence
  // order (identical ids to per-statement Next() calls), apply the folded
  // updates, and append all new rows through the staged batch path.
  LinkId next_id = link_seq_->NextRange(static_cast<int64_t>(new_groups));
  std::vector<Row> new_rows;
  new_rows.reserve(new_groups);
  for (Group& g : groups) {
    if (g.is_new) {
      g.row.link_id = next_id++;
      g.row.cost = g.occurrences;
      new_rows.push_back(LinkToRow(g.row));
    } else {
      g.row.cost += g.occurrences;
      RDFDB_RETURN_NOT_OK(links_->Update(*g.existing_rid, LinkToRow(g.row)));
      if (g.was_implied && g.row.context == TripleContext::kDirect) {
        CacheContextUpgrade(model_id);
      }
    }
  }
  auto staged = links_->InsertBatch(std::move(new_rows));
  if (!staged.ok()) return staged.status();
  size_t staged_at = 0;
  for (const Group& g : groups) {
    if (!g.is_new) continue;
    // First-occurrence order: identical cache state to per-statement
    // Insert() calls. Staged row ids come back in input order.
    CacheInsert(model_id,
                IdQuad{g.row.start_node_id, g.row.p_value_id,
                       g.row.end_node_id, g.row.canon_end_node_id,
                       g.row.link_id},
                (*staged)[staged_at++],
                g.row.context == TripleContext::kImplied);
  }

  // Phase 3: rdf_node$ rows, created in the sequential path's order
  // (subject then object, per new link, in link order) so the table's
  // contents are bit-identical.
  for (const Group& g : groups) {
    if (!g.is_new) continue;
    EnsureNode(g.row.start_node_id);
    EnsureNode(g.row.end_node_id);
  }

  if (metrics_ != nullptr) {
    // Mirror the sequential path: each entry either created a row or
    // folded into an existing one.
    metrics_->link_inserts->Inc(new_groups);
    metrics_->link_duplicates->Inc(entries.size() - new_groups);
  }

  std::vector<LinkInsertOutcome> outcomes;
  outcomes.reserve(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    const Group& g = groups[entry_group[i]];
    outcomes.push_back(
        LinkInsertOutcome{g.row, g.is_new && g.first_entry == i});
  }
  return outcomes;
}

std::optional<LinkRow> LinkStore::Find(int64_t model_id, ValueId s, ValueId p,
                                       ValueId o) const {
  auto mit = id_cache_.find(model_id);
  if (mit == id_cache_.end()) return std::nullopt;
  int64_t idx = mit->second->FindSpoIdx(s, p, o);
  if (idx < 0) return std::nullopt;
  return RowToLink(
      *links_->Get(mit->second->row_ids[static_cast<uint32_t>(idx)]));
}

Result<LinkRow> LinkStore::Get(LinkId link_id) const {
  // LINK_ID alone does not name a model; probe each model's sorted
  // by_link vector (models are few, probes are O(log n)).
  for (const auto& [model_id, cache] : id_cache_) {
    (void)model_id;
    int64_t idx = cache->IndexOfLink(link_id);
    if (idx >= 0) {
      return RowToLink(
          *links_->Get(cache->row_ids[static_cast<uint32_t>(idx)]));
    }
  }
  return Status::NotFound("LINK_ID " + std::to_string(link_id));
}

std::vector<LinkRow> LinkStore::Match(int64_t model_id,
                                      std::optional<ValueId> s,
                                      std::optional<ValueId> p,
                                      std::optional<ValueId> canon_o) const {
  std::vector<LinkRow> out;
  MatchEach(model_id, s, p, canon_o, [&](const LinkRow& row) {
    out.push_back(row);
    return true;
  });
  return out;
}

void LinkStore::MatchEach(
    int64_t model_id, std::optional<ValueId> s, std::optional<ValueId> p,
    std::optional<ValueId> canon_o,
    const std::function<bool(const LinkRow&)>& fn) const {
  const ModelIdCache* cache = CacheFor(model_id);
  if (cache == nullptr) return;
  Scan(*cache, s, p, canon_o,
       metrics_ != nullptr ? metrics_->link_rows_scanned : nullptr,
       [&](uint32_t idx, ValueId, ValueId, ValueId, ValueId) {
         return fn(RowToLink(*links_->Get(cache->row_ids[idx])));
       });
}

Status LinkStore::Delete(int64_t model_id, ValueId s, ValueId p, ValueId o,
                         bool force) {
  auto mit = id_cache_.find(model_id);
  int64_t idx =
      mit == id_cache_.end() ? -1 : mit->second->FindSpoIdx(s, p, o);
  if (idx < 0) {
    return Status::NotFound("triple not found in model " +
                            std::to_string(model_id));
  }
  storage::RowId rid = mit->second->row_ids[static_cast<uint32_t>(idx)];
  LinkRow link = RowToLink(*links_->Get(rid));
  if (metrics_ != nullptr) metrics_->link_deletes->Inc();
  if (!force && link.cost > 1) {
    link.cost -= 1;
    return links_->Update(rid, LinkToRow(link));
  }
  RDFDB_RETURN_NOT_OK(links_->Delete(rid));
  CacheErase(model_id, link.link_id,
             link.context == TripleContext::kImplied);
  DropOrphanedEndpoints(link);
  return Status::OK();
}

Status LinkStore::DeleteModel(int64_t model_id) {
  id_cache_.erase(model_id);
  std::vector<std::pair<storage::RowId, LinkRow>> doomed;
  links_->ScanPartition(Value::Int64(model_id),
                        [&](storage::RowId rid, const Row& row) {
                          if (row[kModelId].as_int64() == model_id) {
                            doomed.emplace_back(rid, RowToLink(row));
                          }
                          return true;
                        });
  for (const auto& [rid, link] : doomed) {
    RDFDB_RETURN_NOT_OK(links_->Delete(rid));
    DropOrphanedEndpoints(link);
  }
  return Status::OK();
}

size_t LinkStore::CachedTripleCount() const {
  size_t n = 0;
  for (const auto& [model_id, cache] : id_cache_) {
    (void)model_id;
    n += cache->live_count();
  }
  return n;
}

size_t LinkStore::TripleCount(int64_t model_id) const {
  return links_->PartitionRowCount(Value::Int64(model_id));
}

void LinkStore::ScanModel(
    int64_t model_id, const std::function<bool(const LinkRow&)>& fn) const {
  links_->ScanPartition(Value::Int64(model_id),
                        [&](storage::RowId, const Row& row) {
                          if (row[kModelId].as_int64() != model_id) {
                            return true;
                          }
                          if (metrics_ != nullptr) {
                            metrics_->link_rows_scanned->Inc();
                          }
                          return fn(RowToLink(row));
                        });
}

}  // namespace rdfdb::rdf
