// SnapshotRdfStore: lock-free snapshot reads.
//
// Three layers of coverage:
//   1. Functional mirrors — every read on a pinned StoreVersion returns
//      exactly what the live RdfStore returns (results AND error texts).
//   2. Randomized differential — a seeded op stream over two models
//      (with blank-node labels reused across them) drives the snapshot
//      store and the brute-force reference model (reference_model.h) in
//      lockstep; after every mutation the shared StoreView reads
//      (IsTriple / IsReified / GetTripleId, and periodically
//      GetModelStats / ResolveTriple / SDO_RDF_MATCH) must agree on the
//      live store and on a pinned version, which also proves
//      read-your-writes at each publish boundary.
//   3. Concurrency — repeatable reads under a held pin, linearizable
//      visibility across a release/acquire watermark, epoch-based
//      version reclamation, and a many-reader/one-writer hammer at
//      several thread counts (run under TSan via tools/run_tsan.sh).

#include "rdf/snapshot_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "query/match.h"
#include "reference_model.h"
#include "test_temp_dir.h"

namespace rdfdb::rdf {
namespace {

TEST(SnapshotStoreTest, BasicOperationsWork) {
  SnapshotRdfStore store;
  ASSERT_TRUE(store.CreateRdfModel("m", "mdata", "triple").ok());
  auto triple = store.InsertTriple("m", "gov:a", "gov:p", "gov:b");
  ASSERT_TRUE(triple.ok());
  EXPECT_TRUE(*store.Snapshot()->IsTriple("m", "gov:a", "gov:p", "gov:b"));
  auto id = store.Snapshot()->GetTripleId("m", "gov:a", "gov:p", "gov:b");
  ASSERT_TRUE(id.ok());
  auto resolved = store.Snapshot()->ResolveTriple(*id);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->subject, "gov:a");
  ASSERT_TRUE(store.ReifyTriple("m", *id).ok());
  EXPECT_TRUE(*store.Snapshot()->IsReified("m", "gov:a", "gov:p", "gov:b"));
  ASSERT_TRUE(store.DeleteTriple("m", "gov:a", "gov:p", "gov:b").ok());
  EXPECT_FALSE(*store.Snapshot()->IsTriple("m", "gov:a", "gov:p", "gov:b"));
}

TEST(SnapshotStoreTest, ReadYourWrites) {
  // Every mutation publishes before returning, so a snapshot taken
  // right after the call must already see the new state.
  SnapshotRdfStore store;
  ASSERT_TRUE(store.CreateRdfModel("m", "mdata", "triple").ok());
  for (int i = 0; i < 64; ++i) {
    std::string subject = "gov:s" + std::to_string(i);
    ASSERT_TRUE(store.InsertTriple("m", subject, "gov:p", "gov:o").ok());
    auto snap = store.Snapshot();
    auto seen = snap->IsTriple("m", subject, "gov:p", "gov:o");
    ASSERT_TRUE(seen.ok());
    EXPECT_TRUE(*seen) << "write " << i << " not visible after publish";
  }
  ASSERT_TRUE(store.DeleteTriple("m", "gov:s0", "gov:p", "gov:o").ok());
  EXPECT_FALSE(*store.Snapshot()->IsTriple("m", "gov:s0", "gov:p", "gov:o"));
}

TEST(SnapshotStoreTest, ErrorTextsMirrorRdfStore) {
  SnapshotRdfStore store;
  ASSERT_TRUE(store.CreateRdfModel("m", "mdata", "triple").ok());
  auto snap = store.Snapshot();

  RdfStore plain;
  ASSERT_TRUE(plain.CreateRdfModel("m", "mdata", "triple").ok());

  auto model_a = snap->GetModelId("nope");
  auto model_b = plain.GetModelId("nope");
  ASSERT_FALSE(model_a.ok());
  ASSERT_FALSE(model_b.ok());
  EXPECT_EQ(model_a.status().ToString(), model_b.status().ToString());

  auto id_a = snap->GetTripleId("m", "gov:a", "gov:p", "gov:b");
  auto id_b = plain.GetTripleId("m", "gov:a", "gov:p", "gov:b");
  ASSERT_FALSE(id_a.ok());
  ASSERT_FALSE(id_b.ok());
  EXPECT_EQ(id_a.status().ToString(), id_b.status().ToString());

  auto resolve_a = snap->ResolveTriple(987654);
  auto resolve_b = plain.ResolveTriple(987654);
  ASSERT_FALSE(resolve_a.ok());
  ASSERT_FALSE(resolve_b.ok());
  EXPECT_EQ(resolve_a.status().ToString(), resolve_b.status().ToString());
}

TEST(SnapshotStoreTest, MatchRunsAgainstPinnedVersion) {
  SnapshotRdfStore store;
  ASSERT_TRUE(store.CreateRdfModel("m", "mdata", "triple").ok());
  ASSERT_TRUE(store.InsertTriple("m", "gov:a", "gov:p", "gov:b").ok());
  ASSERT_TRUE(store.InsertTriple("m", "gov:a", "gov:p", "gov:c").ok());
  ASSERT_TRUE(store.InsertTriple("m", "gov:x", "gov:q", "gov:b").ok());

  auto snap = store.Snapshot();
  auto result = query::SdoRdfMatch(snap.view(), "(gov:a gov:p ?o)", {"m"},
                                   {}, "");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->row_count(), 2u);

  // Mutations after the pin must not leak into the pinned view.
  ASSERT_TRUE(store.InsertTriple("m", "gov:a", "gov:p", "gov:d").ok());
  auto again = query::SdoRdfMatch(snap.view(), "(gov:a gov:p ?o)", {"m"},
                                  {}, "");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->row_count(), 2u);
  auto fresh = query::SdoRdfMatch(store.Snapshot().view(),
                                  "(gov:a gov:p ?o)", {"m"}, {}, "");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->row_count(), 3u);
}

TEST(SnapshotStoreTest, PinnedResultResolvesWhileWriterPublishes) {
  // A result keeps ids and resolves them through the version it was
  // computed on. Held under its pin, it must keep answering the pinned
  // terms while a writer publishes (and retires) newer versions.
  SnapshotRdfStore store;
  ASSERT_TRUE(store.CreateRdfModel("m", "mdata", "triple").ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(store
                    .InsertTriple("m", "gov:s", "gov:p",
                                  "\"v" + std::to_string(i) + "\"@en")
                    .ok());
  }
  auto pin = store.Snapshot();
  auto result = query::SdoRdfMatch(pin.view(), "(gov:s gov:p ?o)", {"m"},
                                   {}, "");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->row_count(), 40u);
  std::vector<std::string> pinned;
  for (size_t r = 0; r < result->row_count(); ++r) {
    pinned.push_back(result->at(r, 0).ToNTriples());
  }

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    for (int i = 0; i < 60; ++i) {
      if (!store
               .InsertTriple("m", "gov:s", "gov:p",
                             "\"w" + std::to_string(i) + "\"")
               .ok() ||
          (i < 40 && !store
                          .DeleteTriple("m", "gov:s", "gov:p",
                                        "\"v" + std::to_string(i) + "\"@en")
                          .ok())) {
        failures.fetch_add(1);
      }
    }
    done.store(true, std::memory_order_release);
  });
  std::string text;
  int passes = 0;
  while (!done.load(std::memory_order_acquire) || passes < 2) {
    ++passes;
    for (size_t r = 0; r < result->row_count(); ++r) {
      if (result->at(r, 0).ToNTriples() != pinned[r]) failures.fetch_add(1);
      text.clear();
      if (!result->view()->AppendNTriples(result->id(r, 0), &text).ok() ||
          text != pinned[r]) {
        failures.fetch_add(1);
      }
    }
  }
  writer.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(result->row_count(), 40u);
  // The live state moved on: the v* rows are gone, the w* rows are in.
  auto fresh = store.Snapshot();
  auto now = query::SdoRdfMatch(fresh.view(), "(gov:s gov:p ?o)", {"m"}, {},
                                "");
  ASSERT_TRUE(now.ok());
  EXPECT_EQ(now->row_count(), 60u);
}

// ---------------------------------------------------------------------------
// Randomized differential: SnapshotRdfStore vs the reference model.
// ---------------------------------------------------------------------------

struct DiffUniverse {
  std::vector<std::string> subjects;
  std::vector<std::string> predicates;
  std::vector<std::string> objects;
};

DiffUniverse SmallUniverse() {
  DiffUniverse u;
  for (int i = 0; i < 8; ++i) u.subjects.push_back("gov:s" + std::to_string(i));
  for (int i = 0; i < 3; ++i) u.predicates.push_back("gov:p" + std::to_string(i));
  for (int i = 0; i < 5; ++i) u.objects.push_back("gov:o" + std::to_string(i));
  // Blank nodes are model-scoped: the two models below reuse these
  // labels for different nodes.
  for (const char* label : {"_:b0", "_:b1"}) {
    u.subjects.push_back(label);
    u.objects.push_back(label);
  }
  return u;
}

/// The store names a blank node per model, so a resolved blank position
/// cannot equal the reference's label. It must instead map one-to-one:
/// one text per (model, label), and no text shared by two of them.
class BlankNames {
 public:
  bool Matches(const std::string& model, const Term& want,
               const std::string& got) {
    if (!want.is_blank()) return got == want.ToDisplayString();
    const std::string key = model + " " + want.ToDisplayString();
    auto text = text_.emplace(key, got).first;
    auto owner = owner_.emplace(got, key).first;
    return got.rfind("_:", 0) == 0 && text->second == got &&
           owner->second == key;
  }
  /// The reference's display text for a resolved term text.
  std::string ToReference(const std::string& got) const {
    auto owner = owner_.find(got);
    if (owner == owner_.end()) return got;
    return owner->second.substr(owner->second.find(' ') + 1);
  }

 private:
  std::map<std::string, std::string> text_;   ///< "model label" → text
  std::map<std::string, std::string> owner_;  ///< text → "model label"
};

TEST(SnapshotStoreTest, RandomizedDifferentialAgainstReferenceModel) {
  const DiffUniverse universe = SmallUniverse();
  const std::vector<std::string> models = {"m", "m2"};
  std::mt19937_64 rng(20260808);

  SnapshotRdfStore snapshot_store;
  test::ReferenceStore reference;
  for (const std::string& model : models) {
    ASSERT_TRUE(snapshot_store.CreateRdfModel(model, model + "data", "triple")
                    .ok());
    ASSERT_TRUE(reference.CreateModel(model).ok());
  }

  auto pick = [&](const std::vector<std::string>& pool) -> const std::string& {
    return pool[rng() % pool.size()];
  };
  BlankNames blanks;

  struct Probe {
    std::string model, s, p, o;
  };
  // Every read the live store and a pinned version share, checked
  // against the reference model on one view. `arm` names the view in
  // failure messages.
  auto check_point_reads = [&](const StoreView& view, const char* arm,
                               const std::vector<Probe>& probes, int step) {
    for (const Probe& q : probes) {
      const std::string where = std::string(arm) + " step " +
                                std::to_string(step) + " " + q.model + " (" +
                                q.s + ", " + q.p + ", " + q.o + ")";
      auto is_a = view.IsTriple(q.model, q.s, q.p, q.o);
      auto is_b = reference.IsTriple(q.model, q.s, q.p, q.o);
      ASSERT_TRUE(is_a.ok() && is_b.ok()) << where;
      EXPECT_EQ(*is_a, *is_b) << "IsTriple " << where;
      auto reif_a = view.IsReified(q.model, q.s, q.p, q.o);
      auto reif_b = reference.IsReified(q.model, q.s, q.p, q.o);
      ASSERT_TRUE(reif_a.ok() && reif_b.ok()) << where;
      EXPECT_EQ(*reif_a, *reif_b) << "IsReified " << where;
      auto id_a = view.GetTripleId(q.model, q.s, q.p, q.o);
      auto id_b = reference.GetTripleId(q.model, q.s, q.p, q.o);
      EXPECT_EQ(id_a.ok(), id_b.ok()) << "GetTripleId " << where;
      if (id_a.ok() && id_b.ok()) {
        EXPECT_EQ(*id_a, *id_b) << "GetTripleId " << where;
      }
    }
  };
  auto check_model_reads = [&](const StoreView& view, const char* arm,
                               const std::string& model, int step) {
    const std::string where =
        std::string(arm) + " step " + std::to_string(step) + " " + model;
    auto stats_a = view.GetModelStats(model);
    auto stats_b = reference.GetModelStats(model);
    ASSERT_TRUE(stats_a.ok() && stats_b.ok()) << where;
    EXPECT_EQ(stats_a->triples, stats_b->triples) << where;
    EXPECT_EQ(stats_a->reified_statements, stats_b->reified_statements)
        << where;
    EXPECT_EQ(stats_a->implied_statements, stats_b->implied_statements)
        << where;
    EXPECT_EQ(stats_a->distinct_subjects, stats_b->distinct_subjects)
        << where;
    EXPECT_EQ(stats_a->distinct_predicates, stats_b->distinct_predicates)
        << where;
    EXPECT_EQ(stats_a->distinct_objects, stats_b->distinct_objects) << where;

    // Triple resolution (the member functions) for every stored triple.
    auto triples = reference.Triples(model);
    ASSERT_TRUE(triples.ok()) << where;
    for (const test::RefTriple& t : **triples) {
      auto resolved = view.ResolveTriple(t.link);
      ASSERT_TRUE(resolved.ok()) << where << " LINK_ID " << t.link;
      EXPECT_TRUE(blanks.Matches(model, t.s, resolved->subject))
          << where << " " << resolved->ToString();
      EXPECT_TRUE(blanks.Matches(model, t.p, resolved->property))
          << where << " " << resolved->ToString();
      EXPECT_TRUE(blanks.Matches(model, t.o, resolved->object))
          << where << " " << resolved->ToString();
      EXPECT_EQ(view.ResolveSubject(t.link).value_or(""), resolved->subject);
      EXPECT_EQ(view.ResolveProperty(t.link).value_or(""),
                resolved->property);
      EXPECT_EQ(view.ResolveObject(t.link).value_or(""), resolved->object);
    }

    // Full SDO_RDF_MATCH differential: the compiled executor over the
    // view vs the model's answer, as multisets of (s, o) rows.
    test::RefQuery query;
    query.patterns = "(?s " + universe.predicates[0] + " ?o)";
    auto rows_a = query::SdoRdfMatch(view, query.patterns, {model}, {}, "");
    auto rows_b = reference.Match(query, {model});
    ASSERT_TRUE(rows_a.ok() && rows_b.ok()) << where;
    std::vector<std::string> got, want;
    for (size_t r = 0; r < rows_a->row_count(); ++r) {
      got.push_back(blanks.ToReference(rows_a->Get(r, "s")) + " " +
                    blanks.ToReference(rows_a->Get(r, "o")));
    }
    for (const auto& row : rows_b->rows) {
      want.push_back(row[0].ToDisplayString() + " " +
                     row[1].ToDisplayString());
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << where;
  };

  for (int step = 0; step < 400; ++step) {
    const std::string& model = pick(models);
    const std::string& s = pick(universe.subjects);
    const std::string& p = pick(universe.predicates);
    const std::string& o = pick(universe.objects);
    switch (rng() % 5) {
      case 0:
      case 1: {  // insert (weighted up so the store actually grows)
        auto a = snapshot_store.InsertTriple(model, s, p, o);
        auto b = reference.Insert(model, s, p, o);
        ASSERT_EQ(a.ok(), b.ok()) << "step " << step;
        if (a.ok()) {
          ASSERT_EQ(a->rdf_t_id(), *b) << "step " << step;
        }
        break;
      }
      case 2: {  // delete
        Status a = snapshot_store.DeleteTriple(model, s, p, o);
        Status b = reference.Delete(model, s, p, o);
        ASSERT_EQ(a.ok(), b.ok()) << "step " << step;
        break;
      }
      case 3: {  // reify (when the triple exists)
        auto id_a = snapshot_store.Snapshot()->GetTripleId(model, s, p, o);
        auto id_b = reference.GetTripleId(model, s, p, o);
        ASSERT_EQ(id_a.ok(), id_b.ok()) << "step " << step;
        if (id_a.ok()) {
          ASSERT_EQ(*id_a, *id_b) << "step " << step;
          auto a = snapshot_store.ReifyTriple(model, *id_a);
          auto b = reference.Reify(model, *id_b);
          ASSERT_EQ(a.ok(), b.ok()) << "step " << step;
          if (a.ok()) {
            ASSERT_EQ(a->rdf_t_id(), *b) << "step " << step;
          }
        }
        break;
      }
      case 4: {  // assertion about an implied statement
        const std::string& rs = pick(universe.subjects);
        const std::string& rp = pick(universe.predicates);
        auto a = snapshot_store.AssertImplied(model, rs, rp, s, p, o);
        auto b = reference.AssertImplied(model, rs, rp, s, p, o);
        ASSERT_EQ(a.ok(), b.ok()) << "step " << step;
        if (a.ok()) {
          ASSERT_EQ(a->rdf_t_id(), *b) << "step " << step;
        }
        break;
      }
    }

    // Read-your-writes + full agreement after EVERY mutation: probe a
    // random sample of the universe on the live store and on a pinned
    // version.
    std::vector<Probe> probes;
    for (int probe = 0; probe < 4; ++probe) {
      probes.push_back(Probe{pick(models), pick(universe.subjects),
                             pick(universe.predicates),
                             pick(universe.objects)});
    }
    auto snap = snapshot_store.Snapshot();
    snapshot_store.Apply([&](const RdfStore& live) {
      check_point_reads(live, "live", probes, step);
    });
    check_point_reads(snap.view(), "pinned", probes, step);

    if (step % 25 == 0) {
      for (const std::string& m : models) {
        snapshot_store.Apply([&](const RdfStore& live) {
          check_model_reads(live, "live", m, step);
        });
        check_model_reads(snap.view(), "pinned", m, step);
      }
    }
    // Both arms have reported; stop at the first step that disagrees.
    if (HasFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Concurrency: visibility, repeatable reads, reclamation, stress.
// ---------------------------------------------------------------------------

TEST(SnapshotStoreTest, PinnedSnapshotIsRepeatable) {
  SnapshotRdfStore store;
  ASSERT_TRUE(store.CreateRdfModel("m", "mdata", "triple").ok());
  ASSERT_TRUE(store.InsertTriple("m", "gov:a", "gov:p", "gov:b").ok());

  auto pinned = store.Snapshot();
  const uint64_t pinned_seq = pinned->sequence();

  ASSERT_TRUE(store.InsertTriple("m", "gov:new", "gov:p", "gov:b").ok());
  ASSERT_TRUE(store.DeleteTriple("m", "gov:a", "gov:p", "gov:b").ok());

  // The pinned view is frozen: the old triple is still there, the new
  // one is not, and the sequence number did not move.
  EXPECT_EQ(pinned->sequence(), pinned_seq);
  EXPECT_TRUE(*pinned->IsTriple("m", "gov:a", "gov:p", "gov:b"));
  EXPECT_FALSE(*pinned->IsTriple("m", "gov:new", "gov:p", "gov:b"));

  auto fresh = store.Snapshot();
  EXPECT_GT(fresh->sequence(), pinned_seq);
  EXPECT_FALSE(*fresh->IsTriple("m", "gov:a", "gov:p", "gov:b"));
  EXPECT_TRUE(*fresh->IsTriple("m", "gov:new", "gov:p", "gov:b"));
}

TEST(SnapshotStoreTest, EpochReclamationFreesRetiredVersions) {
  SnapshotRdfStore store;
  ASSERT_TRUE(store.CreateRdfModel("m", "mdata", "triple").ok());

  {
    auto pinned = store.Snapshot();
    // Each insert publishes a version; the pin blocks the sweep, so
    // superseded versions pile up on the retire list.
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(store
                      .InsertTriple("m", "gov:s" + std::to_string(i),
                                    "gov:p", "gov:o")
                      .ok());
    }
    EXPECT_GT(store.RetiredOutstanding(), 0u);
    EXPECT_GT(store.OldestPinLag(), 0u);
  }

  // Pin released: the next publish's sweep reclaims everything retired.
  ASSERT_TRUE(store.InsertTriple("m", "gov:last", "gov:p", "gov:o").ok());
  EXPECT_EQ(store.RetiredOutstanding(), 0u);
  EXPECT_EQ(store.OldestPinLag(), 0u);
}

TEST(SnapshotStoreTest, WatermarkVisibilityAcrossThreads) {
  // Linearizable visibility at the version boundary: the writer inserts
  // statement k and only then release-stores k as the watermark. Any
  // reader that acquire-loads watermark w must find statements 0..w in
  // its snapshot — publish happens inside the mutation call, strictly
  // before the watermark store.
  SnapshotRdfStore store;
  ASSERT_TRUE(store.CreateRdfModel("m", "mdata", "triple").ok());

  constexpr int kStatements = 300;
  std::atomic<int> watermark{-1};
  std::atomic<int> failures{0};

  std::thread writer([&] {
    for (int k = 0; k < kStatements; ++k) {
      auto inserted = store.InsertTriple("m", "gov:w" + std::to_string(k),
                                         "gov:p", "gov:o");
      if (!inserted.ok()) {
        failures.fetch_add(1);
        return;
      }
      watermark.store(k, std::memory_order_release);
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      int last_seen = -1;
      while (last_seen < kStatements - 1) {
        int w = watermark.load(std::memory_order_acquire);
        if (w < 0) continue;
        auto snap = store.Snapshot();
        // Check the watermark statement itself plus a stride of
        // earlier ones (all must be visible in this one snapshot).
        for (int k = w; k >= 0; k -= 37) {
          auto seen = snap->IsTriple("m", "gov:w" + std::to_string(k),
                                     "gov:p", "gov:o");
          if (!seen.ok() || !*seen) failures.fetch_add(1);
        }
        last_seen = w;
      }
    });
  }

  writer.join();
  for (std::thread& thread : readers) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

/// `checkpoint_at` > 0 checkpoints the (logged) store after that many
/// writes, with the readers still running.
void HammerReadersOneWriter(SnapshotRdfStore& store, int reader_threads,
                            int checkpoint_at = 0) {
  ASSERT_TRUE(store.CreateRdfModel("m", "mdata", "triple").ok());
  ASSERT_TRUE(store.InsertTriple("m", "gov:anchor", "gov:p", "gov:o").ok());
  auto anchor_id =
      store.Snapshot()->GetTripleId("m", "gov:anchor", "gov:p", "gov:o");
  ASSERT_TRUE(anchor_id.ok());
  ASSERT_TRUE(store.ReifyTriple("m", *anchor_id).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < reader_threads; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto snap = store.Snapshot();
        auto anchor = snap->IsTriple("m", "gov:anchor", "gov:p", "gov:o");
        if (!anchor.ok() || !*anchor) failures.fetch_add(1);
        auto reified = snap->IsReified("m", "gov:anchor", "gov:p", "gov:o");
        if (!reified.ok() || !*reified) failures.fetch_add(1);
        auto stats = snap->GetModelStats("m");
        if (!stats.ok() || stats->triples == 0) failures.fetch_add(1);
        auto rows = query::SdoRdfMatch(snap.view(),
                                       "(gov:anchor gov:p ?o)", {"m"}, {},
                                       "");
        if (!rows.ok() || rows->row_count() == 0) failures.fetch_add(1);
      }
    });
  }

  std::thread writer([&] {
    for (int i = 0; i < 400; ++i) {
      std::string subject = "gov:w" + std::to_string(i);
      if (!store.InsertTriple("m", subject, "gov:p", "gov:o").ok()) {
        failures.fetch_add(1);
      }
      if (i % 3 == 0 &&
          !store.DeleteTriple("m", subject, "gov:p", "gov:o").ok()) {
        failures.fetch_add(1);
      }
      if (i + 1 == checkpoint_at && !store.Checkpoint().ok()) {
        failures.fetch_add(1);
      }
    }
    stop.store(true, std::memory_order_release);
  });

  writer.join();
  for (std::thread& thread : readers) thread.join();
  EXPECT_EQ(failures.load(), 0);

  // Post-condition on a final snapshot: anchor + its streamlined
  // reification row + 400 writes - 134 deletes (i % 3 == 0 in [0, 400)).
  auto stats = store.Snapshot()->GetModelStats("m");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->triples, 1u + 1u + 400u - 134u);
  // The live store's tables, NDM network and quad caches still agree.
  Status consistent =
      store.Apply([](const RdfStore& live) { return live.CheckConsistency(); });
  EXPECT_TRUE(consistent.ok()) << consistent.ToString();

  // Every pin is released; one more publish sweeps the retire list dry.
  ASSERT_TRUE(store.InsertTriple("m", "gov:fin", "gov:p", "gov:o").ok());
  EXPECT_EQ(store.RetiredOutstanding(), 0u);
}

TEST(SnapshotStoreTest, Stress1Reader) {
  SnapshotRdfStore store;
  HammerReadersOneWriter(store, 1);
}
TEST(SnapshotStoreTest, Stress2Readers) {
  SnapshotRdfStore store;
  HammerReadersOneWriter(store, 2);
}
TEST(SnapshotStoreTest, Stress8Readers) {
  SnapshotRdfStore store;
  HammerReadersOneWriter(store, 8);
}

// The logged store appends and checkpoints under the writer lock while
// readers keep pinning versions; the log then replays to the same state.
TEST(SnapshotStoreTest, Stress4ReadersLogged) {
  test::TestTempDir temp;
  const std::string base = temp.Path("store");
  {
    auto store = SnapshotRdfStore::Open(base, base + ".log");
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    HammerReadersOneWriter(**store, 4, /*checkpoint_at=*/200);
    EXPECT_EQ((*store)->generation(), 1u);
  }
  auto reopened = SnapshotRdfStore::Open(base, base + ".log");
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto stats = (*reopened)->Snapshot()->GetModelStats("m");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->triples, 1u + 1u + 400u - 134u + 1u);
}

TEST(SnapshotStoreTest, ApplyBatchPublishesOnce) {
  SnapshotRdfStore store;
  ASSERT_TRUE(store.CreateRdfModel("m", "mdata", "triple").ok());
  const uint64_t before = store.PublishedVersions();
  Status batched = store.Apply([](RdfStore& live) {
    for (int i = 0; i < 100; ++i) {
      auto inserted = live.InsertTriple("m", "gov:b" + std::to_string(i),
                                        "gov:p", "gov:o");
      if (!inserted.ok()) return inserted.status();
    }
    return Status::OK();
  });
  ASSERT_TRUE(batched.ok());
  EXPECT_EQ(store.PublishedVersions(), before + 1);
  auto stats = store.Snapshot()->GetModelStats("m");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->triples, 100u);
}

TEST(SnapshotStoreTest, ReadOnlyApplyDoesNotPublish) {
  SnapshotRdfStore store;
  ASSERT_TRUE(store.CreateRdfModel("m", "mdata", "triple").ok());
  ASSERT_TRUE(store.InsertTriple("m", "gov:a", "gov:p", "gov:b").ok());
  const uint64_t before = store.PublishedVersions();
  const uint64_t sequence = store.Snapshot()->sequence();
  auto found = store.Apply([](const RdfStore& live) {
    return live.IsTriple("m", "gov:a", "gov:p", "gov:b");
  });
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(*found);
  EXPECT_TRUE(
      store.Apply([](const RdfStore& live) { return live.CheckConsistency(); })
          .ok());
  EXPECT_EQ(store.PublishedVersions(), before);
  EXPECT_EQ(store.Snapshot()->sequence(), sequence);
}

TEST(SnapshotStoreTest, PublishMetricsAreRecorded) {
  SnapshotRdfStore store;
  ASSERT_TRUE(store.CreateRdfModel("m", "mdata", "triple").ok());
  ASSERT_TRUE(store.InsertTriple("m", "gov:a", "gov:p", "gov:b").ok());
  std::string rendered = store.metrics_registry().RenderPrometheus();
  EXPECT_NE(rendered.find("rdfdb_versions_published_total"),
            std::string::npos);
  EXPECT_NE(rendered.find("rdfdb_publish_ns"), std::string::npos);
  EXPECT_NE(rendered.find("rdfdb_retired_versions_outstanding"),
            std::string::npos);
  EXPECT_NE(rendered.find("rdfdb_oldest_pinned_epoch_lag"),
            std::string::npos);
}

}  // namespace
}  // namespace rdfdb::rdf
