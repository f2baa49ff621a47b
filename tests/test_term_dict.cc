// TermDict, the snapshot store's lock-free term dictionary, tested
// directly against the ValueStore rows it ingests: every term kind and
// every escape round-trips through the stored spelling (AppendNTriples,
// SpellingOf, TermForValueId, Lookup, LookupBlank), VALUE_ID gaps fall
// back to the id table, spellings larger than an arena chunk and many
// small ingests keep every earlier entry intact, a reader resolves ids
// while the writer ingests, and an entry costs at most 24 bytes.

#include "rdf/term_dict.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "rdf/vocab.h"

namespace rdfdb::rdf {
namespace {

class TermDictTest : public ::testing::Test {
 protected:
  ValueId Intern(const Term& term) {
    Result<ValueId> id = values_.LookupOrInsert(term);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return id.ok() ? *id : -1;
  }

  ValueId InternBlank(int64_t model_id, const std::string& label) {
    Result<ValueId> id = values_.LookupOrInsertBlank(model_id, label);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return id.ok() ? *id : -1;
  }

  void Ingest() {
    const Status status = dict_.Ingest(values_);
    ASSERT_TRUE(status.ok()) << status.ToString();
  }

  /// Every read of `id` agrees with `want`, the term it was interned as.
  void ExpectResolves(ValueId id, const Term& want) {
    SCOPED_TRACE("VALUE_ID " + std::to_string(id) + " " + want.ToNTriples());
    Result<Term> got = dict_.TermForValueId(id);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, want);
    EXPECT_EQ(got->kind(), want.kind());
    EXPECT_EQ(got->lexical(), want.lexical());
    EXPECT_EQ(got->language(), want.language());
    EXPECT_EQ(got->datatype(), want.datatype());

    std::string out = "prefix ";
    ASSERT_TRUE(dict_.AppendNTriples(id, &out).ok());
    EXPECT_EQ(out, "prefix " + got->ToNTriples());
    EXPECT_EQ(out, "prefix " + want.ToNTriples());

    const std::optional<TermDict::Spelling> spelling = dict_.SpellingOf(id);
    ASSERT_TRUE(spelling.has_value());
    EXPECT_EQ(spelling->text, want.ToNTriples());
    EXPECT_EQ(spelling->json_clean,
              FindEscapable(spelling->text) == spelling->text.size());

    if (want.is_blank()) {
      EXPECT_FALSE(dict_.Lookup(want).has_value());
    } else {
      EXPECT_EQ(dict_.Lookup(want), std::optional<ValueId>(id));
    }
  }

  storage::Database db_{"ORADB"};
  ValueStore values_{&db_};
  TermDict dict_;
};

/// Texts that exercise each N-Triples and JSON escape, text that looks
/// like a closing quote plus a suffix, and multi-byte UTF-8.
std::vector<std::string> TrickyTexts() {
  return {
      "say \"hi\"",
      "back\\slash",
      "two\nlines\r\tand tab",
      std::string("ctl") + '\x01' + "char",
      "x\"@en",
      "y\"^^<http://ex/dt>",
      "ends with a backslash\\",
      "\\",
      "\"",
      "emoji \xf0\x9f\x98\x80 and \xe6\xbc\xa2",
      "",
  };
}

TEST_F(TermDictTest, EveryKindRoundTripsThroughItsSpelling) {
  const std::string long_text(kLongLiteralThreshold + 321, 'L');
  std::vector<Term> terms = {
      Term::Uri("http://ex/s"),
      Term::Uri("http://ex/with space and \"quote\""),
      Term::PlainLiteral("plain"),
      Term::PlainLiteralLang("chat", "fr"),
      Term::TypedLiteral("25", std::string(kXsdInt)),
      Term::PlainLiteral(long_text + "plain"),
      Term::TypedLiteral(long_text + "typed", "http://ex/dt"),
      Term::PlainLiteralLang(long_text + "fr", "fr"),
  };
  for (const std::string& text : TrickyTexts()) {
    terms.push_back(Term::PlainLiteral(text));
    terms.push_back(Term::PlainLiteralLang(text, "en-GB"));
    terms.push_back(Term::TypedLiteral(text, "http://ex/dt"));
    terms.push_back(Term::PlainLiteral(long_text + text));
  }
  ASSERT_EQ(terms[5].kind(), TermKind::kPlainLongLiteral);
  ASSERT_EQ(terms[6].kind(), TermKind::kTypedLongLiteral);
  ASSERT_EQ(terms[7].kind(), TermKind::kPlainLongLiteral);

  std::vector<ValueId> ids;
  for (const Term& term : terms) ids.push_back(Intern(term));
  // One blank label in two models: two terms.
  const ValueId blank1 = InternBlank(1, "shared");
  const ValueId blank2 = InternBlank(2, "shared");
  ASSERT_NE(blank1, blank2);
  Ingest();
  EXPECT_EQ(dict_.size(), terms.size() + 2);

  for (size_t i = 0; i < terms.size(); ++i) {
    ExpectResolves(ids[i], terms[i]);
    // The same text under another kind, language or datatype misses.
    const Term& t = terms[i];
    EXPECT_FALSE(dict_.Lookup(Term::PlainLiteralLang(t.lexical(), "xx"))
                     .has_value());
    EXPECT_FALSE(
        dict_.Lookup(Term::TypedLiteral(t.lexical(), "http://ex/other"))
            .has_value());
    EXPECT_FALSE(dict_.Lookup(Term::Uri(t.lexical() + "#missing"))
                     .has_value());
  }
  EXPECT_TRUE(dict_.SpellingOf(ids[0])->json_clean);
  EXPECT_FALSE(dict_.SpellingOf(ids[1])->json_clean);
  EXPECT_FALSE(dict_.SpellingOf(ids[2])->json_clean);  // literal quotes

  for (ValueId blank : {blank1, blank2}) {
    Result<Term> term = values_.GetTerm(blank);
    ASSERT_TRUE(term.ok());
    ExpectResolves(blank, *term);
  }
  EXPECT_EQ(dict_.LookupBlank(1, "shared"), std::optional<ValueId>(blank1));
  EXPECT_EQ(dict_.LookupBlank(2, "shared"), std::optional<ValueId>(blank2));
  EXPECT_FALSE(dict_.LookupBlank(3, "shared").has_value());
  EXPECT_FALSE(dict_.LookupBlank(1, "other").has_value());
}

TEST_F(TermDictTest, ValueIdGapFallsBackToTheIdTable) {
  std::vector<Term> terms;
  std::vector<ValueId> ids;
  for (int i = 0; i < 40; ++i) {
    if (i == 20) {
      // Burn a few VALUE_IDs: later entries no longer sit at their
      // position in the sequence.
      for (int skip = 0; skip < 3; ++skip) {
        db_.GetSequence("MDSYS", "RDF_VALUE_SEQ")->Next();
      }
    }
    terms.push_back(Term::Uri("http://ex/gap" + std::to_string(i)));
    ids.push_back(Intern(terms.back()));
  }
  ASSERT_EQ(ids[20], ids[19] + 4);
  Ingest();
  for (size_t i = 0; i < terms.size(); ++i) ExpectResolves(ids[i], terms[i]);

  for (ValueId missing : {ids[19] + 1, ids[19] + 3, ids.back() + 1}) {
    std::string untouched = "kept";
    EXPECT_TRUE(dict_.AppendNTriples(missing, &untouched).IsNotFound());
    EXPECT_EQ(untouched, "kept");
    EXPECT_FALSE(dict_.SpellingOf(missing).has_value());
    Result<Term> term = dict_.TermForValueId(missing);
    ASSERT_TRUE(term.status().IsNotFound());
    EXPECT_EQ(term.status().message(),
              "VALUE_ID " + std::to_string(missing));
  }
}

TEST_F(TermDictTest, ManySmallIngestsAndOversizedSpellings) {
  std::vector<Term> terms;
  std::vector<ValueId> ids;
  // Spellings past one 64 KiB arena chunk take blocks of their own;
  // the small ones around them keep packing into chunks.
  const std::string huge(200 * 1024, 'h');
  for (int batch = 0; batch < 60; ++batch) {
    for (int i = 0; i <= batch; ++i) {
      const std::string n = std::to_string(batch) + "_" + std::to_string(i);
      terms.push_back(i % 3 == 0 ? Term::Uri("http://ex/b" + n)
                                 : Term::PlainLiteralLang("lit " + n, "en"));
      ids.push_back(Intern(terms.back()));
    }
    if (batch % 10 == 0) {
      terms.push_back(Term::PlainLiteral(huge + std::to_string(batch)));
      ids.push_back(Intern(terms.back()));
    }
    Ingest();
    EXPECT_EQ(dict_.size(), terms.size());
  }
  Ingest();  // nothing new: a no-op
  EXPECT_EQ(dict_.size(), terms.size());
  for (size_t i = 0; i < terms.size(); ++i) ExpectResolves(ids[i], terms[i]);
}

TEST_F(TermDictTest, ReaderResolvesWhileWriterIngests) {
  auto uri = [](size_t i) {
    return Term::Uri("http://ex/concurrent/" + std::to_string(i));
  };
  const ValueId first = Intern(uri(0));
  Ingest();

  constexpr size_t kTerms = 20000;
  std::atomic<bool> done{false};
  std::atomic<size_t> checked{0};
  std::atomic<size_t> wrong{0};
  std::thread reader([&] {
    std::string out;
    while (!done.load(std::memory_order_acquire)) {
      const size_t n = dict_.size();
      // Entries below size() are complete; every entry but the newest
      // is also in the term table (the writer inserts it after).
      for (size_t i = n > 64 ? n - 64 : 0; i < n; ++i) {
        const ValueId id = first + static_cast<ValueId>(i);
        const std::string want = uri(i).ToNTriples();
        out.clear();
        if (!dict_.AppendNTriples(id, &out).ok() || out != want) ++wrong;
        Result<Term> term = dict_.TermForValueId(id);
        if (!term.ok() || *term != uri(i)) ++wrong;
        if (i + 1 < n && dict_.Lookup(uri(i)) != std::optional<ValueId>(id)) {
          ++wrong;
        }
        checked.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  for (size_t i = 1; i < kTerms; ++i) {
    Intern(uri(i));
    if (i % 97 == 0) Ingest();
  }
  Ingest();
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GT(checked.load(), 0u);
  ASSERT_EQ(dict_.size(), kTerms);
  for (size_t i = 0; i < kTerms; i += 501) {
    ExpectResolves(first + static_cast<ValueId>(i), uri(i));
  }
}

// An entry is a spelling pointer, a length, a flags word and the
// VALUE_ID: at most 24 bytes. Measured as the growth of ApproxBytes
// between two sizes that are whole 4096-entry chunks and share one
// table capacity (131072 slots hold 45 876..91 750 entries at the 70 %
// load limit), so the only other growth is the spellings themselves,
// rounded up to at most one 64 KiB arena chunk.
TEST_F(TermDictTest, EntriesCostAtMost24Bytes) {
  constexpr size_t kBefore = 4096 * 12;
  constexpr size_t kAfter = 4096 * 22;
  auto uri = [](size_t i) {
    return Term::Uri("http://ex/e" + std::to_string(i));
  };
  for (size_t i = 0; i < kBefore; ++i) Intern(uri(i));
  Ingest();
  const size_t before = dict_.ApproxBytes();
  size_t spelled = 0;
  for (size_t i = kBefore; i < kAfter; ++i) {
    Intern(uri(i));
    spelled += uri(i).ToNTriples().size();
  }
  Ingest();
  const size_t after = dict_.ApproxBytes();
  ASSERT_GT(after, before + spelled);
  const size_t entries = kAfter - kBefore;
  EXPECT_LE(after - before, entries * 24 + spelled + 64 * 1024 + 1024)
      << (after - before - spelled) / static_cast<double>(entries)
      << " B per entry";
}

}  // namespace
}  // namespace rdfdb::rdf
