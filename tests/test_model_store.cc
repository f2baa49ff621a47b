#include "rdf/model_store.h"

#include <gtest/gtest.h>

#include "rdf/link_store.h"
#include "rdf/value_store.h"

namespace rdfdb::rdf {
namespace {

class ModelStoreTest : public ::testing::Test {
 protected:
  ModelStoreTest() : values_(&db_), links_(&db_, &values_), models_(&db_) {}

  Result<ModelInfo> Create(const std::string& name,
                           const std::string& owner = "") {
    return models_.CreateModel(name, name + "data", "triple", owner,
                               &links_.table(), /*model_column=*/9);
  }

  storage::Database db_{"ORADB"};
  ValueStore values_;
  LinkStore links_;
  ModelStore models_;
};

TEST_F(ModelStoreTest, CreateAssignsIdsAndRegistersView) {
  auto cia = Create("cia");
  ASSERT_TRUE(cia.ok());
  EXPECT_GT(cia->model_id, 0);
  EXPECT_EQ(cia->app_table, "ciadata");
  EXPECT_EQ(cia->app_column, "triple");
  // "A view of the rdf_link$ table ... is also created (rdfm_model_name)."
  EXPECT_NE(db_.GetView("MDSYS", "RDFM_CIA"), nullptr);
  auto dhs = Create("dhs");
  ASSERT_TRUE(dhs.ok());
  EXPECT_NE(dhs->model_id, cia->model_id);
}

TEST_F(ModelStoreTest, DuplicateNameRejected) {
  ASSERT_TRUE(Create("cia").ok());
  EXPECT_TRUE(Create("cia").status().IsAlreadyExists());
  EXPECT_TRUE(Create("CIA").status().IsAlreadyExists());  // case-insensitive
}

TEST_F(ModelStoreTest, EmptyNameRejected) {
  EXPECT_TRUE(Create("").status().IsInvalidArgument());
}

TEST_F(ModelStoreTest, LookupByNameAndId) {
  auto created = Create("fbi");
  ASSERT_TRUE(created.ok());
  auto id = models_.GetModelId("fbi");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, created->model_id);
  EXPECT_EQ(*models_.GetModelId("FBI"), created->model_id);
  auto info = models_.GetModelById(created->model_id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->model_name, "fbi");
  EXPECT_TRUE(models_.GetModelId("nope").status().IsNotFound());
  EXPECT_TRUE(models_.GetModelById(777).status().IsNotFound());
}

TEST_F(ModelStoreTest, ViewShowsOnlyModelRows) {
  auto cia = Create("cia");
  auto dhs = Create("dhs");
  ValueId s = *values_.LookupOrInsert(Term::Uri("s"));
  ValueId p = *values_.LookupOrInsert(Term::Uri("p"));
  ValueId o = *values_.LookupOrInsert(Term::Uri("o"));
  (void)links_.Insert(cia->model_id, s, p, o, o, "STANDARD",
                      TripleContext::kDirect, false);
  (void)links_.Insert(dhs->model_id, s, p, o, o, "STANDARD",
                      TripleContext::kDirect, false);
  (void)links_.Insert(dhs->model_id, o, p, s, s, "STANDARD",
                      TripleContext::kDirect, false);
  EXPECT_EQ(db_.GetView("MDSYS", "RDFM_CIA")->row_count(), 1u);
  EXPECT_EQ(db_.GetView("MDSYS", "RDFM_DHS")->row_count(), 2u);
}

TEST_F(ModelStoreTest, ViewOwnership) {
  ASSERT_TRUE(Create("cia", "cia_user").ok());
  storage::View* view = db_.GetView("MDSYS", "RDFM_CIA");
  ASSERT_NE(view, nullptr);
  EXPECT_TRUE(view->CanSelect("cia_user"));
  EXPECT_FALSE(view->CanSelect("dhs_user"));
  view->GrantSelect("dhs_user");
  EXPECT_TRUE(view->CanSelect("dhs_user"));
}

TEST_F(ModelStoreTest, DropRemovesRegistryAndView) {
  ASSERT_TRUE(Create("temp").ok());
  ASSERT_TRUE(models_.DropModel("temp").ok());
  EXPECT_TRUE(models_.GetModelId("temp").status().IsNotFound());
  EXPECT_EQ(db_.GetView("MDSYS", "RDFM_TEMP"), nullptr);
  EXPECT_TRUE(models_.DropModel("temp").IsNotFound());
  // Name can be reused after drop.
  EXPECT_TRUE(Create("temp").ok());
}

TEST_F(ModelStoreTest, ModelNamesSorted) {
  ASSERT_TRUE(Create("fbi").ok());
  ASSERT_TRUE(Create("cia").ok());
  ASSERT_TRUE(Create("dhs").ok());
  EXPECT_EQ(models_.ModelNames(),
            (std::vector<std::string>{"cia", "dhs", "fbi"}));
}

TEST(ModelStoreNaming, ViewNameFor) {
  EXPECT_EQ(ModelStore::ViewNameFor("cia"), "RDFM_CIA");
  EXPECT_EQ(ModelStore::ViewNameFor("MiXeD"), "RDFM_MIXED");
}

}  // namespace
}  // namespace rdfdb::rdf
