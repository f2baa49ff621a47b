#include "ndm/network.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace rdfdb::ndm {
namespace {

TEST(NetworkTest, AddNodeIdempotent) {
  LogicalNetwork net;
  net.AddNode(1);
  net.AddNode(1);
  EXPECT_EQ(net.node_count(), 1u);
  EXPECT_TRUE(net.HasNode(1));
  EXPECT_FALSE(net.HasNode(2));
}

TEST(NetworkTest, AddLinkCreatesEndpoints) {
  LogicalNetwork net;
  ASSERT_TRUE(net.AddLink({100, 1, 2, 1.0, 0}).ok());
  EXPECT_TRUE(net.HasNode(1));
  EXPECT_TRUE(net.HasNode(2));
  EXPECT_TRUE(net.HasLink(100));
  EXPECT_EQ(net.link_count(), 1u);
  const Link* link = net.GetLink(100);
  ASSERT_NE(link, nullptr);
  EXPECT_EQ(link->start, 1);
  EXPECT_EQ(link->end, 2);
}

TEST(NetworkTest, DuplicateLinkIdRejected) {
  LogicalNetwork net;
  ASSERT_TRUE(net.AddLink({100, 1, 2}).ok());
  EXPECT_TRUE(net.AddLink({100, 3, 4}).IsAlreadyExists());
}

/// Link ids `net` reports at `node`, in visit order.
std::vector<LinkId> LinkIds(const Network& net, NodeId node,
                            Direction direction) {
  std::vector<LinkId> ids;
  net.ForEachLink(node, direction,
                  [&](const Link& link) { ids.push_back(link.id); });
  return ids;
}

TEST(NetworkTest, ParallelLinksAllowed) {
  // "A new link is always created whenever a new triple is inserted."
  LogicalNetwork net;
  ASSERT_TRUE(net.AddLink({1, 10, 20}).ok());
  ASSERT_TRUE(net.AddLink({2, 10, 20}).ok());
  EXPECT_EQ(LinkIds(net, 10, Direction::kOutgoing),
            (std::vector<LinkId>{1, 2}));
  EXPECT_EQ(LinkIds(net, 20, Direction::kIncoming),
            (std::vector<LinkId>{1, 2}));
}

TEST(NetworkTest, DegreesAndAdjacency) {
  LogicalNetwork net;
  ASSERT_TRUE(net.AddLink({1, 1, 2}).ok());
  ASSERT_TRUE(net.AddLink({2, 1, 3}).ok());
  ASSERT_TRUE(net.AddLink({3, 4, 1}).ok());
  EXPECT_EQ(LinkIds(net, 1, Direction::kOutgoing),
            (std::vector<LinkId>{1, 2}));
  EXPECT_EQ(LinkIds(net, 1, Direction::kIncoming), std::vector<LinkId>{3});
  // kBoth: out-links, then in-links.
  EXPECT_EQ(LinkIds(net, 1, Direction::kBoth),
            (std::vector<LinkId>{1, 2, 3}));
  EXPECT_TRUE(LinkIds(net, 99, Direction::kBoth).empty());  // unknown node
}

TEST(NetworkTest, NodesAndLinksEnumerate) {
  LogicalNetwork net;
  ASSERT_TRUE(net.AddLink({1, 1, 2}).ok());
  ASSERT_TRUE(net.AddLink({2, 2, 3}).ok());
  auto nodes = net.Nodes();
  std::sort(nodes.begin(), nodes.end());
  EXPECT_EQ(nodes, (std::vector<NodeId>{1, 2, 3}));
  std::vector<NodeId> visited;
  net.ForEachNode([&](NodeId node) { visited.push_back(node); });
  std::sort(visited.begin(), visited.end());
  EXPECT_EQ(visited, nodes);
  EXPECT_EQ(net.link_count(), 2u);
}

TEST(NetworkTest, LinkLabelAndCostStored) {
  LogicalNetwork net;
  ASSERT_TRUE(net.AddLink({5, 1, 2, 2.5, 77}).ok());
  const Link* link = net.GetLink(5);
  EXPECT_DOUBLE_EQ(link->cost, 2.5);
  EXPECT_EQ(link->label, 77);
}

TEST(NetworkTest, SelfLoop) {
  LogicalNetwork net;
  ASSERT_TRUE(net.AddLink({1, 7, 7}).ok());
  EXPECT_EQ(net.node_count(), 1u);
  EXPECT_EQ(LinkIds(net, 7, Direction::kOutgoing), std::vector<LinkId>{1});
  EXPECT_EQ(LinkIds(net, 7, Direction::kIncoming), std::vector<LinkId>{1});
  EXPECT_EQ(LinkIds(net, 7, Direction::kBoth), (std::vector<LinkId>{1, 1}));
}

}  // namespace
}  // namespace rdfdb::ndm
