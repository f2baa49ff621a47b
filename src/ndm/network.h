// Network Data Model: directed logical networks.
//
// The paper builds its RDF store on Oracle Spatial's Network Data Model
// (NDM): "RDF graphs are modeled as a directed logical network in NDM",
// with triples' subjects/objects as nodes and predicates as links. This
// module is our NDM: the read-only Network interface the analysis
// functions (analysis.h) run over, plus LogicalNetwork, an in-memory
// directed multigraph for hand-built graphs and extracted subnetworks.
// The RDF store implements Network directly over rdf_node$ and its quad
// cache (rdf::LinkStore), so the stored triples are the network.

#ifndef RDFDB_NDM_NETWORK_H_
#define RDFDB_NDM_NETWORK_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace rdfdb::ndm {

/// Node identifier (the RDF layer uses rdf_value$ VALUE_IDs).
using NodeId = int64_t;

/// Link identifier (the RDF layer uses rdf_link$ LINK_IDs).
using LinkId = int64_t;

/// One directed link.
struct Link {
  LinkId id = 0;
  NodeId start = 0;
  NodeId end = 0;
  double cost = 1.0;
  /// Free-form link classification; the RDF layer stores the predicate's
  /// VALUE_ID here so network traversals can filter by property.
  int64_t label = 0;
};

/// Traversal direction for searches over a directed network.
enum class Direction {
  kOutgoing,   ///< follow links start -> end
  kIncoming,   ///< follow links end -> start
  kBoth,       ///< treat links as undirected
};

/// Read-only view of a directed logical network (multigraph: parallel
/// links allowed — the RDF store creates "a new link whenever a new
/// triple is inserted").
class Network {
 public:
  virtual ~Network() = default;

  virtual size_t node_count() const = 0;
  virtual size_t link_count() const = 0;
  virtual bool HasNode(NodeId node) const = 0;

  /// Visit every node once.
  virtual void ForEachNode(const std::function<void(NodeId)>& fn) const = 0;

  /// Visit the links at `node`: out-links (start == node) for kOutgoing,
  /// in-links (end == node) for kIncoming, out-links then in-links for
  /// kBoth (a self-loop is visited twice). Unknown nodes have no links.
  virtual void ForEachLink(NodeId node, Direction direction,
                           const std::function<void(const Link&)>& fn)
      const = 0;
};

/// In-memory Network with explicit adjacency lists.
class LogicalNetwork final : public Network {
 public:
  /// Add a node; idempotent.
  void AddNode(NodeId node);

  /// Add a directed link. Endpoints are added implicitly. Fails with
  /// AlreadyExists if the link id is taken.
  Status AddLink(const Link& link);

  bool HasLink(LinkId link) const;
  const Link* GetLink(LinkId link) const;

  /// All node ids (unordered).
  std::vector<NodeId> Nodes() const;

  // ---- Network ----------------------------------------------------------

  size_t node_count() const override { return nodes_.size(); }
  size_t link_count() const override { return links_.size(); }
  bool HasNode(NodeId node) const override;
  void ForEachNode(const std::function<void(NodeId)>& fn) const override;
  void ForEachLink(NodeId node, Direction direction,
                   const std::function<void(const Link&)>& fn) const override;

 private:
  struct NodeRec {
    std::vector<LinkId> out;
    std::vector<LinkId> in;
  };

  std::unordered_map<NodeId, NodeRec> nodes_;
  std::unordered_map<LinkId, Link> links_;
};

}  // namespace rdfdb::ndm

#endif  // RDFDB_NDM_NETWORK_H_
