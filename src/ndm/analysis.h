// NDM network-analysis functions.
//
// These are the analyses Oracle's Network Data Model exposes; the paper's
// point is that, because RDF triples *are* NDM links, "all the NDM
// functionality is exposed to RDF data". The functions read the Network
// interface, so they run directly over the RDF store's own tables.

#ifndef RDFDB_NDM_ANALYSIS_H_
#define RDFDB_NDM_ANALYSIS_H_

#include <unordered_map>
#include <vector>

#include "ndm/network.h"

namespace rdfdb::ndm {

/// Result of a path search.
struct PathResult {
  bool found = false;
  double cost = 0.0;
  std::vector<NodeId> nodes;  ///< source..target, inclusive
  std::vector<LinkId> links;  ///< links taken, size == nodes.size()-1
};

/// Dijkstra shortest path by link cost. Costs must be non-negative.
PathResult ShortestPath(const Network& net, NodeId source,
                        NodeId target,
                        Direction direction = Direction::kOutgoing);

/// Minimum-hop path (BFS, ignores costs).
PathResult ShortestPathByHops(const Network& net, NodeId source,
                              NodeId target,
                              Direction direction = Direction::kOutgoing);

/// All nodes reachable within `max_cost` of `source`, with their costs
/// (includes `source` at cost 0).
std::unordered_map<NodeId, double> WithinCost(
    const Network& net, NodeId source, double max_cost,
    Direction direction = Direction::kOutgoing);

/// The `k` nearest nodes to `source` by path cost, ascending (excludes
/// `source` itself).
std::vector<std::pair<NodeId, double>> NearestNeighbors(
    const Network& net, NodeId source, size_t k,
    Direction direction = Direction::kOutgoing);

/// True if `target` is reachable from `source`.
bool Reachable(const Network& net, NodeId source, NodeId target,
               Direction direction = Direction::kOutgoing);

/// Weakly-connected components: component id per node (ids are dense,
/// starting at 0). Nodes in the same component share an id.
std::unordered_map<NodeId, int> ConnectedComponents(const Network& net);

/// Number of weakly-connected components.
size_t ConnectedComponentCount(const Network& net);

/// Minimum-cost spanning forest over the undirected view (Prim per
/// component). Returns chosen link ids.
std::vector<LinkId> MinimumCostSpanningForest(const Network& net);

/// Sum of costs of the links returned by MinimumCostSpanningForest.
double SpanningForestCost(const Network& net);

/// Nodes in BFS order from `source`.
std::vector<NodeId> BreadthFirstOrder(const Network& net,
                                      NodeId source,
                                      Direction direction =
                                          Direction::kOutgoing);

/// Extract the induced subnetwork over `nodes`: all listed nodes plus
/// every link with both endpoints in the set. (NDM's sub-network
/// extraction for focused analysis.)
LogicalNetwork ExtractSubnetwork(const Network& net,
                                 const std::vector<NodeId>& nodes);

/// The neighbourhood subnetwork within `max_cost` of `source`
/// (convenience: WithinCost + ExtractSubnetwork).
LogicalNetwork NeighborhoodSubnetwork(const Network& net,
                                      NodeId source, double max_cost,
                                      Direction direction =
                                          Direction::kBoth);

}  // namespace rdfdb::ndm

#endif  // RDFDB_NDM_ANALYSIS_H_
