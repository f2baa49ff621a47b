#include "ndm/analysis.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <limits>
#include <queue>
#include <unordered_set>

namespace rdfdb::ndm {

namespace {

/// (neighbor node, via link, link cost) triples adjacent to `node` in the
/// requested direction.
void ForEachNeighbor(
    const Network& net, NodeId node, Direction direction,
    const std::function<void(NodeId, LinkId, double)>& fn) {
  net.ForEachLink(node, direction, [&](const Link& link) {
    fn(link.start == node ? link.end : link.start, link.id, link.cost);
  });
}

struct DijkstraState {
  std::unordered_map<NodeId, double> dist;
  std::unordered_map<NodeId, NodeId> prev_node;
  std::unordered_map<NodeId, LinkId> prev_link;
};

/// Run Dijkstra from `source`; stops early when `target` is settled (pass
/// nullptr to explore everything up to `max_cost`).
DijkstraState RunDijkstra(const Network& net, NodeId source,
                          const NodeId* target, double max_cost,
                          Direction direction) {
  DijkstraState state;
  if (!net.HasNode(source)) return state;
  using Entry = std::pair<double, NodeId>;  // (dist, node)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  state.dist[source] = 0.0;
  heap.emplace(0.0, source);
  std::unordered_set<NodeId> settled;

  while (!heap.empty()) {
    auto [d, u] = heap.top();
    heap.pop();
    if (settled.count(u)) continue;
    settled.insert(u);
    if (target != nullptr && u == *target) break;
    ForEachNeighbor(net, u, direction, [&](NodeId v, LinkId lid, double w) {
      double nd = d + w;
      if (nd > max_cost) return;
      auto it = state.dist.find(v);
      if (it == state.dist.end() || nd < it->second) {
        state.dist[v] = nd;
        state.prev_node[v] = u;
        state.prev_link[v] = lid;
        heap.emplace(nd, v);
      }
    });
  }
  return state;
}

PathResult ExtractPath(const DijkstraState& state, NodeId source,
                       NodeId target) {
  PathResult result;
  auto dit = state.dist.find(target);
  if (dit == state.dist.end()) return result;
  result.found = true;
  result.cost = dit->second;
  NodeId cur = target;
  while (cur != source) {
    result.nodes.push_back(cur);
    result.links.push_back(state.prev_link.at(cur));
    cur = state.prev_node.at(cur);
  }
  result.nodes.push_back(source);
  std::reverse(result.nodes.begin(), result.nodes.end());
  std::reverse(result.links.begin(), result.links.end());
  return result;
}

}  // namespace

PathResult ShortestPath(const Network& net, NodeId source,
                        NodeId target, Direction direction) {
  if (!net.HasNode(source) || !net.HasNode(target)) return {};
  DijkstraState state =
      RunDijkstra(net, source, &target,
                  std::numeric_limits<double>::infinity(), direction);
  return ExtractPath(state, source, target);
}

PathResult ShortestPathByHops(const Network& net, NodeId source,
                              NodeId target, Direction direction) {
  PathResult result;
  if (!net.HasNode(source) || !net.HasNode(target)) return result;
  std::unordered_map<NodeId, NodeId> prev_node;
  std::unordered_map<NodeId, LinkId> prev_link;
  std::unordered_set<NodeId> visited{source};
  std::deque<NodeId> frontier{source};
  bool found = source == target;

  while (!frontier.empty() && !found) {
    NodeId u = frontier.front();
    frontier.pop_front();
    ForEachNeighbor(net, u, direction, [&](NodeId v, LinkId lid, double) {
      if (found || visited.count(v)) return;
      visited.insert(v);
      prev_node[v] = u;
      prev_link[v] = lid;
      if (v == target) {
        found = true;
        return;
      }
      frontier.push_back(v);
    });
  }
  if (!found) return result;

  result.found = true;
  NodeId cur = target;
  while (cur != source) {
    result.nodes.push_back(cur);
    result.links.push_back(prev_link.at(cur));
    cur = prev_node.at(cur);
  }
  result.nodes.push_back(source);
  std::reverse(result.nodes.begin(), result.nodes.end());
  std::reverse(result.links.begin(), result.links.end());
  result.cost = static_cast<double>(result.links.size());
  return result;
}

std::unordered_map<NodeId, double> WithinCost(const Network& net,
                                              NodeId source, double max_cost,
                                              Direction direction) {
  DijkstraState state =
      RunDijkstra(net, source, nullptr, max_cost, direction);
  return std::move(state.dist);
}

std::vector<std::pair<NodeId, double>> NearestNeighbors(
    const Network& net, NodeId source, size_t k,
    Direction direction) {
  DijkstraState state =
      RunDijkstra(net, source, nullptr,
                  std::numeric_limits<double>::infinity(), direction);
  std::vector<std::pair<NodeId, double>> out;
  out.reserve(state.dist.size());
  for (const auto& [node, cost] : state.dist) {
    if (node != source) out.emplace_back(node, cost);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second < b.second;
    return a.first < b.first;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

bool Reachable(const Network& net, NodeId source, NodeId target,
               Direction direction) {
  if (!net.HasNode(source) || !net.HasNode(target)) return false;
  if (source == target) return true;
  std::unordered_set<NodeId> visited{source};
  std::deque<NodeId> frontier{source};
  while (!frontier.empty()) {
    NodeId u = frontier.front();
    frontier.pop_front();
    bool hit = false;
    ForEachNeighbor(net, u, direction, [&](NodeId v, LinkId, double) {
      if (hit || visited.count(v)) return;
      visited.insert(v);
      if (v == target) {
        hit = true;
        return;
      }
      frontier.push_back(v);
    });
    if (hit) return true;
  }
  return false;
}

std::unordered_map<NodeId, int> ConnectedComponents(const Network& net) {
  std::unordered_map<NodeId, int> component;
  int next_id = 0;
  net.ForEachNode([&](NodeId start) {
    if (component.count(start)) return;
    int id = next_id++;
    std::deque<NodeId> frontier{start};
    component[start] = id;
    while (!frontier.empty()) {
      NodeId u = frontier.front();
      frontier.pop_front();
      ForEachNeighbor(net, u, Direction::kBoth,
                      [&](NodeId v, LinkId, double) {
                        if (component.count(v)) return;
                        component[v] = id;
                        frontier.push_back(v);
                      });
    }
  });
  return component;
}

size_t ConnectedComponentCount(const Network& net) {
  auto component = ConnectedComponents(net);
  int max_id = -1;
  for (const auto& [node, id] : component) max_id = std::max(max_id, id);
  return static_cast<size_t>(max_id + 1);
}

namespace {

/// Prim per component over the undirected view: each chosen link with
/// its cost.
std::vector<std::pair<LinkId, double>> SpanningForest(const Network& net) {
  std::vector<std::pair<LinkId, double>> chosen;
  std::unordered_set<NodeId> in_tree;
  using Entry = std::pair<double, std::pair<LinkId, NodeId>>;
  net.ForEachNode([&](NodeId root) {
    if (in_tree.count(root)) return;
    in_tree.insert(root);
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    auto push_edges = [&](NodeId u) {
      ForEachNeighbor(net, u, Direction::kBoth,
                      [&](NodeId v, LinkId lid, double w) {
                        if (!in_tree.count(v)) {
                          heap.emplace(w, std::make_pair(lid, v));
                        }
                      });
    };
    push_edges(root);
    while (!heap.empty()) {
      auto [w, entry] = heap.top();
      heap.pop();
      auto [lid, v] = entry;
      if (in_tree.count(v)) continue;
      in_tree.insert(v);
      chosen.emplace_back(lid, w);
      push_edges(v);
    }
  });
  return chosen;
}

}  // namespace

std::vector<LinkId> MinimumCostSpanningForest(const Network& net) {
  std::vector<LinkId> links;
  for (const auto& [lid, cost] : SpanningForest(net)) links.push_back(lid);
  return links;
}

double SpanningForestCost(const Network& net) {
  double total = 0.0;
  for (const auto& [lid, cost] : SpanningForest(net)) total += cost;
  return total;
}

LogicalNetwork ExtractSubnetwork(const Network& net,
                                 const std::vector<NodeId>& nodes) {
  LogicalNetwork sub;
  std::unordered_set<NodeId> keep(nodes.begin(), nodes.end());
  for (NodeId node : nodes) {
    if (net.HasNode(node)) sub.AddNode(node);
  }
  for (NodeId node : nodes) {
    net.ForEachLink(node, Direction::kOutgoing, [&](const Link& link) {
      if (keep.count(link.end) > 0 && !sub.HasLink(link.id)) {
        (void)sub.AddLink(link);
      }
    });
  }
  return sub;
}

LogicalNetwork NeighborhoodSubnetwork(const Network& net,
                                      NodeId source, double max_cost,
                                      Direction direction) {
  auto costs = WithinCost(net, source, max_cost, direction);
  std::vector<NodeId> nodes;
  nodes.reserve(costs.size());
  for (const auto& [node, cost] : costs) nodes.push_back(node);
  return ExtractSubnetwork(net, nodes);
}

std::vector<NodeId> BreadthFirstOrder(const Network& net,
                                      NodeId source, Direction direction) {
  std::vector<NodeId> order;
  if (!net.HasNode(source)) return order;
  std::unordered_set<NodeId> visited{source};
  std::deque<NodeId> frontier{source};
  while (!frontier.empty()) {
    NodeId u = frontier.front();
    frontier.pop_front();
    order.push_back(u);
    // Collect then sort for deterministic order across hash-map layouts.
    std::vector<NodeId> next;
    ForEachNeighbor(net, u, direction, [&](NodeId v, LinkId, double) {
      if (!visited.count(v)) {
        visited.insert(v);
        next.push_back(v);
      }
    });
    std::sort(next.begin(), next.end());
    for (NodeId v : next) frontier.push_back(v);
  }
  return order;
}

}  // namespace rdfdb::ndm
