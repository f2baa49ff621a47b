#include "ndm/network.h"

namespace rdfdb::ndm {

void LogicalNetwork::AddNode(NodeId node) { nodes_.try_emplace(node); }

Status LogicalNetwork::AddLink(const Link& link) {
  if (links_.count(link.id) > 0) {
    return Status::AlreadyExists("link " + std::to_string(link.id));
  }
  links_.emplace(link.id, link);
  nodes_[link.start].out.push_back(link.id);
  nodes_[link.end].in.push_back(link.id);
  return Status::OK();
}

bool LogicalNetwork::HasNode(NodeId node) const {
  return nodes_.count(node) > 0;
}

bool LogicalNetwork::HasLink(LinkId link) const {
  return links_.count(link) > 0;
}

const Link* LogicalNetwork::GetLink(LinkId link) const {
  auto it = links_.find(link);
  return it == links_.end() ? nullptr : &it->second;
}

std::vector<NodeId> LogicalNetwork::Nodes() const {
  std::vector<NodeId> out;
  out.reserve(nodes_.size());
  for (const auto& [id, rec] : nodes_) out.push_back(id);
  return out;
}

void LogicalNetwork::ForEachNode(
    const std::function<void(NodeId)>& fn) const {
  for (const auto& [id, rec] : nodes_) fn(id);
}

void LogicalNetwork::ForEachLink(
    NodeId node, Direction direction,
    const std::function<void(const Link&)>& fn) const {
  auto it = nodes_.find(node);
  if (it == nodes_.end()) return;
  if (direction != Direction::kIncoming) {
    for (LinkId id : it->second.out) fn(links_.at(id));
  }
  if (direction != Direction::kOutgoing) {
    for (LinkId id : it->second.in) fn(links_.at(id));
  }
}

}  // namespace rdfdb::ndm
