#include "graph/graph.hpp"

#include "util/error.hpp"

namespace tomo::graph {

NodeId Graph::add_node(std::string name) {
  if (name.empty()) {
    // Not "v" + to_string(...): GCC 12 -O3 warns (-Wrestrict) inside that
    // inlined concatenation, which -Werror builds reject.
    name = std::to_string(node_names_.size());
    name.insert(name.begin(), 'v');
  }
  node_names_.push_back(std::move(name));
  out_.emplace_back();
  in_.emplace_back();
  return node_names_.size() - 1;
}

LinkId Graph::add_link(NodeId src, NodeId dst) {
  check_node(src);
  check_node(dst);
  TOMO_REQUIRE(src != dst, "self-loop links are not allowed");
  links_.push_back(Link{src, dst});
  const LinkId id = links_.size() - 1;
  out_[src].push_back(id);
  in_[dst].push_back(id);
  return id;
}

const Link& Graph::link(LinkId id) const {
  TOMO_REQUIRE(id < links_.size(), "link id out of range");
  return links_[id];
}

const std::string& Graph::node_name(NodeId id) const {
  check_node(id);
  return node_names_[id];
}

const std::vector<LinkId>& Graph::out_links(NodeId id) const {
  check_node(id);
  return out_[id];
}

const std::vector<LinkId>& Graph::in_links(NodeId id) const {
  check_node(id);
  return in_[id];
}

void Graph::check_node(NodeId id) const {
  TOMO_REQUIRE(id < node_names_.size(), "node id out of range");
}

}  // namespace tomo::graph
