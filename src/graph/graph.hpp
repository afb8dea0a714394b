// Directed network graph.
//
// Nodes represent traffic-handling network elements (hosts, switches,
// routers, border routers); links are *logical* directed edges — an edge in
// the measured graph may stand for a whole sequence of physical links,
// which is exactly what makes link correlation possible (paper §2.1).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace tomo::graph {

using NodeId = std::size_t;
using LinkId = std::size_t;

/// A directed logical link between two network elements.
struct Link {
  NodeId src;
  NodeId dst;
};

class Graph {
 public:
  Graph() = default;

  /// Adds a node; `name` is optional and used only for diagnostics.
  NodeId add_node(std::string name = {});

  /// Adds a directed link src -> dst. Self-loops are rejected; parallel
  /// links are allowed (two logical links can join the same node pair).
  LinkId add_link(NodeId src, NodeId dst);

  std::size_t node_count() const { return node_names_.size(); }
  std::size_t link_count() const { return links_.size(); }

  const Link& link(LinkId id) const;
  const std::string& node_name(NodeId id) const;

  /// Link ids leaving / entering a node.
  const std::vector<LinkId>& out_links(NodeId id) const;
  const std::vector<LinkId>& in_links(NodeId id) const;

 private:
  void check_node(NodeId id) const;

  std::vector<std::string> node_names_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> out_;
  std::vector<std::vector<LinkId>> in_;
};

}  // namespace tomo::graph
