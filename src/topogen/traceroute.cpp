#include "topogen/traceroute.hpp"

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace tomo::topogen {

graph::MeasuredSystem parse_traceroutes(std::istream& is) {
  std::string line;
  std::size_t line_no = 0;
  auto fail = [&](const std::string& what) -> void {
    throw Error("traceroute line " + std::to_string(line_no) + ": " + what);
  };

  std::vector<std::vector<std::string>> traces;
  std::map<std::string, long> as_of;
  std::set<std::vector<std::string>> seen_traces;

  while (std::getline(is, line)) {
    ++line_no;
    // Dumps written on Windows (or fetched through HTTP) arrive with CRLF
    // endings; getline leaves the '\r' on the line. Strip it — and any
    // other trailing whitespace — so the last token of a line never grows
    // a phantom control character.
    const auto last = line.find_last_not_of(" \t\r\f\v");
    line.erase(last == std::string::npos ? 0 : last + 1);
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string tag;
    if (!(ls >> tag)) continue;
    if (tag == "trace") {
      std::vector<std::string> hops;
      std::string hop;
      while (ls >> hop) hops.push_back(hop);
      if (hops.size() < 2) fail("trace needs at least two hops");
      std::set<std::string> unique;
      for (const std::string& h : hops) {
        if (!unique.insert(h).second) {
          fail("trace revisits hop '" + h + "' (routing loop)");
        }
      }
      if (seen_traces.insert(hops).second) {
        traces.push_back(std::move(hops));
      }
    } else if (tag == "asn") {
      std::string hop;
      long asn;
      if (!(ls >> hop >> asn)) fail("malformed asn line");
      auto [it, inserted] = as_of.emplace(hop, asn);
      if (!inserted && it->second != asn) {
        fail("hop '" + hop + "' mapped to two AS numbers");
      }
    } else {
      fail("unknown tag '" + tag + "'");
    }
  }
  TOMO_REQUIRE(!traces.empty(), "traceroute input contains no traces");

  graph::MeasuredSystem system;
  std::map<std::string, graph::NodeId> node_of;
  auto node = [&](const std::string& name) {
    auto it = node_of.find(name);
    if (it != node_of.end()) return it->second;
    const graph::NodeId id = system.graph.add_node(name);
    node_of.emplace(name, id);
    return id;
  };

  std::map<std::pair<graph::NodeId, graph::NodeId>, graph::LinkId> link_of;
  std::vector<std::pair<std::string, std::string>> link_hops;
  auto link = [&](graph::NodeId src, graph::NodeId dst,
                  const std::string& hs, const std::string& hd) {
    auto it = link_of.find({src, dst});
    if (it != link_of.end()) return it->second;
    const graph::LinkId id = system.graph.add_link(src, dst);
    link_of.emplace(std::make_pair(src, dst), id);
    link_hops.emplace_back(hs, hd);
    return id;
  };

  for (const auto& hops : traces) {
    std::vector<graph::LinkId> links;
    for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
      links.push_back(
          link(node(hops[i]), node(hops[i + 1]), hops[i], hops[i + 1]));
    }
    system.paths.emplace_back(system.graph, std::move(links));
  }

  // Correlation sets: links whose two endpoints share an AS are grouped by
  // that AS; everything else is a singleton.
  std::map<long, std::vector<graph::LinkId>> by_as;
  std::vector<graph::LinkId> singles;
  for (graph::LinkId e = 0; e < system.graph.link_count(); ++e) {
    const auto& [hs, hd] = link_hops[e];
    auto a = as_of.find(hs);
    auto b = as_of.find(hd);
    if (a != as_of.end() && b != as_of.end() && a->second == b->second) {
      by_as[a->second].push_back(e);
    } else {
      singles.push_back(e);
    }
  }
  for (auto& [asn, links] : by_as) {
    system.partition.push_back(std::move(links));
  }
  for (graph::LinkId e : singles) {
    system.partition.push_back({e});
  }
  return system;
}

}  // namespace tomo::topogen
