// Traceroute ingestion (stands in for the paper's PlanetLab tomographer).
//
// Parses a simple text dump of traceroute-discovered paths and an optional
// router->AS mapping, and builds a measured system whose correlation sets
// group links by administrative domain — the paper's "all links in the same
// AS are correlated" deployment mode (§5, Ongoing Work).
//
// Input format, line oriented, '#' comments:
//   trace <hop> <hop> <hop> ...     # one traceroute, >= 2 hops
//   asn <hop> <as-number>           # router-to-AS assignment
//
// Hops are arbitrary tokens (hostnames or addresses). Consecutive distinct
// hops become directed links. Traces with repeated hops (routing loops) are
// rejected. A link is assigned to AS a's correlation set when *both* of its
// endpoints map to AS a; links crossing domains (or with unmapped ends)
// become singleton sets.
#pragma once

#include <iosfwd>

#include "graph/serialize.hpp"

namespace tomo::topogen {

/// Parses the traceroute dump into a measured system. Duplicate traces
/// (identical hop sequences) are collapsed into one path. Throws
/// tomo::Error with line numbers on malformed input.
graph::MeasuredSystem parse_traceroutes(std::istream& is);

}  // namespace tomo::topogen
