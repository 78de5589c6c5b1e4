// Internal to avcp_roadnet: the per-metric segment cost, the flat adjacency
// and the Dijkstra heap that the Brandes pass (betweenness.cpp) and routing
// (shortest_path.cpp) share, so the library has one Dijkstra heap. Not part
// of the public interface.
//
// Everything here has internal linkage, as it had when it lived inside
// betweenness.cpp: each includer's optimiser sees private definitions it
// may inline and specialise freely, so the Brandes pass compiles to the
// same code as before (DESIGN §3).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "roadnet/betweenness.h"
#include "roadnet/road_graph.h"

namespace avcp::roadnet {

namespace {

/// The cost of traversing segment `s` under `metric`.
double segment_cost(const RoadGraph& g, SegmentId s, PathMetric metric) {
  switch (metric) {
    case PathMetric::kHops:
      return 1.0;
    case PathMetric::kDistance:
      return g.segment(s).length_m;
    case PathMetric::kTravelTime:
      return g.segment(s).travel_time_s();
  }
  return 1.0;
}

/// Read-only CSR copy of the graph's adjacency for one batch of passes:
/// node v's arcs are arcs[begin[v], begin[v + 1]) in neighbors(v) order,
/// with weight[a] = weights[arcs[a].segment] beside them (empty on the
/// kHops BFS path). Each entry point builds one and shares it across its
/// chunk tasks, so the pass walks contiguous arrays instead of calling
/// neighbors() and gathering weights per arc.
struct FlatAdjacency {
  FlatAdjacency(const RoadGraph& g, std::span<const double> weights) {
    const std::size_t n = g.num_intersections();
    begin.resize(n + 1);
    arcs.reserve(2 * g.num_segments());
    for (NodeId v = 0; v < n; ++v) {
      const std::span<const Hop> hops = g.neighbors(v);
      arcs.insert(arcs.end(), hops.begin(), hops.end());
      begin[v + 1] = static_cast<std::uint32_t>(arcs.size());
    }
    if (weights.empty()) return;
    weight.resize(arcs.size());
    for (std::size_t a = 0; a < arcs.size(); ++a) {
      weight[a] = weights[arcs[a].segment];
    }
  }

  std::size_t num_nodes() const noexcept { return begin.size() - 1; }

  std::vector<std::uint32_t> begin;
  std::vector<Hop> arcs;
  std::vector<double> weight;
};

/// Dijkstra's heap entry: the bit pattern of a tentative distance and the
/// node it reaches.
struct HeapKey {
  std::uint64_t dist_bits;
  NodeId node;
};

/// Lexicographic (dist, node) order. The compares combine through bitwise
/// & and |, so choosing between two children costs no data-dependent
/// branch: which child is smaller is a coin flip to a branch predictor.
bool key_less(const HeapKey& a, const HeapKey& b) {
  return (a.dist_bits < b.dist_bits) |
         ((a.dist_bits == b.dist_bits) & (a.node < b.node));
}

// Dijkstra's binary min-heap over HeapKey, with lazy deletion (a node is
// pushed again on every strict improvement and its stale entries are
// skipped when popped). It pops in ascending (dist, node) order of the
// distances as doubles, the order any exact priority queue over
// (double, NodeId) pairs pops in, so the settle order and every output bit
// do not depend on how the heap is built, because:
//  - (dist, node) is a strict total order over the heap's entries, stale
//    ones included: a node is pushed again only with a strictly smaller
//    dist, so no two entries tie;
//  - dist starts at +0.0 at the source and grows only by adding
//    non-negative weights;
//  - a NaN or infinite candidate never passes the strict-improvement test
//    (nd < dist[w], less a tolerance in the Brandes pass, is false for
//    both), so every key is a finite non-negative double, and those order
//    exactly like their bit patterns read as unsigned integers.

void heap_sift_up(std::vector<HeapKey>& heap, std::size_t hole, HeapKey key) {
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (!key_less(key, heap[parent])) break;
    heap[hole] = heap[parent];
    hole = parent;
  }
  heap[hole] = key;
}

void heap_push(std::vector<HeapKey>& heap, HeapKey key) {
  heap.push_back(key);
  heap_sift_up(heap, heap.size() - 1, key);
}

/// Removes and returns the minimum, bottom-up: the hole at the root walks
/// to a leaf along the smaller child, one branch-free compare per level,
/// and the former last entry, usually among the largest, sifts up from
/// that leaf, usually not far.
HeapKey heap_pop(std::vector<HeapKey>& heap) {
  const HeapKey top = heap.front();
  const HeapKey last = heap.back();
  heap.pop_back();
  const std::size_t size = heap.size();
  if (size == 0) return top;
  std::size_t hole = 0;
  std::size_t child = 1;
  for (; child + 1 < size; child = 2 * hole + 1) {
    child += static_cast<std::size_t>(key_less(heap[child + 1], heap[child]));
    heap[hole] = heap[child];
    hole = child;
  }
  if (child < size) {
    heap[hole] = heap[child];
    hole = child;
  }
  heap_sift_up(heap, hole, last);
  return top;
}

}  // namespace

}  // namespace avcp::roadnet
