#pragma once
/// \file sp_reference.hpp
/// Dense reference Dijkstra: the independent oracle the library's
/// shortest-path engine (graph::DijkstraWorkspace) is checked against.
///
/// Deliberately the plain textbook form — std::priority_queue (binary heap),
/// O(n) dist/parent arrays allocated per call, no epoch stamps, no CSR — so
/// it shares no machinery with the code under test.
#include <functional>
#include <queue>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace localspan::testinfra {

/// Dense result: dist[v] = min over sources of sp(s, v) when that is
/// <= radius, else graph::kInf; parent[v] on a shortest-path tree, -1 at
/// sources and unreached vertices.
struct DenseSp {
  std::vector<double> dist;
  std::vector<int> parent;
};

/// Multi-source Dijkstra settling only vertices within `radius`. When
/// `weight` is set, every stored edge weight is mapped through it first.
inline DenseSp dense_dijkstra(const graph::Graph& g, std::span<const int> sources,
                              double radius = graph::kInf,
                              const std::function<double(double)>& weight = {}) {
  if (radius < 0.0) throw std::invalid_argument("dense_dijkstra: negative radius");
  const auto n = static_cast<std::size_t>(g.n());
  DenseSp sp{std::vector<double>(n, graph::kInf), std::vector<int>(n, -1)};
  using Item = std::pair<double, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  for (int s : sources) {
    if (s < 0 || s >= g.n()) throw std::invalid_argument("dense_dijkstra: source out of range");
    sp.dist[static_cast<std::size_t>(s)] = 0.0;
    pq.push({0.0, s});
  }
  while (!pq.empty()) {
    const auto [d, v] = pq.top();
    pq.pop();
    if (d > sp.dist[static_cast<std::size_t>(v)]) continue;  // stale entry
    for (const graph::Neighbor& nb : g.neighbors(v)) {
      const double nd = d + (weight ? weight(nb.w) : nb.w);
      if (nd <= radius && nd < sp.dist[static_cast<std::size_t>(nb.to)]) {
        sp.dist[static_cast<std::size_t>(nb.to)] = nd;
        sp.parent[static_cast<std::size_t>(nb.to)] = v;
        pq.push({nd, nb.to});
      }
    }
  }
  return sp;
}

/// Single-source form.
inline DenseSp dense_dijkstra(const graph::Graph& g, int src, double radius = graph::kInf) {
  const int sources[1] = {src};
  return dense_dijkstra(g, sources, radius);
}

}  // namespace localspan::testinfra
