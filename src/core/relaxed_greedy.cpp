#include "core/relaxed_greedy.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <unordered_map>

#include "core/greedy.hpp"
#include "graph/components.hpp"
#include "mis/luby.hpp"
#include "mis/mis.hpp"
#include "obs/obs.hpp"
#include "runtime/parallel.hpp"

namespace localspan::core {

namespace detail {

bool is_covered_edge(const ubg::UbgInstance& inst, const graph::Graph& gp, const PhaseEdge& e,
                     double theta) {
  const double alpha = inst.config.alpha;
  const auto test_side = [&](int u, int v) {
    // Looking for z with {u,z} in G'_{i-1}, |vz| <= alpha, angle vuz <= theta.
    const geom::Point& pu = inst.points[static_cast<std::size_t>(u)];
    const geom::Point& pv = inst.points[static_cast<std::size_t>(v)];
    for (const graph::Neighbor& nb : gp.neighbors(u)) {
      const int z = nb.to;
      if (z == v) continue;
      const geom::Point& pz = inst.points[static_cast<std::size_t>(z)];
      if (geom::distance(pv, pz) > alpha) continue;
      const double duz = geom::distance(pu, pz);
      if (duz == 0.0) continue;                          // degenerate ray
      if (duz > geom::distance(pu, pv)) continue;        // Lemma 3 needs |uz| <= |uv|
      if (geom::angle_at(pu, pv, pz) <= theta) return true;
    }
    return false;
  };
  return test_side(e.u, e.v) || test_side(e.v, e.u);
}

bool is_covered_edge(const graph::SoaPoints& pts, double alpha, const graph::Graph& gp,
                     const PhaseEdge& e, double theta) {
  const auto test_side = [&](int u, int v) {
    for (const graph::Neighbor& nb : gp.neighbors(u)) {
      const int z = nb.to;
      if (z == v) continue;
      if (pts.distance(v, z) > alpha) continue;
      const double duz = pts.distance(u, z);
      if (duz == 0.0) continue;                    // degenerate ray
      if (duz > pts.distance(u, v)) continue;      // Lemma 3 needs |uz| <= |uv|
      if (pts.angle_at(u, v, z) <= theta) return true;
    }
    return false;
  };
  return test_side(e.u, e.v) || test_side(e.v, e.u);
}

std::vector<PhaseEdge> select_query_edges(const std::vector<PhaseEdge>& candidates,
                                          const cluster::ClusterCover& cover, double t,
                                          int* per_cluster_max) {
  struct Best {
    double objective;
    PhaseEdge edge;
  };
  // The winner per cluster pair is the lexicographic minimum by
  // (objective, (u, v)) — a total order, so candidate order cannot matter.
  std::map<std::pair<int, int>, Best> best_per_pair;
  for (const PhaseEdge& e : candidates) {
    const double objective = t * e.w - cover.dist_to_center[static_cast<std::size_t>(e.u)] -
                             cover.dist_to_center[static_cast<std::size_t>(e.v)];
    const auto key = std::minmax(cover.center_of[static_cast<std::size_t>(e.u)],
                                 cover.center_of[static_cast<std::size_t>(e.v)]);
    auto it = best_per_pair.find(key);
    if (it == best_per_pair.end()) {
      best_per_pair.emplace(key, Best{objective, e});
    } else if (objective < it->second.objective ||
               (objective == it->second.objective &&
                std::pair(e.u, e.v) < std::pair(it->second.edge.u, it->second.edge.v))) {
      it->second = Best{objective, e};
    }
  }
  std::vector<PhaseEdge> selected;
  selected.reserve(best_per_pair.size());
  std::unordered_map<int, int> incident;
  for (const auto& [key, b] : best_per_pair) {
    selected.push_back(b.edge);
    ++incident[key.first];
    if (key.second != key.first) ++incident[key.second];
  }
  if (per_cluster_max != nullptr) {
    int mx = 0;
    for (const auto& [c, cnt] : incident) mx = std::max(mx, cnt);
    *per_cluster_max = mx;
  }
  return selected;
}

std::vector<PhaseEdge> answer_queries(const graph::Graph& h, const std::vector<PhaseEdge>& queries,
                                      double t, int* max_hops) {
  graph::DijkstraWorkspace ws(h.n());
  return answer_queries(ws, h, queries, t, max_hops);
}

std::vector<PhaseEdge> answer_queries(graph::DijkstraWorkspace& ws, const graph::Graph& h,
                                      const std::vector<PhaseEdge>& queries, double t,
                                      int* max_hops, runtime::WorkerPool* pool) {
  // Each query is an independent early-exit bounded search on the frozen H;
  // with a pool, answers are harvested in parallel and committed in query
  // order, so to_add and the hop statistic are identical for every thread
  // count (max over ints is order-insensitive anyway). The serial path
  // streams — no per-call answer buffers on the dynamic repair hot path.
  std::vector<PhaseEdge> to_add;
  int worst_hops = 0;
  if (pool == nullptr || pool->threads() == 1) {
    for (const PhaseEdge& q : queries) {
      const double bound = t * q.w;
      int hops = -1;
      const double d = cluster::query_on_h(ws, h, q.u, q.v, bound, &hops);
      if (d <= bound) {
        worst_hops = std::max(worst_hops, hops);  // answered positively on H
      } else {
        to_add.push_back(q);
      }
    }
  } else {
    const int k = static_cast<int>(queries.size());
    std::vector<double> dist(static_cast<std::size_t>(k));
    std::vector<int> hops(static_cast<std::size_t>(k));
    pool->for_each(0, k, [&](int worker, int i) {
      const PhaseEdge& q = queries[static_cast<std::size_t>(i)];
      dist[static_cast<std::size_t>(i)] = cluster::query_on_h(
          pool->workspace(worker), h, q.u, q.v, t * q.w, &hops[static_cast<std::size_t>(i)]);
    });
    for (int i = 0; i < k; ++i) {
      const PhaseEdge& q = queries[static_cast<std::size_t>(i)];
      if (dist[static_cast<std::size_t>(i)] <= t * q.w) {
        worst_hops = std::max(worst_hops, hops[static_cast<std::size_t>(i)]);
      } else {
        to_add.push_back(q);
      }
    }
  }
  if (max_hops != nullptr) *max_hops = worst_hops;
  return to_add;
}

graph::Graph redundancy_conflict_graph(const graph::Graph& h, const std::vector<PhaseEdge>& added,
                                       double t1) {
  graph::DijkstraWorkspace ws(h.n());
  return redundancy_conflict_graph(ws, h, added, t1);
}

graph::Graph redundancy_conflict_graph(graph::DijkstraWorkspace& ws, const graph::Graph& h,
                                       const std::vector<PhaseEdge>& added, double t1) {
  const int k = static_cast<int>(added.size());
  graph::Graph j(k);
  if (k < 2) return j;
  double max_w = 0.0;
  for (const PhaseEdge& e : added) max_w = std::max(max_w, e.w);
  const double bound = t1 * max_w;

  // Index the distinct endpoints of `added` and the edges incident to each.
  std::vector<int> index_of(static_cast<std::size_t>(h.n()), -1);
  std::vector<int> endpoints;
  for (const PhaseEdge& e : added) {
    for (int p : {e.u, e.v}) {
      if (index_of[static_cast<std::size_t>(p)] == -1) {
        index_of[static_cast<std::size_t>(p)] = static_cast<int>(endpoints.size());
        endpoints.push_back(p);
      }
    }
  }
  const int ne = static_cast<int>(endpoints.size());
  std::vector<std::vector<int>> edges_of(static_cast<std::size_t>(ne));
  for (int a = 0; a < k; ++a) {
    edges_of[static_cast<std::size_t>(index_of[static_cast<std::size_t>(added[static_cast<std::size_t>(a)].u)])].push_back(a);
    edges_of[static_cast<std::size_t>(index_of[static_cast<std::size_t>(added[static_cast<std::size_t>(a)].v)])].push_back(a);
  }

  // One bounded search per endpoint, kept *sparse*: only distances to other
  // endpoints survive (harvested from the touched list, so each row costs
  // O(|ball|), not O(k) — and nothing is O(n)).
  std::vector<std::vector<std::pair<int, double>>> rows(static_cast<std::size_t>(ne));
  for (int r = 0; r < ne; ++r) {
    const graph::SpView sp = ws.bounded(h, endpoints[static_cast<std::size_t>(r)], bound);
    for (int v : sp.touched()) {
      const int q = index_of[static_cast<std::size_t>(v)];
      if (q != -1) rows[static_cast<std::size_t>(r)].push_back({q, sp.dist(v)});
    }
  }

  // Enumerate only pairs that can possibly conflict. Both §2.2.5 pairings
  // need sp(e.u, f.u) or sp(e.u, f.v) finite within the bound, so every
  // conflict partner of edge a = {e.u, e.v} has an endpoint in e.u's row —
  // the all-pairs O(k^2) sweep becomes output-sensitive in the ball sizes.
  std::vector<double> du(static_cast<std::size_t>(ne)), dv(static_cast<std::size_t>(ne));
  std::vector<int> du_stamp(static_cast<std::size_t>(ne), -1);
  std::vector<int> dv_stamp(static_cast<std::size_t>(ne), -1);
  std::vector<int> seen(static_cast<std::size_t>(k), -1);
  for (int a = 0; a < k; ++a) {
    const PhaseEdge& e = added[static_cast<std::size_t>(a)];
    const int ru = index_of[static_cast<std::size_t>(e.u)];
    const int rv = index_of[static_cast<std::size_t>(e.v)];
    for (const auto& [q, d] : rows[static_cast<std::size_t>(ru)]) {
      du[static_cast<std::size_t>(q)] = d;
      du_stamp[static_cast<std::size_t>(q)] = a;
    }
    for (const auto& [q, d] : rows[static_cast<std::size_t>(rv)]) {
      dv[static_cast<std::size_t>(q)] = d;
      dv_stamp[static_cast<std::size_t>(q)] = a;
    }
    const auto d_from_u = [&](int q) {
      return du_stamp[static_cast<std::size_t>(q)] == a ? du[static_cast<std::size_t>(q)]
                                                        : graph::kInf;
    };
    const auto d_from_v = [&](int q) {
      return dv_stamp[static_cast<std::size_t>(q)] == a ? dv[static_cast<std::size_t>(q)]
                                                        : graph::kInf;
    };
    for (const auto& [q, dq] : rows[static_cast<std::size_t>(ru)]) {
      for (int b : edges_of[static_cast<std::size_t>(q)]) {
        if (b <= a || seen[static_cast<std::size_t>(b)] == a) continue;
        seen[static_cast<std::size_t>(b)] = a;
        const PhaseEdge& f = added[static_cast<std::size_t>(b)];
        const int fu = index_of[static_cast<std::size_t>(f.u)];
        const int fv = index_of[static_cast<std::size_t>(f.v)];
        // Conditions (i)+(ii) of §2.2.5, tried under both endpoint pairings
        // (sp is symmetric, so each pairing shares one connection sum S).
        const double s1 = d_from_u(fu) + d_from_v(fv);
        const double s2 = d_from_u(fv) + d_from_v(fu);
        const bool pairing1 = s1 + f.w <= t1 * e.w && s1 + e.w <= t1 * f.w;
        const bool pairing2 = s2 + f.w <= t1 * e.w && s2 + e.w <= t1 * f.w;
        if (pairing1 || pairing2) j.add_edge(a, b, 1.0);
      }
    }
  }
  return j;
}

std::vector<int> redundant_edge_removal(
    const graph::Graph& h, const std::vector<PhaseEdge>& added, double t1,
    const std::function<std::vector<int>(const graph::Graph&)>& mis) {
  graph::DijkstraWorkspace ws(h.n());
  return redundant_edge_removal(ws, h, added, t1, mis);
}

std::vector<int> redundant_edge_removal(
    graph::DijkstraWorkspace& ws, const graph::Graph& h, const std::vector<PhaseEdge>& added,
    double t1, const std::function<std::vector<int>(const graph::Graph&)>& mis) {
  const graph::Graph j = redundancy_conflict_graph(ws, h, added, t1);
  if (j.m() == 0) return {};
  const std::vector<int> keep = mis(j);
  std::vector<char> kept(static_cast<std::size_t>(j.n()), 0);
  for (int v : keep) kept[static_cast<std::size_t>(v)] = 1;
  std::vector<int> remove;
  for (int v = 0; v < j.n(); ++v) {
    // Only nodes participating in a redundant pair are in V(J) per the
    // paper; isolated nodes here correspond to non-participating edges and
    // are always kept.
    if (!kept[static_cast<std::size_t>(v)] && j.degree(v) > 0) remove.push_back(v);
  }
  return remove;
}

const RgMetrics& rg_metrics() {
  static const RgMetrics m;
  return m;
}

std::function<double(double)> weight_transform(const RelaxedGreedyOptions& opts) {
  if (opts.weight_transform) return opts.weight_transform;
  return [](double len) { return len; };
}

PhaseStats process_short_edges(const ubg::UbgInstance& inst, const graph::SoaPoints& pts,
                               const std::vector<graph::Edge>& bin0,
                               const std::function<double(double)>& transform, const Params& params,
                               int clique_cap, graph::Graph& spanner, int* component_count) {
  PhaseStats st;
  st.bin = 0;
  st.w_hi = params.alpha / inst.g.n();
  st.edges_in_bin = static_cast<int>(bin0.size());
  graph::Graph g0(inst.g.n());
  for (const graph::Edge& e : bin0) g0.add_edge(e.u, e.v, e.w);
  const auto weight = [&](int u, int v) {
    return transform(std::max(pts.distance(u, v), 1e-12));
  };
  int components = 0;
  for (const std::vector<int>& members : graph::connected_components(g0).groups()) {
    if (members.size() < 2) continue;
    ++components;
    std::vector<graph::Edge> chosen;
    if (static_cast<int>(members.size()) <= clique_cap) {
      chosen = seq_greedy_clique(members, weight, params.t);
    } else {
      // Safety valve for adversarially dense components: greedy over the
      // component-internal UBG edges (a superset of spanner needs; see
      // options doc). Edges leaving the component belong to later bins.
      std::vector<char> in_comp(static_cast<std::size_t>(inst.g.n()), 0);
      for (int u : members) in_comp[static_cast<std::size_t>(u)] = 1;
      graph::Graph local(inst.g.n());
      for (int u : members) {
        for (const graph::Neighbor& nb : inst.g.neighbors(u)) {
          if (u < nb.to && in_comp[static_cast<std::size_t>(nb.to)]) {
            local.add_edge(u, nb.to, weight(u, nb.to));
          }
        }
      }
      chosen = seq_greedy(local, params.t).edges();
    }
    for (const graph::Edge& e : chosen) {
      if (spanner.add_edge(e.u, e.v, e.w)) ++st.added;
    }
  }
  if (component_count != nullptr) *component_count = components;
  return st;
}

std::vector<PhaseEdge> filter_candidates(const std::vector<graph::Edge>& bin,
                                         const graph::SoaPoints& pts, double alpha,
                                         const graph::Graph& gp, double theta,
                                         bool covered_filter, PhaseStats& st,
                                         runtime::WorkerPool* pool) {
  enum : char { kAlready, kCovered, kCandidate };
  std::vector<char> status(bin.size(), kCandidate);
  std::vector<double> lens(bin.size(), 0.0);  // Euclidean length, computed once
  const auto classify = [&](int k) {
    const graph::Edge& e = bin[static_cast<std::size_t>(k)];
    if (gp.has_edge(e.u, e.v)) {
      status[static_cast<std::size_t>(k)] = kAlready;
      return;
    }
    const double len = pts.distance(e.u, e.v);
    lens[static_cast<std::size_t>(k)] = len;
    if (covered_filter && is_covered_edge(pts, alpha, gp, {e.u, e.v, len, e.w}, theta)) {
      status[static_cast<std::size_t>(k)] = kCovered;
    }
  };
  if (pool != nullptr && pool->threads() > 1) {
    pool->for_each(0, static_cast<int>(bin.size()), [&](int, int k) { classify(k); });
  } else {
    for (int k = 0; k < static_cast<int>(bin.size()); ++k) classify(k);
  }
  std::vector<PhaseEdge> out;
  for (std::size_t k = 0; k < bin.size(); ++k) {
    const graph::Edge& e = bin[k];
    if (status[k] == kAlready) {
      ++st.already_in_spanner;
    } else if (status[k] == kCovered) {
      ++st.covered;
    } else {
      out.push_back({e.u, e.v, lens[k], e.w});
    }
  }
  st.candidates = static_cast<int>(out.size());
  return out;
}

}  // namespace detail

namespace {

using detail::PhaseEdge;
using detail::rg_metrics;

/// Drain the plain heap tallies of the run workspace (and each per-worker
/// workspace) into the rg.heap_* counters at a phase boundary.
void flush_heap_ops(graph::DijkstraWorkspace& ws, runtime::WorkerPool* pool) {
  if (!obs::enabled()) return;
  auto [pushes, pops] = ws.take_heap_ops();
  if (pool != nullptr) {
    for (int w = 0; w < pool->threads(); ++w) {
      const auto [a, b] = pool->workspace(w).take_heap_ops();
      pushes += a;
      pops += b;
    }
  }
  obs::counter_add(rg_metrics().heap_pushes, pushes);
  obs::counter_add(rg_metrics().heap_pops, pops);
}

}  // namespace

RelaxedGreedyResult relaxed_greedy(const ubg::UbgInstance& inst, const Params& params,
                                   const RelaxedGreedyOptions& opts) {
  params.validate();
  if (std::abs(params.alpha - inst.config.alpha) > 1e-12) {
    throw std::invalid_argument("relaxed_greedy: params.alpha != instance alpha");
  }
  const int n = inst.g.n();
  const auto transform = detail::weight_transform(opts);

  // Shortest-path scratch for the whole run: one workspace (caller-owned
  // when opts.workspace is set, so repeated runs reuse the same buffers) and
  // one CSR snapshot of G'_{i-1} per phase for the read-heavy cover/cluster
  // passes. The geometry is snapshotted once into flat SoA coordinate lanes
  // for the filter/classify loops (bit-identical kernels — see SoaPoints).
  graph::DijkstraWorkspace run_ws;
  graph::DijkstraWorkspace& ws = opts.workspace != nullptr ? *opts.workspace : run_ws;
  graph::CsrView csr;
  const graph::SoaPoints pts(inst.points);

  // Worker team for the parallel phases (bins, filter, queries): the
  // caller's pool when provided (long-lived engines), else a run-local pool
  // when more than one thread is requested, else the serial path
  // (pool == nullptr). Every result is bit-identical across thread counts —
  // see RelaxedGreedyOptions.
  std::optional<runtime::WorkerPool> run_pool;
  runtime::WorkerPool* pool = opts.worker_pool;
  if (pool == nullptr) {
    const int threads = runtime::resolve_threads(opts.threads);
    if (threads > 1) pool = &run_pool.emplace(threads);
  }

  // Materialize edges with Euclidean lengths and active weights.
  const std::vector<graph::Edge> ge = inst.g.edges();
  std::vector<graph::Edge> weighted;
  std::vector<double> lens;
  weighted.reserve(ge.size());
  lens.reserve(ge.size());
  for (const graph::Edge& e : ge) {
    weighted.push_back({e.u, e.v, transform(e.w)});
    lens.push_back(e.w);  // generator stores Euclidean lengths as weights
  }

  const BinSchema schema(params.alpha, params.r, n);
  const auto bins = [&] {
    const obs::Span span(rg_metrics().bins_span);
    return group_edges_by_bin(weighted, schema, lens, pool);
  }();

  RelaxedGreedyResult result{graph::Graph(n), params, {}, 0, 0,
                             static_cast<int>(bins.size())};

  // Phase 0.
  {
    const obs::Span span(rg_metrics().phase0);
    result.phases.push_back(detail::process_short_edges(inst, pts, bins[0], transform, params,
                                                        opts.phase0_clique_cap, result.spanner,
                                                        &result.phase0_components));
    obs::counter_add(rg_metrics().edges_examined, result.phases.back().edges_in_bin);
    obs::counter_add(rg_metrics().edges_added, result.phases.back().added);
  }

  // §2.2.5 symmetry breaking: Luby's MIS with a fixed seed. The sequential
  // algorithm is a deterministic function of the instance, and any MIS of
  // the conflict graph preserves the §2.2.5 guarantees.
  constexpr std::uint64_t kMisSeed = 0x10CA15FA2006ULL;
  const auto mis_fn = [](const graph::Graph& j) { return mis::luby_mis(j, kMisSeed); };

  // Phases i >= 1, skipping empty bins (recomputation is from G' alone, so
  // skipping is a pure optimization).
  for (int i = 1; i < static_cast<int>(bins.size()); ++i) {
    const auto& bin = bins[static_cast<std::size_t>(i)];
    if (bin.empty()) continue;
    ++result.nonempty_bins;

    PhaseStats st;
    st.bin = i;
    st.w_lo = schema.W(i - 1);
    st.w_hi = schema.W(i);
    st.edges_in_bin = static_cast<int>(bin.size());

    const double w_prev = transform(schema.W(i - 1));
    const double radius = params.delta * w_prev;

    // (i) cluster cover of G'_{i-1}, on a frozen CSR snapshot of it.
    csr.assign(result.spanner);
    const cluster::ClusterCover cover = [&] {
      const obs::Span span(rg_metrics().cover_span);
      return cluster::sequential_cover(csr, radius, ws);
    }();
    st.clusters = static_cast<int>(cover.centers.size());

    // (ii) covered-edge filter + candidate selection.
    const std::vector<PhaseEdge> candidates = [&] {
      const obs::Span span(rg_metrics().filter_span);
      return detail::filter_candidates(bin, pts, inst.config.alpha, result.spanner, params.theta,
                                       opts.covered_edge_filter, st, pool);
    }();

    const std::vector<PhaseEdge> queries = [&] {
      const obs::Span span(rg_metrics().select_span);
      return detail::select_query_edges(candidates, cover, params.t,
                                        &st.max_query_edges_per_cluster);
    }();
    st.queries = static_cast<int>(queries.size());

    // (iii) cluster graph of G'_{i-1} (same snapshot as the cover).
    const cluster::ClusterGraph cg = [&] {
      const obs::Span span(rg_metrics().cluster_graph_span);
      return cluster::build_cluster_graph(csr, cover, w_prev, ws);
    }();
    st.max_inter_degree = cg.max_inter_degree;
    st.max_inter_weight = cg.max_inter_weight;

    // (iv) shortest-path queries on H (lazy update: all answered before adds).
    const std::vector<PhaseEdge> to_add = [&] {
      const obs::Span span(rg_metrics().queries_span);
      return detail::answer_queries(ws, cg.h, queries, params.t, &st.max_query_hops, pool);
    }();
    for (const PhaseEdge& e : to_add) result.spanner.add_edge(e.u, e.v, e.w);
    st.added = static_cast<int>(to_add.size());

    // (v) redundant edge removal.
    if (opts.redundancy_removal && to_add.size() >= 2) {
      const obs::Span span(rg_metrics().redundancy_span);
      const std::vector<int> removal =
          detail::redundant_edge_removal(ws, cg.h, to_add, params.t1, mis_fn);
      for (int idx : removal) {
        const PhaseEdge& e = to_add[static_cast<std::size_t>(idx)];
        result.spanner.remove_edge(e.u, e.v);
      }
      st.removed = static_cast<int>(removal.size());
    }

    if (obs::enabled()) {
      const detail::RgMetrics& m = rg_metrics();
      obs::counter_add(m.edges_examined, st.edges_in_bin);
      obs::counter_add(m.edges_already, st.already_in_spanner);
      obs::counter_add(m.edges_covered, st.covered);
      obs::counter_add(m.edges_candidate, st.candidates);
      obs::counter_add(m.queries, st.queries);
      obs::counter_add(m.edges_added, st.added);
      obs::counter_add(m.edges_removed, st.removed);
      flush_heap_ops(ws, pool);
    }

    result.phases.push_back(st);
  }
  return result;
}

}  // namespace localspan::core
