#include "route/routing.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>

#include "geom/point.hpp"
#include "obs/obs.hpp"
#include "runtime/parallel.hpp"

namespace localspan::route {

namespace {

struct RouteMetrics {
  obs::MetricId evaluate = obs::span_id("route.evaluate");
  obs::MetricId pairs = obs::counter_id("route.pairs");
  obs::MetricId delivered = obs::counter_id("route.delivered");
  obs::MetricId hops = obs::histogram_id("route.hops");
};

const RouteMetrics& route_metrics() {
  static const RouteMetrics m;
  return m;
}

/// The forwarding walk, shared between the Graph and CsrView entry points
/// (identical code, so identical routes).
template <class G>
RouteResult route_packet_impl(const ubg::UbgInstance& inst, const G& topo, int s, int d,
                              Forwarding rule, int max_hops) {
  if (s < 0 || s >= topo.n() || d < 0 || d >= topo.n()) {
    throw std::invalid_argument("route_packet: endpoint out of range");
  }
  RouteResult res;
  res.path.push_back(s);
  int cur = s;
  while (cur != d && res.hops < max_hops) {
    const double here = inst.dist(cur, d);
    int best = -1;
    double best_key = 0.0;
    for (const graph::Neighbor& nb : topo.neighbors(cur)) {
      if (nb.to == d) {
        best = d;
        break;
      }
      double key = 0.0;
      if (rule == Forwarding::kGreedy) {
        key = inst.dist(nb.to, d);
        if (key >= here) continue;  // must make geometric progress
      } else {
        // Compass: smallest angle to the cur->d ray, progress-gated the same
        // way to guarantee termination on arbitrary graphs.
        if (inst.dist(nb.to, d) >= here) continue;
        key = geom::angle_at(inst.points[static_cast<std::size_t>(cur)],
                             inst.points[static_cast<std::size_t>(d)],
                             inst.points[static_cast<std::size_t>(nb.to)]);
      }
      if (best == -1 || key < best_key) {
        best = nb.to;
        best_key = key;
      }
    }
    if (best == -1) return res;  // local minimum: undeliverable by this rule
    res.length += inst.dist(cur, best);
    cur = best;
    res.path.push_back(cur);
    ++res.hops;
  }
  res.delivered = cur == d;
  return res;
}

}  // namespace

RouteResult route_packet(const ubg::UbgInstance& inst, const graph::Graph& topo, int s, int d,
                         Forwarding rule, int max_hops) {
  return route_packet_impl(inst, topo, s, d, rule, max_hops);
}

RouteResult route_packet(const ubg::UbgInstance& inst, const graph::CsrView& topo, int s, int d,
                         Forwarding rule, int max_hops) {
  return route_packet_impl(inst, topo, s, d, rule, max_hops);
}

RoutingStats evaluate_routing(const ubg::UbgInstance& inst, const graph::CsrView& topo,
                              Forwarding rule, int trials, std::uint64_t seed,
                              graph::DijkstraWorkspace& ws, runtime::WorkerPool* pool) {
  if (trials <= 0) throw std::invalid_argument("evaluate_routing: trials must be positive");
  const obs::Span span(route_metrics().evaluate);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> pick(0, topo.n() - 1);
  RoutingStats st;
  double hops_sum = 0.0;
  double stretch_sum = 0.0;

  // Candidate pairs are drawn serially from the seed and *accepted* (s != d,
  // connected) in draw order, exactly like the classic one-at-a-time loop;
  // only the per-pair work (one early-exit Dijkstra + the forwarding walk,
  // both pure functions of the frozen snapshot) runs on the pool. Chunks may
  // overshoot the trial budget — surplus results are discarded, which wastes
  // a little speculative work but never changes the accepted prefix.
  struct Trial {
    int s = 0;
    int d = 0;
    double sp = 0.0;
    RouteResult route;
  };
  std::vector<Trial> chunk;
  // Safety valve so a topology with (nearly) no connected pairs terminates
  // instead of spinning forever; st.trials then reports what was found.
  const long long max_draws = 1000LL * trials + 1000;
  long long draws = 0;
  while (st.trials < trials && draws < max_draws) {
    chunk.clear();
    const int want = std::max(32, trials - st.trials);
    while (static_cast<int>(chunk.size()) < want && draws < max_draws) {
      ++draws;
      const int s = pick(rng);
      const int d = pick(rng);
      if (s == d) continue;
      chunk.push_back(Trial{s, d, 0.0, {}});
    }
    if (chunk.empty()) break;
    const int count = static_cast<int>(chunk.size());
    runtime::for_each_with_workspace(
        pool, ws, 0, count, [&](graph::DijkstraWorkspace& wws, int i) {
          Trial& t = chunk[static_cast<std::size_t>(i)];
          t.sp = wws.distance(topo, t.s, t.d);
          t.route = t.sp == graph::kInf ? RouteResult{}
                                        : route_packet_impl(inst, topo, t.s, t.d, rule, 10000);
        });
    for (int i = 0; i < count && st.trials < trials; ++i) {
      const Trial& t = chunk[static_cast<std::size_t>(i)];
      if (t.sp == graph::kInf) continue;  // different components
      ++st.trials;
      if (!t.route.delivered) continue;
      ++st.delivered;
      hops_sum += t.route.hops;
      obs::histogram_record(route_metrics().hops, t.route.hops);
      const double ratio = t.route.length / t.sp;
      stretch_sum += ratio;
      st.worst_route_stretch = std::max(st.worst_route_stretch, ratio);
    }
  }
  obs::counter_add(route_metrics().pairs, st.trials);
  obs::counter_add(route_metrics().delivered, st.delivered);
  st.delivery_rate = st.trials > 0 ? static_cast<double>(st.delivered) / st.trials : 0.0;
  if (st.delivered > 0) {
    st.mean_hops = hops_sum / st.delivered;
    st.mean_route_stretch = stretch_sum / st.delivered;
  }
  return st;
}

RoutingStats evaluate_routing(const ubg::UbgInstance& inst, const graph::Graph& topo,
                              Forwarding rule, int trials, std::uint64_t seed) {
  const graph::CsrView csr(topo);
  graph::DijkstraWorkspace ws(topo.n());
  return evaluate_routing(inst, csr, rule, trials, seed, ws, nullptr);
}

}  // namespace localspan::route
