#include "core/distributed.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "graph/soa_points.hpp"
#include "mis/luby.hpp"
#include "obs/obs.hpp"
#include "runtime/parallel.hpp"

namespace localspan::core {

namespace {

using detail::PhaseEdge;

/// Hops needed in G to explore a Euclidean-scale radius L: on any shortest
/// path, vertices two hops apart are > α apart (else the direct edge would
/// exist in an α-UBG), so a path of length L has at most ⌈2L/α⌉ hops.
long long hops_for(double length, double alpha) {
  return std::max<long long>(1, static_cast<long long>(std::ceil(2.0 * length / alpha)));
}

}  // namespace

DistributedResult distributed_relaxed_greedy(const ubg::UbgInstance& inst, const Params& params,
                                             const RelaxedGreedyOptions& opts, std::uint64_t seed,
                                             const NetOptions& net_opts) {
  params.validate();
  if (net_opts.mode == NetMode::kAsync) {
    net_opts.adversary.validate();
    net_opts.reliable.validate();
  }
  if (std::abs(params.alpha - inst.config.alpha) > 1e-12) {
    throw std::invalid_argument("distributed_relaxed_greedy: params.alpha != instance alpha");
  }
  const int n = inst.g.n();
  const long long m_edges = inst.g.m();
  const auto transform = detail::weight_transform(opts);
  const int lstar = log_star(static_cast<double>(std::max(2, n)));

  DistributedResult result{{graph::Graph(n), params, {}, 0, 0, 0}, {}, {}};
  graph::Graph& spanner = result.base.spanner;
  runtime::RoundLedger& ledger = result.ledger;

  // Worker team for the same parallel phases as relaxed_greedy (binning,
  // the covered-edge filter, query answering). The round/message accounting
  // is analytic, so parallel execution changes wall-clock only — every
  // result, including the charged ledger, is bit-identical across thread
  // counts.
  std::optional<runtime::WorkerPool> run_pool;
  runtime::WorkerPool* pool = opts.worker_pool;
  if (pool == nullptr) {
    const int threads = runtime::resolve_threads(opts.threads);
    if (threads > 1) pool = &run_pool.emplace(threads);
  }
  graph::DijkstraWorkspace run_ws;
  graph::DijkstraWorkspace& ws = opts.workspace != nullptr ? *opts.workspace : run_ws;
  graph::CsrView csr;
  const graph::SoaPoints pts(inst.points);

  const std::vector<graph::Edge> ge = inst.g.edges();
  std::vector<graph::Edge> weighted;
  std::vector<double> lens;
  for (const graph::Edge& e : ge) {
    weighted.push_back({e.u, e.v, transform(e.w)});
    lens.push_back(e.w);
  }
  const BinSchema schema(params.alpha, params.r, n);
  const auto bins = [&] {
    const obs::Span span(detail::rg_metrics().bins_span);
    return group_edges_by_bin(weighted, schema, lens, pool);
  }();
  result.base.total_bins = static_cast<int>(bins.size());

  // ---- Phase 0 (§3.1): every node learns its closed neighborhood topology
  // in 2 rounds (adjacency exchange), locally determines its G_0 component
  // (a clique, Lemma 1), runs SEQ-GREEDY on it deterministically, and
  // announces its incident spanner edges in 1 round. We compute the same
  // spanner centrally and charge those 3 rounds.
  {
    const obs::Span span(detail::rg_metrics().phase0);
    result.base.phases.push_back(detail::process_short_edges(
        inst, pts, bins[0], transform, params, opts.phase0_clique_cap, spanner,
        &result.base.phase0_components));
    ledger.charge("phase0", 3, 3 * 2 * m_edges);
  }

  std::uint64_t phase_seed = seed;

  // MIS transport: sync (mis::luby_mis, which reproduces the SyncNetwork's
  // round/message accounting analytically and bit-identically — both
  // consume mis::luby_priority) or the adversarial async runtime
  // behind the reliable-delivery layer. Each invocation gets a fresh
  // network over its derived graph J and its own adversary seed (hashed
  // from the base seed and the invocation index), so a whole run replays
  // deterministically while invocations stay decorrelated.
  int async_invocation = 0;
  AsyncNetSummary& async = result.net.async;
  const auto run_mis = [&](const graph::Graph& j, mis::LubyStats* luby, const char* section) {
    if (net_opts.mode == NetMode::kSync) {
      return mis::luby_mis(j, ++phase_seed, luby);
    }
    runtime::AdversaryConfig adv = net_opts.adversary;
    adv.seed = adv.seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(++async_invocation);
    runtime::AsyncNetwork anet(j, adv);
    anet.set_record_transcript(net_opts.record_transcript);
    runtime::ReliableNetwork rnet(anet, net_opts.reliable, nullptr, section);
    std::vector<int> out = mis::luby_mis_on(rnet, j, ++phase_seed, luby);

    const runtime::AsyncStats& ps = anet.stats();
    async.physical.posted += ps.posted;
    async.physical.delivered += ps.delivered;
    async.physical.dropped += ps.dropped;
    async.physical.partition_dropped += ps.partition_dropped;
    async.physical.duplicated += ps.duplicated;
    async.physical.reordered += ps.reordered;
    async.physical.straggled += ps.straggled;
    async.physical.timers += ps.timers;
    const runtime::ReliableStats& rs = rnet.stats();
    async.protocol.data_sent += rs.data_sent;
    async.protocol.retransmits += rs.retransmits;
    async.protocol.timeouts += rs.timeouts;
    async.protocol.acks_sent += rs.acks_sent;
    async.protocol.acks_received += rs.acks_received;
    async.protocol.stale_acks += rs.stale_acks;
    async.protocol.dup_suppressed += rs.dup_suppressed;
    async.convergence_time += anet.now();
    ++async.invocations;
    if (net_opts.record_transcript) {
      async.transcript.insert(async.transcript.end(), anet.transcript().begin(),
                              anet.transcript().end());
    }
    return out;
  };

  for (int i = 1; i < static_cast<int>(bins.size()); ++i) {
    const auto& bin = bins[static_cast<std::size_t>(i)];
    if (bin.empty()) continue;
    ++result.base.nonempty_bins;

    PhaseStats st;
    st.bin = i;
    st.w_lo = schema.W(i - 1);
    st.w_hi = schema.W(i);
    st.edges_in_bin = static_cast<int>(bin.size());

    PhaseRounds pr;
    pr.bin = i;

    const double w_eucl = schema.W(i - 1);  // Euclidean-scale W_{i-1}
    const double w_prev = transform(w_eucl);
    const double radius = params.delta * w_prev;

    // ---- (i) cluster cover (§3.2.1): gather + Luby MIS on J + attach.
    const long long k_ball = hops_for(params.delta * w_eucl, params.alpha);
    mis::LubyStats luby1;
    const auto mis_fn = [&](const graph::Graph& j) { return run_mis(j, &luby1, "cover-mis"); };
    // One CSR snapshot of G'_{i-1} serves the cover and the cluster graph.
    csr.assign(spanner);
    const cluster::ClusterCover cover = [&] {
      const obs::Span span(detail::rg_metrics().cover_span);
      return cluster::mis_cover(csr, radius, ws, mis_fn);
    }();
    st.clusters = static_cast<int>(cover.centers.size());

    pr.cover = k_ball                       // learn the δW ball of G'_{i-1}
               + luby1.network_rounds * k_ball  // each J-round = k_ball G-rounds
               + 1;                             // attach to a center
    pr.mis_rounds_measured += luby1.network_rounds * k_ball;
    pr.mis_rounds_kmw_model += static_cast<long long>(lstar) * k_ball;
    ledger.charge("cover", pr.cover,
                  k_ball * 2 * m_edges + luby1.messages * k_ball + n);
    result.net.mis_invocations += 1;
    result.net.max_luby_iterations = std::max(result.net.max_luby_iterations, luby1.iterations);

    // ---- (ii) query edge selection (§3.2.2): heads gather 1 + 2δW/α hops.
    const std::vector<PhaseEdge> candidates = [&] {
      const obs::Span span(detail::rg_metrics().filter_span);
      return detail::filter_candidates(bin, pts, inst.config.alpha, spanner, params.theta,
                                       opts.covered_edge_filter, st, pool);
    }();
    const std::vector<PhaseEdge> queries = [&] {
      const obs::Span span(detail::rg_metrics().select_span);
      return detail::select_query_edges(candidates, cover, params.t,
                                        &st.max_query_edges_per_cluster);
    }();
    st.queries = static_cast<int>(queries.size());
    pr.select = k_ball + 1;
    ledger.charge("select", pr.select, (k_ball + 1) * 2 * m_edges);

    // ---- (iii) cluster graph (§3.2.3): gather 2(2δ+1)W/α hops.
    const cluster::ClusterGraph cg = [&] {
      const obs::Span span(detail::rg_metrics().cluster_graph_span);
      return cluster::build_cluster_graph(csr, cover, w_prev, ws);
    }();
    st.max_inter_degree = cg.max_inter_degree;
    st.max_inter_weight = cg.max_inter_weight;
    const long long k_h = hops_for((2.0 * params.delta + 1.0) * w_eucl, params.alpha);
    pr.cluster_graph = k_h;
    ledger.charge("clustergraph", k_h, k_h * 2 * m_edges);

    // ---- (iv) query answering (§3.2.4): Theorem 9 constant-hop search.
    const std::vector<PhaseEdge> to_add = [&] {
      const obs::Span span(detail::rg_metrics().queries_span);
      return detail::answer_queries(ws, cg.h, queries, params.t, &st.max_query_hops, pool);
    }();
    for (const PhaseEdge& e : to_add) spanner.add_edge(e.u, e.v, e.w);
    st.added = static_cast<int>(to_add.size());
    const long long k_q = hops_for(2.0 * params.delta + 1.0, params.alpha);
    pr.query = k_q;
    ledger.charge("query", k_q, k_q * 2 * m_edges);

    // ---- (v) redundant edge removal (§3.2.5): constant-hop exchange +
    // Luby MIS on the conflict graph (J-edges span ≤ 2 t1 r W/α G-hops).
    if (opts.redundancy_removal && to_add.size() >= 2) {
      const obs::Span span(detail::rg_metrics().redundancy_span);
      mis::LubyStats luby2;
      const auto mis_fn2 = [&](const graph::Graph& j) {
        return run_mis(j, &luby2, "redundancy-mis");
      };
      const std::vector<int> removal =
          detail::redundant_edge_removal(ws, cg.h, to_add, params.t1, mis_fn2);
      for (int idx : removal) {
        const PhaseEdge& e = to_add[static_cast<std::size_t>(idx)];
        spanner.remove_edge(e.u, e.v);
      }
      st.removed = static_cast<int>(removal.size());
      const long long k_red =
          hops_for(params.t1 * params.r * std::min(w_eucl, 1.0) * params.r, params.alpha);
      pr.redundancy = k_red + luby2.network_rounds * k_red;
      pr.mis_rounds_measured += luby2.network_rounds * k_red;
      pr.mis_rounds_kmw_model += static_cast<long long>(lstar) * k_red;
      ledger.charge("redundancy", pr.redundancy,
                    k_red * 2 * m_edges + luby2.messages * k_red);
      result.net.mis_invocations += 1;
      result.net.max_luby_iterations = std::max(result.net.max_luby_iterations, luby2.iterations);
    }

    // KMW model total for this phase: deterministic steps unchanged, MIS
    // rounds replaced by the log*(n) model.
    result.net.per_phase.push_back(pr);
    result.base.phases.push_back(st);
  }

  result.net.rounds_measured = ledger.rounds();
  result.net.messages = ledger.messages();
  long long kmw = 0;
  for (const PhaseRounds& pr : result.net.per_phase) {
    kmw += pr.total_measured() - pr.mis_rounds_measured + pr.mis_rounds_kmw_model;
  }
  kmw += 3;  // phase 0
  result.net.rounds_kmw_model = kmw;
  return result;
}

}  // namespace localspan::core
