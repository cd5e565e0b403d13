#include "core/distributed.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "mis/luby.hpp"

namespace localspan::core {

namespace {

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
  if (net_opts.mode == NetMode::kAsync) {
    net_opts.adversary.validate();
    net_opts.reliable.validate();
  }
  const int n = inst.g.n();
  const long long m_edges = inst.g.m();
  const int lstar = log_star(static_cast<double>(std::max(2, n)));

  DistributedStats net;
  runtime::RoundLedger ledger;
  std::uint64_t phase_seed = seed;

  // MIS transport: sync (mis::luby_mis, which reproduces the SyncNetwork's
  // round/message accounting analytically and bit-identically — both
  // consume mis::luby_priority) or the adversarial async runtime
  // behind the reliable-delivery layer. Each invocation gets a fresh
  // network over its derived graph J and its own adversary seed (hashed
  // from the base seed and the invocation index), so a whole run replays
  // deterministically while invocations stay decorrelated.
  int async_invocation = 0;
  AsyncNetSummary& async = net.async;
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

  // The §2 bin loop with the §3 cover (§3.2.1: gather + Luby MIS on J +
  // attach) and the distributed §3.2.5 MIS. Each phase's Luby statistics
  // are read, then cleared, by the per-phase hook below.
  mis::LubyStats luby_cover;
  mis::LubyStats luby_redundancy;
  const auto cover = [&](const graph::CsrView& gp, double radius, graph::DijkstraWorkspace& ws) {
    return cluster::mis_cover(gp, radius, ws, [&](const graph::Graph& j) {
      return run_mis(j, &luby_cover, "cover-mis");
    });
  };
  const auto redundancy_mis = [&](const graph::Graph& j) {
    return run_mis(j, &luby_redundancy, "redundancy-mis");
  };

  // Round charges per finished phase. Each step is a constant-hop gather
  // or exchange; the ledger sums per section, so charging a phase after its
  // computation gives the same totals as charging step by step.
  const auto charge_phase = [&](const PhaseStats& st, bool redundancy_ran) {
    if (st.bin == 0) {
      // Phase 0 (§3.1): every node learns its closed neighborhood topology
      // in 2 rounds (adjacency exchange), locally determines its G_0
      // component (a clique, Lemma 1), runs SEQ-GREEDY on it
      // deterministically, and announces its incident spanner edges in 1
      // round. The shared loop computes the same spanner centrally.
      ledger.charge("phase0", 3, 3 * 2 * m_edges);
      return;
    }
    const double w_eucl = st.w_lo;  // Euclidean-scale W_{i-1}
    PhaseRounds pr;
    pr.bin = st.bin;

    // (i) cluster cover (§3.2.1): learn the δW ball of G'_{i-1}, run the
    // MIS on J (each J-round = k_ball G-rounds), attach to a center.
    const long long k_ball = hops_for(params.delta * w_eucl, params.alpha);
    pr.cover = k_ball + luby_cover.network_rounds * k_ball + 1;
    pr.mis_rounds_measured += luby_cover.network_rounds * k_ball;
    pr.mis_rounds_kmw_model += static_cast<long long>(lstar) * k_ball;
    ledger.charge("cover", pr.cover, k_ball * 2 * m_edges + luby_cover.messages * k_ball + n);
    net.mis_invocations += 1;
    net.max_luby_iterations = std::max(net.max_luby_iterations, luby_cover.iterations);

    // (ii) query edge selection (§3.2.2): heads gather 1 + 2δW/α hops.
    pr.select = k_ball + 1;
    ledger.charge("select", pr.select, (k_ball + 1) * 2 * m_edges);

    // (iii) cluster graph (§3.2.3): gather 2(2δ+1)W/α hops.
    const long long k_h = hops_for((2.0 * params.delta + 1.0) * w_eucl, params.alpha);
    pr.cluster_graph = k_h;
    ledger.charge("clustergraph", k_h, k_h * 2 * m_edges);

    // (iv) query answering (§3.2.4): Theorem 9 constant-hop search.
    const long long k_q = hops_for(2.0 * params.delta + 1.0, params.alpha);
    pr.query = k_q;
    ledger.charge("query", k_q, k_q * 2 * m_edges);

    // (v) redundant edge removal (§3.2.5): constant-hop exchange + Luby MIS
    // on the conflict graph (J-edges span ≤ 2 t1 r W/α G-hops).
    if (redundancy_ran) {
      const long long k_red =
          hops_for(params.t1 * params.r * std::min(w_eucl, 1.0) * params.r, params.alpha);
      pr.redundancy = k_red + luby_redundancy.network_rounds * k_red;
      pr.mis_rounds_measured += luby_redundancy.network_rounds * k_red;
      pr.mis_rounds_kmw_model += static_cast<long long>(lstar) * k_red;
      ledger.charge("redundancy", pr.redundancy,
                    k_red * 2 * m_edges + luby_redundancy.messages * k_red);
      net.mis_invocations += 1;
      net.max_luby_iterations = std::max(net.max_luby_iterations, luby_redundancy.iterations);
    }
    net.per_phase.push_back(pr);
    luby_cover = {};
    luby_redundancy = {};
  };

  DistributedResult result{detail::run_bin_loop(inst, params, opts, cover, redundancy_mis,
                                                charge_phase),
                           std::move(net), std::move(ledger)};

  result.net.rounds_measured = result.ledger.rounds();
  result.net.messages = result.ledger.messages();
  // KMW model total: deterministic steps unchanged, MIS rounds replaced by
  // the log*(n) model.
  long long kmw = 0;
  for (const PhaseRounds& pr : result.net.per_phase) {
    kmw += pr.total_measured() - pr.mis_rounds_measured + pr.mis_rounds_kmw_model;
  }
  kmw += 3;  // phase 0
  result.net.rounds_kmw_model = kmw;
  return result;
}

}  // namespace localspan::core
