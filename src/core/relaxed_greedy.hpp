#pragma once
/// \file relaxed_greedy.hpp
/// The sequential relaxed greedy algorithm (paper §2) — the paper's core
/// contribution, and the engine the distributed version (§3) drives.
///
/// Differences from classical SEQ-GREEDY that make it distributable:
///   * edges are processed bin-by-bin (BinSchema), in arbitrary order inside
///     a bin, with the spanner updated lazily once per bin;
///   * per-bin shortest-path queries are answered on the Das–Narasimhan
///     cluster graph H_{i-1} built from a δW_{i-1} cluster cover;
///   * θ-cone covered edges are filtered out (Lemma 3) and only one query
///     edge per cluster pair survives (minimizing t·|xy| − sp(a,x) − sp(b,y));
///   * mutually redundant added edges are thinned by an MIS pass (§2.2.5),
///     which restores the leapfrog property the weight proof needs.

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "cluster/cluster_graph.hpp"
#include "cluster/cover.hpp"
#include "core/bins.hpp"
#include "core/params.hpp"
#include "graph/graph.hpp"
#include "graph/soa_points.hpp"
#include "obs/obs.hpp"
#include "ubg/generator.hpp"

namespace localspan::runtime {
class WorkerPool;
}  // namespace localspan::runtime

namespace localspan::core {

/// Per-phase trace: one row per processed bin, aggregating everything the
/// paper's lemmas bound (experiments E9 and E11 print these).
struct PhaseStats {
  int bin = 0;
  double w_lo = 0.0;  ///< W_{i-1} (0 for the phase-0 row).
  double w_hi = 0.0;  ///< W_i.
  int edges_in_bin = 0;
  int already_in_spanner = 0;
  int covered = 0;     ///< edges filtered by the θ-cone test.
  int candidates = 0;  ///< candidate query edges after filtering.
  int queries = 0;     ///< selected query edges (<=1 per cluster pair).
  int added = 0;       ///< edges whose H-query failed (added to G').
  int removed = 0;     ///< edges removed as mutually redundant.
  int clusters = 0;
  int max_query_edges_per_cluster = 0;  ///< Lemma 4 quantity.
  int max_inter_degree = 0;             ///< Lemma 6 quantity.
  double max_inter_weight = 0.0;        ///< Lemma 5 quantity (<= (2δ+1)W).
  int max_query_hops = 0;               ///< Lemma 8 quantity.
};

/// Knobs shared by the sequential and distributed drivers.
struct RelaxedGreedyOptions {
  /// Redundancy-removal pass on/off (ablation in E12; required for the
  /// Theorem 13 weight proof).
  bool redundancy_removal = true;

  /// θ-cone covered-edge filter on/off (ablation in E12; required for the
  /// Theorem 11 degree proof — without it every candidate edge is queried).
  bool covered_edge_filter = true;

  /// Strictly increasing map from Euclidean length to edge weight with
  /// transform(0+) -> 0; identity for the paper's main setting, c·len^γ for
  /// the §1.6 energy extension. Applied consistently to edge weights and to
  /// every length threshold compared against path weights.
  std::function<double(double)> weight_transform;  // null => identity

  /// Cap on clique size in phase 0 (guards O(k^4) SEQ-GREEDY blowup on
  /// adversarially dense inputs; components larger than this are spanned
  /// with SEQ-GREEDY over the component's UBG edges instead of its clique,
  /// which preserves the spanner property since the clique edges are a
  /// superset). Never triggered by the paper-style workloads.
  int phase0_clique_cap = 512;

  /// Optional caller-owned shortest-path workspace, reused for every bounded
  /// search the run performs (covers, cluster graphs, queries, redundancy
  /// balls). Long-lived engines that invoke relaxed_greedy repeatedly — the
  /// dynamic repair path above all — share one workspace across calls so the
  /// steady state stops allocating scratch. Null => a run-local workspace.
  /// Non-owning; must outlive every relaxed_greedy call it is passed to.
  graph::DijkstraWorkspace* workspace = nullptr;

  /// Worker threads for the three phases that measurably gain from a pool:
  /// bin grouping (rg.bins), the θ-cone covered-edge filter (rg.filter) and
  /// the H-queries (rg.queries). Every other phase — phase 0, the cover,
  /// query selection, the cluster graph, redundancy removal and its Luby
  /// MIS — runs serially at any thread count, because its per-item work is
  /// too small to pay for a pool dispatch. 0 = the process default
  /// (LOCALSPAN_THREADS env, else 1). The construction is **bit-identical**
  /// at every thread count: parallel phases compute state-independent
  /// per-item results and all commits stay in the serial order
  /// (tests/test_parallel.cpp enforces this across the scenario matrix).
  int threads = 0;

  /// Optional caller-owned worker pool (thread pool + per-worker
  /// workspaces), overriding `threads`. Long-lived engines share one pool
  /// across runs so repeated repairs spawn no threads and allocate no
  /// per-worker scratch. Non-owning; must outlive every call.
  runtime::WorkerPool* worker_pool = nullptr;
};

/// Outcome of a (sequential or distributed) run.
struct RelaxedGreedyResult {
  graph::Graph spanner;
  Params params;
  std::vector<PhaseStats> phases;  ///< phase 0 first, then nonempty bins ascending.
  int phase0_components = 0;
  int nonempty_bins = 0;
  int total_bins = 0;  ///< m+1, including empty ones.
};

/// Run the sequential relaxed greedy algorithm of §2 on an α-UBG instance.
/// \throws std::invalid_argument if params.alpha disagrees with the instance
///         or the parameter set violates the Theorem 10 conditions.
[[nodiscard]] RelaxedGreedyResult relaxed_greedy(const ubg::UbgInstance& inst,
                                                 const Params& params,
                                                 const RelaxedGreedyOptions& opts = {});

namespace detail {

/// Shared per-phase machinery, exposed so the distributed driver (§3) and
/// white-box tests can exercise each §2.2 step in isolation.

/// A bin edge annotated with its active weight.
struct PhaseEdge {
  int u, v;
  double len;  ///< Euclidean length (bins, geometry).
  double w;    ///< active weight (spanner arithmetic).
};

/// §2.2.2 part 1: the θ-cone covered test for one edge (Lemma 3 / Fig 1).
/// True iff some z with {u,z} in gp, |vz| <= α and ∠vuz <= θ exists (or the
/// symmetric condition at v).
[[nodiscard]] bool is_covered_edge(const ubg::UbgInstance& inst, const graph::Graph& gp,
                                   const PhaseEdge& e, double theta);

/// SoA overload of the θ-cone test for the hot filter loops: identical
/// decisions (the SoaPoints kernels are bit-identical to geom::*), but the
/// geometry streams from the flat coordinate lanes instead of one 72-byte
/// Point per probe. `alpha` is the instance's UBG radius.
[[nodiscard]] bool is_covered_edge(const graph::SoaPoints& pts, double alpha,
                                   const graph::Graph& gp, const PhaseEdge& e, double theta);

/// obs ids of the relaxed-greedy counters and phase spans, shared by both
/// drivers. The span names are the declared phase schema of the relaxed
/// family in api/builtin_algorithms.cpp. The counters mirror the
/// serial-order PhaseStats fields, so they read the same at every thread
/// count.
struct RgMetrics {
  obs::MetricId edges_examined = obs::counter_id("rg.edges_examined");
  obs::MetricId edges_already = obs::counter_id("rg.edges_already_in_spanner");
  obs::MetricId edges_covered = obs::counter_id("rg.edges_covered");
  obs::MetricId edges_candidate = obs::counter_id("rg.edges_candidate");
  obs::MetricId queries = obs::counter_id("rg.queries");
  obs::MetricId edges_added = obs::counter_id("rg.edges_added");
  obs::MetricId edges_removed = obs::counter_id("rg.edges_removed");
  obs::MetricId heap_pushes = obs::counter_id("rg.heap_pushes");
  obs::MetricId heap_pops = obs::counter_id("rg.heap_pops");
  obs::MetricId phase0 = obs::span_id("rg.phase0");
  obs::MetricId bins_span = obs::span_id("rg.bins");
  obs::MetricId cover_span = obs::span_id("rg.cover");
  obs::MetricId filter_span = obs::span_id("rg.filter");
  obs::MetricId select_span = obs::span_id("rg.select");
  obs::MetricId cluster_graph_span = obs::span_id("rg.cluster_graph");
  obs::MetricId queries_span = obs::span_id("rg.queries");
  obs::MetricId redundancy_span = obs::span_id("rg.redundancy");
};

[[nodiscard]] const RgMetrics& rg_metrics();

/// Identity unless `opts.weight_transform` is set.
[[nodiscard]] std::function<double(double)> weight_transform(const RelaxedGreedyOptions& opts);

/// Phase 0 (§2.1, §3.1): components of G_0 (the edges of `bin0`) are
/// cliques (Lemma 1); span each with SEQ-GREEDY under `transform` weights
/// and add the chosen edges to `spanner`, in component order. Components
/// above `clique_cap` nodes are spanned over their UBG edges instead (see
/// RelaxedGreedyOptions::phase0_clique_cap). Returns the phase-0 row;
/// `component_count` receives the number of components with >= 2 nodes.
[[nodiscard]] PhaseStats process_short_edges(const ubg::UbgInstance& inst,
                                             const graph::SoaPoints& pts,
                                             const std::vector<graph::Edge>& bin0,
                                             const std::function<double(double)>& transform,
                                             const Params& params, int clique_cap,
                                             graph::Graph& spanner, int* component_count);

/// §2.2.2 part 1 over one bin: drop edges already in gp and, when
/// `covered_filter` is set, θ-cone covered edges, and return the rest as
/// candidates in bin order. Fills st.already_in_spanner, st.covered and
/// st.candidates. Each edge's test is a pure function of (pts, gp, edge), so
/// with a pool the tests run in parallel; the result is the same.
[[nodiscard]] std::vector<PhaseEdge> filter_candidates(const std::vector<graph::Edge>& bin,
                                                       const graph::SoaPoints& pts, double alpha,
                                                       const graph::Graph& gp, double theta,
                                                       bool covered_filter, PhaseStats& st,
                                                       runtime::WorkerPool* pool = nullptr);

/// §2.2.2 part 2: keep one query edge per cluster pair, minimizing
/// t·w(x,y) − sp(a,x) − sp(b,y), ties broken by the smaller (u, v). Returns
/// the selected edges ordered by cluster pair; if `per_cluster_max` is
/// non-null it receives the Lemma 4 quantity.
[[nodiscard]] std::vector<PhaseEdge> select_query_edges(const std::vector<PhaseEdge>& candidates,
                                                        const cluster::ClusterCover& cover,
                                                        double t, int* per_cluster_max);

/// §2.2.4: answer all queries on H; returns the edges to add (those with
/// sp_H(x,y) > t·w(x,y)). Updates `max_hops` with the Lemma 8 quantity.
[[nodiscard]] std::vector<PhaseEdge> answer_queries(const graph::Graph& h,
                                                    const std::vector<PhaseEdge>& queries,
                                                    double t, int* max_hops);

/// Workspace-backed overload: one early-exit bounded search per query, no
/// per-query allocation once the workspace is warm. With a pool the
/// per-query searches run in parallel (results committed in query order —
/// bit-identical to serial).
[[nodiscard]] std::vector<PhaseEdge> answer_queries(graph::DijkstraWorkspace& ws,
                                                    const graph::Graph& h,
                                                    const std::vector<PhaseEdge>& queries,
                                                    double t, int* max_hops,
                                                    runtime::WorkerPool* pool = nullptr);

/// §2.2.5: find mutually redundant pairs among `added`, build the conflict
/// graph J (one node per edge participating in >= 1 pair), run `mis` on it
/// and return the indices (into `added`) of edges to REMOVE (non-MIS nodes).
[[nodiscard]] std::vector<int> redundant_edge_removal(
    const graph::Graph& h, const std::vector<PhaseEdge>& added, double t1,
    const std::function<std::vector<int>(const graph::Graph&)>& mis);

[[nodiscard]] std::vector<int> redundant_edge_removal(
    graph::DijkstraWorkspace& ws, const graph::Graph& h, const std::vector<PhaseEdge>& added,
    double t1, const std::function<std::vector<int>(const graph::Graph&)>& mis);

/// The conflict graph J of §2.2.5 alone (for Lemma 20 doubling-dimension
/// experiments): node k = added[k]; edges connect mutually redundant pairs.
[[nodiscard]] graph::Graph redundancy_conflict_graph(const graph::Graph& h,
                                                     const std::vector<PhaseEdge>& added,
                                                     double t1);

/// Workspace-backed overload: one bounded search per distinct endpoint, kept
/// sparse, then a pair sweep over the endpoints each ball reached.
[[nodiscard]] graph::Graph redundancy_conflict_graph(graph::DijkstraWorkspace& ws,
                                                     const graph::Graph& h,
                                                     const std::vector<PhaseEdge>& added,
                                                     double t1);

}  // namespace detail

}  // namespace localspan::core
