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
#include <vector>

#include "cluster/cluster_graph.hpp"
#include "cluster/cover.hpp"
#include "core/bins.hpp"
#include "core/params.hpp"
#include "graph/graph.hpp"
#include "graph/soa_points.hpp"
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

/// The §2.2 phase steps, exposed so white-box tests can exercise each one in
/// isolation, and the shared bin loop both drivers run.

/// A bin edge annotated with its active weight.
struct PhaseEdge {
  int u, v;
  double len;  ///< Euclidean length (bins, geometry).
  double w;    ///< active weight (spanner arithmetic).
};

/// §2.2.2 part 1: the θ-cone covered test for one edge (Lemma 3 / Fig 1).
/// True iff some z with {u,z} in gp, |vz| <= α and ∠vuz <= θ exists (or the
/// symmetric condition at v). `alpha` is the instance's UBG radius; the
/// geometry streams from the flat SoA coordinate lanes.
[[nodiscard]] bool is_covered_edge(const graph::SoaPoints& pts, double alpha,
                                   const graph::Graph& gp, const PhaseEdge& e, double theta);

/// §2.2.2 part 2: keep one query edge per cluster pair, minimizing
/// t·w(x,y) − sp(a,x) − sp(b,y), ties broken by the smaller (u, v). Returns
/// the selected edges ordered by cluster pair; if `per_cluster_max` is
/// non-null it receives the Lemma 4 quantity.
[[nodiscard]] std::vector<PhaseEdge> select_query_edges(const std::vector<PhaseEdge>& candidates,
                                                        const cluster::ClusterCover& cover,
                                                        double t, int* per_cluster_max);

/// §2.2.4: answer all queries on H, one early-exit bounded search per query
/// on `ws`; returns the edges to add (those with sp_H(x,y) > t·w(x,y)).
/// Updates `max_hops` with the Lemma 8 quantity. With a pool the per-query
/// searches run in parallel (results committed in query order —
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
    graph::DijkstraWorkspace& ws, const graph::Graph& h, const std::vector<PhaseEdge>& added,
    double t1, const std::function<std::vector<int>(const graph::Graph&)>& mis);

/// The conflict graph J of §2.2.5 alone (for Lemma 20 doubling-dimension
/// experiments): node k = added[k]; edges connect mutually redundant pairs.
/// One bounded search per distinct endpoint, kept sparse, then a pair sweep
/// over the endpoints each ball reached.
[[nodiscard]] graph::Graph redundancy_conflict_graph(graph::DijkstraWorkspace& ws,
                                                     const graph::Graph& h,
                                                     const std::vector<PhaseEdge>& added,
                                                     double t1);

/// Cluster cover of the frozen G'_{i-1} at `radius` (§2.2.1 or §3.2.1).
using CoverStep = std::function<cluster::ClusterCover(const graph::CsrView& gp, double radius,
                                                      graph::DijkstraWorkspace& ws)>;
/// An MIS of the §2.2.5 conflict graph J.
using MisStep = std::function<std::vector<int>(const graph::Graph& j)>;
/// Sees each finished PhaseStats row (phase 0 first, then the nonempty bins
/// ascending) and whether the §2.2.5 redundancy pass ran for it.
using PhaseHook = std::function<void(const PhaseStats& row, bool redundancy_ran)>;

/// The bin loop of §2 that both drivers run: parameter checks, phase 0, then
/// per nonempty bin cover → filter → select → cluster graph → queries →
/// redundancy, with the rg.* phase spans and one emission of the rg.*
/// funnel counters per PhaseStats row. A driver supplies only the cover, the
/// redundancy MIS and an optional per-row hook; for each bin the cover runs
/// (and consumes its MIS draws) before the redundancy MIS.
[[nodiscard]] RelaxedGreedyResult run_bin_loop(const ubg::UbgInstance& inst,
                                               const Params& params,
                                               const RelaxedGreedyOptions& opts,
                                               const CoverStep& cover, const MisStep& redundancy_mis,
                                               const PhaseHook& on_phase = {});

}  // namespace detail

}  // namespace localspan::core
