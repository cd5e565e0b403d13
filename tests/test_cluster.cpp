// Tests for the cluster machinery: cluster covers (§2.2.1/§3.2.1) and the
// Das-Narasimhan cluster graph with its Lemma 5/6/7/8 guarantees.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/cluster_graph.hpp"
#include "cluster/cover.hpp"
#include "core/greedy.hpp"
#include "graph/sp_workspace.hpp"
#include "mis/luby.hpp"
#include "mis/mis.hpp"
#include "scenario_matrix.hpp"
#include "sp_reference.hpp"
#include "ubg/generator.hpp"

namespace cl = localspan::cluster;
namespace gr = localspan::graph;
namespace ti = localspan::testinfra;
namespace ub = localspan::ubg;

namespace {

using MisFn = std::function<std::vector<int>(const gr::Graph&)>;

std::vector<int> greedy_mis(const gr::Graph& j) { return localspan::mis::greedy_mis(j); }

/// A partial-spanner-like graph to cluster: greedy spanner of a UBG.
gr::Graph partial_spanner(std::uint64_t seed, int n = 200) {
  ub::UbgConfig cfg;
  cfg.n = n;
  cfg.alpha = 0.7;
  cfg.seed = seed;
  const auto inst = ub::make_ubg(cfg);
  return localspan::core::seq_greedy(inst.g, 1.5);
}

}  // namespace

class CoverRadius : public ::testing::TestWithParam<double> {};

TEST_P(CoverRadius, SequentialCoverIsValid) {
  const gr::Graph gp = partial_spanner(5);
  const cl::ClusterCover cover = cl::sequential_cover(gp, GetParam());
  EXPECT_TRUE(cl::is_valid_cover(gp, cover));
}

TEST_P(CoverRadius, MisCoverIsValid) {
  const gr::Graph gp = partial_spanner(6);
  gr::DijkstraWorkspace ws;
  const cl::ClusterCover cover = cl::mis_cover(gr::CsrView(gp), GetParam(), ws, greedy_mis);
  EXPECT_TRUE(cl::is_valid_cover(gp, cover));
}

INSTANTIATE_TEST_SUITE_P(RadiusSweep, CoverRadius, ::testing::Values(0.02, 0.1, 0.3, 1.0));

namespace {

/// Reference MIS cover on the dense oracle: one O(n) search per vertex, all
/// kept until the attach step. mis_cover must match it bit for bit.
cl::ClusterCover dense_mis_cover(const gr::Graph& gp, double radius, const MisFn& mis) {
  const int n = gp.n();
  gr::Graph j(n);
  std::vector<ti::DenseSp> balls;
  for (int u = 0; u < n; ++u) {
    balls.push_back(ti::dense_dijkstra(gp, u, radius));
    for (int v = 0; v < u; ++v) {
      if (balls.back().dist[static_cast<std::size_t>(v)] <= radius) j.add_edge(u, v, 1.0);
    }
  }
  const std::vector<int> independent = mis(j);
  std::vector<char> in_mis(static_cast<std::size_t>(n), 0);
  for (int c : independent) in_mis[static_cast<std::size_t>(c)] = 1;
  cl::ClusterCover cover;
  cover.radius = radius;
  cover.center_of.assign(static_cast<std::size_t>(n), -1);
  cover.dist_to_center.assign(static_cast<std::size_t>(n), gr::kInf);
  for (int c : independent) {
    cover.center_of[static_cast<std::size_t>(c)] = c;
    cover.dist_to_center[static_cast<std::size_t>(c)] = 0.0;
  }
  for (int v = 0; v < n; ++v) {
    if (in_mis[static_cast<std::size_t>(v)]) continue;
    int best = -1;  // highest-id MIS neighbor in J
    for (const gr::Neighbor& nb : j.neighbors(v)) {
      if (in_mis[static_cast<std::size_t>(nb.to)] && nb.to > best) best = nb.to;
    }
    cover.center_of[static_cast<std::size_t>(v)] = best;
    cover.dist_to_center[static_cast<std::size_t>(v)] =
        balls[static_cast<std::size_t>(best)].dist[static_cast<std::size_t>(v)];
  }
  cover.centers = independent;
  std::sort(cover.centers.begin(), cover.centers.end());
  return cover;
}

class MisCoverMatrix : public ::testing::TestWithParam<ti::Scenario> {};

}  // namespace

TEST_P(MisCoverMatrix, MatchesDenseReferenceBitForBit) {
  const ub::UbgInstance inst = GetParam().make();
  const gr::CsrView csr(inst.g);
  gr::DijkstraWorkspace ws;
  const MisFn luby = [](const gr::Graph& j) { return localspan::mis::luby_mis(j, 7); };
  for (const double radius : {0.0, 0.15, 1.5}) {
    for (const MisFn& mis : {MisFn(greedy_mis), luby}) {
      const cl::ClusterCover want = dense_mis_cover(inst.g, radius, mis);
      const cl::ClusterCover got = cl::mis_cover(csr, radius, ws, mis);
      EXPECT_EQ(got.center_of, want.center_of) << "radius " << radius;
      EXPECT_EQ(got.centers, want.centers) << "radius " << radius;
      ASSERT_EQ(got.dist_to_center.size(), want.dist_to_center.size());
      for (std::size_t v = 0; v < want.dist_to_center.size(); ++v) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.dist_to_center[v]),
                  std::bit_cast<std::uint64_t>(want.dist_to_center[v]))
            << "radius " << radius << " vertex " << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, MisCoverMatrix, ::testing::ValuesIn(ti::standard_matrix()),
                         ti::ScenarioName());

TEST(Cover, ZeroRadiusMakesEveryVertexACenter) {
  const gr::Graph gp = partial_spanner(7, 60);
  const cl::ClusterCover cover = cl::sequential_cover(gp, 0.0);
  EXPECT_EQ(static_cast<int>(cover.centers.size()), gp.n());
}

TEST(Cover, LargerRadiusNeverIncreasesCenters) {
  const gr::Graph gp = partial_spanner(8);
  std::size_t prev = static_cast<std::size_t>(gp.n()) + 1;
  for (double radius : {0.01, 0.05, 0.2, 0.8}) {
    const auto cover = cl::sequential_cover(gp, radius);
    EXPECT_LE(cover.centers.size(), prev);
    prev = cover.centers.size();
  }
}

TEST(Cover, MembersGroupingIsConsistent) {
  const gr::Graph gp = partial_spanner(9, 100);
  const auto cover = cl::sequential_cover(gp, 0.15);
  const auto members = cover.members();
  int total = 0;
  for (int c = 0; c < gp.n(); ++c) {
    for (int v : members[static_cast<std::size_t>(c)]) {
      EXPECT_EQ(cover.center_of[static_cast<std::size_t>(v)], c);
      ++total;
    }
  }
  EXPECT_EQ(total, gp.n());
}

TEST(Cover, RejectsNegativeRadius) {
  const gr::Graph gp(3);
  EXPECT_THROW(static_cast<void>(cl::sequential_cover(gp, -1.0)), std::invalid_argument);
}

TEST(Cover, DisconnectedGraphsGetPerComponentClusters) {
  gr::Graph gp(4);  // two disconnected pairs
  gp.add_edge(0, 1, 0.1);
  gp.add_edge(2, 3, 0.1);
  const auto cover = cl::sequential_cover(gp, 0.5);
  EXPECT_TRUE(cl::is_valid_cover(gp, cover));
  EXPECT_EQ(cover.centers.size(), 2u);
}

TEST(ClusterGraph, IntraEdgesMatchCoverDistances) {
  const gr::Graph gp = partial_spanner(10);
  const double radius = 0.1;
  const auto cover = cl::sequential_cover(gp, radius);
  const auto cg = cl::build_cluster_graph(gp, cover, radius / 0.05);
  for (int v = 0; v < gp.n(); ++v) {
    const int a = cover.center_of[static_cast<std::size_t>(v)];
    if (a == v) continue;
    ASSERT_TRUE(cg.h.has_edge(a, v));
    EXPECT_NEAR(cg.h.edge_weight(a, v),
                std::max(cover.dist_to_center[static_cast<std::size_t>(v)], 1e-15), 1e-9);
  }
}

TEST(ClusterGraph, Lemma5InterClusterWeightBound) {
  // Lemma 5's premise: every edge of G'_{i-1} was processed in an earlier
  // bin, i.e. has weight <= W_{i-1}. Filter accordingly.
  const gr::Graph full = partial_spanner(11);
  const double w_prev = 0.3;
  gr::Graph gp(full.n());
  for (const gr::Edge& e : full.edges()) {
    if (e.w <= w_prev) gp.add_edge(e.u, e.v, e.w);
  }
  const double delta = 0.2;
  const auto cover = cl::sequential_cover(gp, delta * w_prev);
  const auto cg = cl::build_cluster_graph(gp, cover, w_prev);
  EXPECT_LE(cg.max_inter_weight, (2.0 * delta + 1.0) * w_prev + 1e-9);
}

TEST(ClusterGraph, GeneralizedInterWeightBoundWithLongEdges) {
  // Outside the paper's premise (e.g. long phase-0 clique edges in G'),
  // inter-cluster weights are still bounded by 2·radius + longest edge.
  const gr::Graph gp = partial_spanner(11);
  const double w_prev = 0.3;
  const double delta = 0.2;
  double max_edge = 0.0;
  for (const gr::Edge& e : gp.edges()) max_edge = std::max(max_edge, e.w);
  const auto cover = cl::sequential_cover(gp, delta * w_prev);
  const auto cg = cl::build_cluster_graph(gp, cover, w_prev);
  EXPECT_LE(cg.max_inter_weight, 2.0 * delta * w_prev + max_edge + 1e-9);
}

TEST(ClusterGraph, Lemma6InterDegreeIsSmall) {
  // Inter-cluster degree should be bounded by a constant independent of n.
  for (int n : {100, 200, 400}) {
    const gr::Graph gp = partial_spanner(12, n);
    const double w_prev = 0.25;
    const auto cover = cl::sequential_cover(gp, 0.1 * w_prev);
    const auto cg = cl::build_cluster_graph(gp, cover, w_prev);
    EXPECT_LE(cg.max_inter_degree, 64) << "n=" << n;
  }
}

TEST(ClusterGraph, Lemma7PathApproximation) {
  // For edges {x,y} with w in (W, rW], H-paths exist with length within
  // (1+6δ)/(1−2δ) of the G'-shortest path, and never shorter.
  const gr::Graph gp = partial_spanner(13);
  const double w_prev = 0.3;
  const double delta = 0.1;
  const auto cover = cl::sequential_cover(gp, delta * w_prev);
  const auto cg = cl::build_cluster_graph(gp, cover, w_prev);
  const double ratio = (1.0 + 6.0 * delta) / (1.0 - 2.0 * delta);
  int checked = 0;
  gr::DijkstraWorkspace ws_gp;
  gr::DijkstraWorkspace ws_h;
  for (int x = 0; x < gp.n() && checked < 200; x += 3) {
    const gr::SpView in_gp = ws_gp.bounded(gp, x, gr::kInf);
    const gr::SpView in_h = ws_h.bounded(cg.h, x, gr::kInf);
    for (int y = 0; y < gp.n(); y += 7) {
      if (x == y) continue;
      const double l1 = in_gp.dist(y);
      // Lemma 7 is stated for query-edge distances; restrict to the relevant
      // scale (longer than the cluster diameter, bounded by a few W).
      if (l1 == gr::kInf || l1 < 2.0 * delta * w_prev || l1 > 3.0 * w_prev) continue;
      const double l2 = in_h.dist(y);
      ASSERT_NE(l2, gr::kInf) << "H must connect what G' connects at this scale";
      EXPECT_GE(l2, l1 - 1e-9);                  // H never underestimates
      EXPECT_LE(l2, ratio * l1 + 1e-9) << l1;    // Lemma 7 upper bound
      ++checked;
    }
  }
  EXPECT_GT(checked, 50);
}

TEST(ClusterGraph, Lemma8QueriesHaveConstantHops) {
  const gr::Graph gp = partial_spanner(14);
  const double w_prev = 0.3;
  const double delta = 0.1;
  const double t = 1.5;
  const double r = 1.3;
  const auto cover = cl::sequential_cover(gp, delta * w_prev);
  const auto cg = cl::build_cluster_graph(gp, cover, w_prev);
  const int hop_cap = 2 + static_cast<int>(std::ceil(t * r / delta));
  for (int x = 0; x < gp.n(); x += 5) {
    for (int y = 0; y < gp.n(); y += 11) {
      if (x == y) continue;
      // Only query-edge-like pairs: Euclidean-scale weight in (W, rW].
      int hops = -1;
      const double bound = t * r * w_prev;
      const double d = cl::query_on_h(cg.h, x, y, bound, &hops);
      if (d == gr::kInf) continue;
      EXPECT_LE(hops, hop_cap);
    }
  }
}

TEST(ClusterGraph, QueryOnHRespectsBound) {
  gr::Graph h(3);
  h.add_edge(0, 1, 1.0);
  h.add_edge(1, 2, 1.0);
  int hops = -1;
  EXPECT_EQ(cl::query_on_h(h, 0, 2, 1.5, &hops), gr::kInf);
  EXPECT_EQ(hops, -1);
  EXPECT_DOUBLE_EQ(cl::query_on_h(h, 0, 2, 2.5, &hops), 2.0);
  EXPECT_EQ(hops, 2);
}

TEST(ClusterGraph, RejectsBadWPrev) {
  const gr::Graph gp(3);
  const auto cover = cl::sequential_cover(gp, 0.1);
  EXPECT_THROW(static_cast<void>(cl::build_cluster_graph(gp, cover, 0.0)), std::invalid_argument);
}
