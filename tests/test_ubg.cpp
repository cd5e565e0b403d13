// Tests for the α-UBG model: gray-zone policies and instance generation.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "graph/components.hpp"
#include "ubg/generator.hpp"
#include "ubg/policy.hpp"

namespace ub = localspan::ubg;
namespace gr = localspan::graph;

namespace {

/// The message of the std::invalid_argument `fn` throws ("" if none).
template <class Fn>
std::string invalid_argument_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

/// NaN passes a `x < lo || x > hi` range check, so each policy must name a
/// non-finite parameter itself.
const double kNonFinite[] = {std::nan(""), std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};

}  // namespace

TEST(Policy, AlwaysAndNever) {
  const auto a = ub::always_connect();
  const auto n = ub::never_connect();
  EXPECT_TRUE(a->connect(1, 2, 0.9));
  EXPECT_FALSE(n->connect(1, 2, 0.9));
  EXPECT_STREQ(a->name(), "always");
  EXPECT_STREQ(n->name(), "never");
}

TEST(Policy, ProbabilisticIsDeterministicPerSeed) {
  const auto p1 = ub::probabilistic(0.5, 123);
  const auto p2 = ub::probabilistic(0.5, 123);
  const auto p3 = ub::probabilistic(0.5, 456);
  int diff = 0;
  for (int u = 0; u < 200; ++u) {
    EXPECT_EQ(p1->connect(u, u + 1, 0.9), p2->connect(u, u + 1, 0.9));
    if (p1->connect(u, u + 1, 0.9) != p3->connect(u, u + 1, 0.9)) ++diff;
  }
  EXPECT_GT(diff, 10);  // different seeds actually differ
}

TEST(Policy, ProbabilisticRespectsExtremes) {
  const auto p0 = ub::probabilistic(0.0, 9);
  const auto p1 = ub::probabilistic(1.0, 9);
  for (int u = 0; u < 100; ++u) {
    EXPECT_FALSE(p0->connect(u, u + 7, 0.8));
    EXPECT_TRUE(p1->connect(u, u + 7, 0.8));
  }
  EXPECT_THROW(ub::probabilistic(1.5, 0), std::invalid_argument);
  EXPECT_THROW(ub::probabilistic(-0.1, 0), std::invalid_argument);
  for (const double bad : kNonFinite) {
    EXPECT_EQ(invalid_argument_message([&] { static_cast<void>(ub::probabilistic(bad, 0)); }),
              "probabilistic: p must be finite");
  }
}

TEST(Policy, ProbabilisticHitsRateApproximately) {
  const auto p = ub::probabilistic(0.3, 77);
  int yes = 0;
  const int trials = 5000;
  for (int u = 0; u < trials; ++u) {
    if (p->connect(u, u + 1, 0.9)) ++yes;
  }
  EXPECT_NEAR(static_cast<double>(yes) / trials, 0.3, 0.03);
}

TEST(Policy, Threshold) {
  const auto p = ub::threshold(0.85);
  EXPECT_TRUE(p->connect(0, 1, 0.85));
  EXPECT_FALSE(p->connect(0, 1, 0.86));
  EXPECT_THROW(ub::threshold(1.5), std::invalid_argument);
  for (const double bad : kNonFinite) {
    EXPECT_EQ(invalid_argument_message([&] { static_cast<void>(ub::threshold(bad)); }),
              "threshold: beta must be finite");
  }
}

TEST(Generator, ValidatesConfig) {
  ub::UbgConfig cfg;
  cfg.n = 0;
  EXPECT_THROW(static_cast<void>(ub::make_ubg(cfg)), std::invalid_argument);
  cfg.n = 10;
  cfg.alpha = 0.0;
  EXPECT_THROW(static_cast<void>(ub::make_ubg(cfg)), std::invalid_argument);
  cfg.alpha = 1.2;
  EXPECT_THROW(static_cast<void>(ub::make_ubg(cfg)), std::invalid_argument);
  cfg.alpha = 0.5;
  cfg.dim = 1;
  EXPECT_THROW(static_cast<void>(ub::make_ubg(cfg)), std::invalid_argument);
}

TEST(Generator, ModelInvariantsHoldForEveryPolicy) {
  ub::UbgConfig cfg;
  cfg.n = 250;
  cfg.alpha = 0.6;
  cfg.seed = 31;
  for (const auto* which : {"always", "never", "prob", "thresh"}) {
    std::unique_ptr<ub::GrayZonePolicy> policy;
    if (std::string(which) == "always") policy = ub::always_connect();
    if (std::string(which) == "never") policy = ub::never_connect();
    if (std::string(which) == "prob") policy = ub::probabilistic(0.5, 5);
    if (std::string(which) == "thresh") policy = ub::threshold(0.8);
    const ub::UbgInstance inst = ub::make_ubg(cfg, *policy);
    EXPECT_TRUE(ub::is_valid_ubg(inst)) << which;
  }
}

TEST(Generator, AlwaysPolicyDominatesNever) {
  ub::UbgConfig cfg;
  cfg.n = 200;
  cfg.alpha = 0.5;
  cfg.seed = 3;
  const auto a = ub::make_ubg(cfg, *ub::always_connect());
  const auto nv = ub::make_ubg(cfg, *ub::never_connect());
  EXPECT_GT(a.g.m(), nv.g.m());
  // Same placement: every never-edge is an always-edge.
  for (const gr::Edge& e : nv.g.edges()) EXPECT_TRUE(a.g.has_edge(e.u, e.v));
}

TEST(Generator, DeterministicGivenSeed) {
  ub::UbgConfig cfg;
  cfg.n = 150;
  cfg.seed = 77;
  const auto i1 = ub::make_ubg(cfg);
  const auto i2 = ub::make_ubg(cfg);
  EXPECT_EQ(i1.g, i2.g);
  cfg.seed = 78;
  const auto i3 = ub::make_ubg(cfg);
  EXPECT_FALSE(i1.g == i3.g);
}

TEST(Generator, AutoSizingHitsTargetDegree) {
  ub::UbgConfig cfg;
  cfg.n = 800;
  cfg.alpha = 0.7;
  cfg.target_degree = 12.0;
  cfg.seed = 19;
  const auto inst = ub::make_ubg(cfg, *ub::never_connect());
  // Mean degree within a factor ~2 of target (edge effects shrink it).
  const double mean = 2.0 * inst.g.m() / static_cast<double>(inst.g.n());
  EXPECT_GT(mean, 4.0);
  EXPECT_LT(mean, 24.0);
}

TEST(Generator, EdgeWeightsAreEuclidean) {
  ub::UbgConfig cfg;
  cfg.n = 100;
  cfg.seed = 8;
  const auto inst = ub::make_ubg(cfg);
  for (const gr::Edge& e : inst.g.edges()) {
    EXPECT_NEAR(e.w, inst.dist(e.u, e.v), 1e-9);
    EXPECT_LE(e.w, 1.0 + 1e-12);
  }
}

TEST(Generator, PlacementsProduceExpectedShapes) {
  ub::UbgConfig cfg;
  cfg.n = 300;
  cfg.seed = 13;
  cfg.placement = ub::Placement::kCorridor;
  const auto corridor = ub::make_ubg(cfg);
  // All points inside the strip of width 2*alpha.
  for (const auto& p : corridor.points) {
    EXPECT_LE(p[1], 2.0 * cfg.alpha + 1e-12);
    EXPECT_GE(p[1], -1e-12);
  }
  cfg.placement = ub::Placement::kClustered;
  const auto clustered = ub::make_ubg(cfg);
  EXPECT_TRUE(ub::is_valid_ubg(clustered));
}

TEST(Generator, HigherDimensions) {
  for (int d : {3, 4}) {
    ub::UbgConfig cfg;
    cfg.n = 150;
    cfg.dim = d;
    cfg.seed = 23;
    const auto inst = ub::make_ubg(cfg);
    EXPECT_TRUE(ub::is_valid_ubg(inst));
    EXPECT_EQ(inst.points.front().dim(), d);
    EXPECT_GT(inst.g.m(), 0);
  }
}

TEST(BallVolume, KnownValues) {
  EXPECT_NEAR(ub::ball_volume(2, 1.0), 3.14159265358979, 1e-9);
  EXPECT_NEAR(ub::ball_volume(3, 1.0), 4.18879020478639, 1e-9);
  EXPECT_NEAR(ub::ball_volume(2, 2.0), 4.0 * 3.14159265358979, 1e-9);
  EXPECT_THROW(static_cast<void>(ub::ball_volume(0, 1.0)), std::invalid_argument);
}
