#pragma once
/// \file policy.hpp
/// Gray-zone edge policies for the α-quasi unit ball graph model (§1.1).
///
/// The α-UBG model prescribes: |uv| <= α  => edge, |uv| > 1 => no edge, and
/// says *nothing* about pairs in the gray zone (α, 1] — that freedom is how
/// the model captures transmission errors, fading and obstructions. A
/// GrayZonePolicy resolves that freedom. All policies are deterministic
/// functions of (u, v, distance, seed) so instances are reproducible, and
/// symmetric in (u, v) so the resulting graph is undirected.

#include <cstdint>
#include <memory>

namespace localspan::ubg {

/// Decides whether a gray-zone pair is connected.
class GrayZonePolicy {
 public:
  virtual ~GrayZonePolicy() = default;

  /// \param u,v   endpoint ids with u < v guaranteed by the generator.
  /// \param dist  Euclidean distance, in (alpha, 1].
  [[nodiscard]] virtual bool connect(int u, int v, double dist) const = 0;

  /// Human-readable policy name for experiment tables.
  [[nodiscard]] virtual const char* name() const noexcept = 0;
};

/// Every gray-zone pair is connected: G is the full unit ball graph (and for
/// alpha = 1 exactly the classical UDG of the literature the paper improves on).
[[nodiscard]] std::unique_ptr<GrayZonePolicy> always_connect();

/// No gray-zone pair is connected: the sparsest admissible α-UBG (an
/// adversary that drops every unstable link).
[[nodiscard]] std::unique_ptr<GrayZonePolicy> never_connect();

/// Pair {u,v} connected with probability p, decided by a seeded hash of
/// (min(u,v), max(u,v)) — symmetric and replayable.
/// \throws std::invalid_argument unless p is finite and in [0,1].
[[nodiscard]] std::unique_ptr<GrayZonePolicy> probabilistic(double p, std::uint64_t seed);

/// Connected iff dist <= beta, for a threshold beta in [alpha, 1]: models a
/// uniform radio range between the pessimistic and optimistic extremes.
/// \throws std::invalid_argument unless beta is finite and in [0,1].
[[nodiscard]] std::unique_ptr<GrayZonePolicy> threshold(double beta);

}  // namespace localspan::ubg
