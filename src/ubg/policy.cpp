#include "ubg/policy.hpp"

#include <cmath>
#include <stdexcept>

namespace localspan::ubg {

namespace {

class AlwaysPolicy final : public GrayZonePolicy {
 public:
  bool connect(int, int, double) const override { return true; }
  const char* name() const noexcept override { return "always"; }
};

class NeverPolicy final : public GrayZonePolicy {
 public:
  bool connect(int, int, double) const override { return false; }
  const char* name() const noexcept override { return "never"; }
};

class ProbabilisticPolicy final : public GrayZonePolicy {
 public:
  ProbabilisticPolicy(double p, std::uint64_t seed) : p_(p), seed_(seed) {
    if (!std::isfinite(p)) throw std::invalid_argument("probabilistic: p must be finite");
    if (p < 0.0 || p > 1.0) throw std::invalid_argument("probabilistic: p must be in [0,1]");
  }

  bool connect(int u, int v, double) const override {
    // splitmix64 over the (u, v, seed) triple: stable across platforms.
    std::uint64_t x = seed_ ^ (static_cast<std::uint64_t>(u) << 32) ^ static_cast<std::uint64_t>(v);
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    x ^= x >> 31;
    const double unit = static_cast<double>(x >> 11) * 0x1.0p-53;
    return unit < p_;
  }

  const char* name() const noexcept override { return "probabilistic"; }

 private:
  double p_;
  std::uint64_t seed_;
};

class ThresholdPolicy final : public GrayZonePolicy {
 public:
  explicit ThresholdPolicy(double beta) : beta_(beta) {
    if (!std::isfinite(beta)) throw std::invalid_argument("threshold: beta must be finite");
    if (beta < 0.0 || beta > 1.0) throw std::invalid_argument("threshold: beta must be in [0,1]");
  }

  bool connect(int, int, double dist) const override { return dist <= beta_; }
  const char* name() const noexcept override { return "threshold"; }

 private:
  double beta_;
};

}  // namespace

std::unique_ptr<GrayZonePolicy> always_connect() { return std::make_unique<AlwaysPolicy>(); }
std::unique_ptr<GrayZonePolicy> never_connect() { return std::make_unique<NeverPolicy>(); }
std::unique_ptr<GrayZonePolicy> probabilistic(double p, std::uint64_t seed) {
  return std::make_unique<ProbabilisticPolicy>(p, seed);
}
std::unique_ptr<GrayZonePolicy> threshold(double beta) {
  return std::make_unique<ThresholdPolicy>(beta);
}

}  // namespace localspan::ubg
