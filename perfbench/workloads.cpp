/// \file workloads.cpp
/// Benchmark runner: runs one workload against the localspan library through
/// its public calls only, checks every output, and prints one JSON object
/// (metrics, attempted/failed counts and a deterministic detail record) as
/// its last line of standard output. perfbench/run.py builds and invokes it;
/// perfbench/README.md describes the workloads and the metrics.
///
/// Usage:
///   perfbench_runner --workload span-audit|build-scale|churn-serve|dist-build
///                    --seed S --ops N --trace 0|1
///
/// Each workload is defined by one row of kWorkloads; only its op count comes
/// from the command line. Every workload is bounded by counts (ops, set-ups,
/// query batches), never by time, so everything except the timings is a
/// fixed function of the arguments. A workload that needs more library
/// threads than the host has CPUs is not measured: the runner prints a
/// `skipped` record and exits with code 3.
///
/// With --trace 0 obs stays off and the end-to-end metrics are reported.
/// With --trace 1 the second op of every pair runs with obs on; the
/// per-layer metrics come from timing each public call from outside and from
/// the spans and counters the library already emits (obs::snapshot(),
/// BuildResult::phase_breakdown), and the untraced twins give the overhead.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/spanner_algorithm.hpp"
#include "core/distributed.hpp"
#include "core/params.hpp"
#include "core/verify.hpp"
#include "dynamic/churn.hpp"
#include "dynamic/dynamic_spanner.hpp"
#include "graph/components.hpp"
#include "graph/metrics.hpp"
#include "graph/sp_workspace.hpp"
#include "obs/obs.hpp"
#include "serve/query_engine.hpp"
#include "ubg/generator.hpp"

#ifndef LOCALSPAN_BENCH_BUILD_TYPE
#define LOCALSPAN_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace localspan;
using Clock = std::chrono::steady_clock;

constexpr double kEps = 0.5;
constexpr double kAlpha = 0.75;
constexpr int kWindowEvents = 64;         ///< churn events per apply_batch window (`serve` default).
constexpr int kDistancePerBlock = 16384;  ///< timed distance calls per batch (0.5-2 µs each).
constexpr int kRoutePerBlock = 64;        ///< timed route calls per batch (0.15-4 ms each).
constexpr int kWarmDistance = 512;        ///< untimed calls that re-warm the caches after an op.
constexpr int kWarmRoute = 2;
constexpr int kDistanceChecks = 8;        ///< distance answers per batch checked against Dijkstra.
constexpr int kRouteChecks = 2;           ///< route answers per batch checked against Dijkstra.
constexpr double kAuditCap = 2.0;      ///< bounded stretch audit: exact for every value <= t.
constexpr double kRelTol = 1e-9;

[[nodiscard]] double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

[[nodiscard]] double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Nearest-rank percentile (the sample at rank ceil(q·n)).
[[nodiscard]] double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

[[nodiscard]] double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux.
}

// ---------------------------------------------------------------------------
// Arguments
// ---------------------------------------------------------------------------

/// Everything that defines a workload except its op count, which
/// perfbench/run.py derives from --seconds.
struct WorkloadSpec {
  std::string_view name;
  std::string_view algo;  ///< registry algorithm of a static workload; empty for churn.
  int n = 0;
  int threads = 1;        ///< library worker threads.
  int setups = 1;         ///< set-ups per run; setup_s is their median.
  int quality = 1;        ///< outputs in the quality sample (instances, or churn windows).
  int query_batches = 1;  ///< query batches after every op (and static set-up).
  bool audited = false;   ///< the op is the audited build (`span` then `verify`).
};

constexpr WorkloadSpec kWorkloads[] = {
    {"span-audit", "relaxed", 3000, 1, 3, 9, 5, true},
    {"build-scale", "relaxed", 30000, 2, 3, 5, 1, false},
    {"churn-serve", "", 8000, 1, 3, 20, 1, false},
    {"dist-build", "relaxed-dist", 4000, 1, 3, 7, 1, false},
};

struct Args {
  WorkloadSpec w;
  std::uint64_t seed = 1;
  int ops = 1;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    const auto as_int = [&](int lo) {
      const int v = api::parse_int(flag, value);
      if (v < lo) throw std::invalid_argument(flag + " must be >= " + std::to_string(lo));
      return v;
    };
    if (flag == "--workload") {
      const auto it = std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                                   [&](const WorkloadSpec& w) { return w.name == value; });
      if (it == std::end(kWorkloads)) {
        throw std::invalid_argument("unknown workload '" + value + "'");
      }
      a.w = *it;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = static_cast<std::uint64_t>(as_int(0));
    } else if (flag == "--ops") {
      a.ops = as_int(1);
    } else if (flag == "--trace") {
      a.trace = as_int(0) != 0;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

[[nodiscard]] int host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 1;
}

// ---------------------------------------------------------------------------
// Report: metrics, per-layer samples, counts and the deterministic detail
// ---------------------------------------------------------------------------

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// One per-layer sample; the reported value is the median of the samples.
  void layer(const std::string& name, double value, const std::string& unit) {
    auto& slot = layers_[name];
    slot.first.push_back(value);
    slot.second = unit;
  }
  /// A value that is a fixed function of the arguments (quality, counts).
  void detail(const std::string& name, double value) { detail_[name] = value; }

  void attempt(long long n = 1) { attempted_ += n; }
  void fail(const std::string& why) {
    ++failed_;
    if (errors_.size() < 8) errors_.push_back(why);
  }

  void print(const Args& a) const {
    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"nproc\": %d, ",
                std::string(a.w.name).c_str(), static_cast<unsigned long long>(a.seed),
                a.trace ? 1 : 0, host_cpus());
    std::printf("\"threads\": %d, \"setups\": %d, \"quality\": %d, \"query_batches\": %d, ",
                a.w.threads, a.w.setups, a.w.quality, a.w.query_batches);
    std::printf("\"build_type\": \"%s\", \"attempted\": %lld, \"failed\": %lld, \"errors\": [",
                LOCALSPAN_BENCH_BUILD_TYPE, attempted_, failed_);
    for (std::size_t i = 0; i < errors_.size(); ++i) {
      std::printf("%s\"%s\"", i ? ", " : "", escaped(errors_[i]).c_str());
    }
    std::printf("], \"metrics\": {");
    bool first = true;
    for (const Metric& m : metrics_) {
      print_metric(m.name, m.value, m.unit, first);
    }
    for (const auto& [name, samples] : layers_) {
      print_metric(name, median(samples.first), samples.second, first);
    }
    std::printf("}, \"samples\": {");
    first = true;
    for (const auto& [name, samples] : layers_) {
      std::printf("%s\"%s\": %zu", first ? "" : ", ", name.c_str(), samples.first.size());
      first = false;
    }
    std::printf("}, \"detail\": {");
    first = true;
    for (const auto& [name, value] : detail_) {
      std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), finite_or_zero(value));
      first = false;
    }
    std::printf("}}\n");
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  static double finite_or_zero(double v) { return std::isfinite(v) ? v : 0.0; }

  static void print_metric(const std::string& name, double value, const std::string& unit,
                           bool& first) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", name.c_str(),
                finite_or_zero(value), unit.c_str());
    first = false;
  }

  static std::string escaped(const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
    }
    return out;
  }

  std::vector<Metric> metrics_;
  std::map<std::string, std::pair<std::vector<double>, std::string>> layers_;
  std::map<std::string, double> detail_;
  long long attempted_ = 0;
  long long failed_ = 0;
  std::vector<std::string> errors_;
};

// ---------------------------------------------------------------------------
// obs readings: the counters, spans and histograms the library emits,
// differenced around one layer call.
// ---------------------------------------------------------------------------

class ObsMark {
 public:
  [[nodiscard]] static ObsMark take() {
    ObsMark m;
    const obs::Snapshot snap = obs::snapshot();
    for (const auto& [name, value] : snap.counters) m.counters_[name] = value;
    for (const obs::SpanStat& s : snap.spans) m.span_ns_[s.name] = s.total_ns;
    for (const auto& [name, h] : snap.histograms) m.hist_[name] = {h.count, h.sum};
    return m;
  }

  /// `after` minus `before`, entry by entry.
  [[nodiscard]] static ObsMark diff(const ObsMark& before, const ObsMark& after) {
    ObsMark d = after;
    const auto subtract = [](std::map<std::string, std::int64_t>& into,
                             const std::map<std::string, std::int64_t>& from) {
      for (auto& [name, v] : into) {
        const auto it = from.find(name);
        if (it != from.end()) v -= it->second;
      }
    };
    subtract(d.counters_, before.counters_);
    subtract(d.span_ns_, before.span_ns_);
    for (auto& [name, v] : d.hist_) {
      const auto it = before.hist_.find(name);
      if (it != before.hist_.end()) {
        v.first -= it->second.first;
        v.second -= it->second.second;
      }
    }
    return d;
  }

  [[nodiscard]] double counter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : static_cast<double>(it->second);
  }
  [[nodiscard]] double span_ms(const std::string& name) const {
    const auto it = span_ns_.find(name);
    return it == span_ns_.end() ? 0.0 : static_cast<double>(it->second) * 1e-6;
  }
  /// Sum of every span whose name starts with `prefix`.
  [[nodiscard]] double span_prefix_ms(const std::string& prefix) const {
    double total = 0.0;
    for (const auto& [name, ns] : span_ns_) {
      if (name.rfind(prefix, 0) == 0) total += static_cast<double>(ns) * 1e-6;
    }
    return total;
  }
  [[nodiscard]] double hist_mean(const std::string& name) const {
    const auto it = hist_.find(name);
    if (it == hist_.end() || it->second.first <= 0) return 0.0;
    return static_cast<double>(it->second.second) / static_cast<double>(it->second.first);
  }

 private:
  std::map<std::string, std::int64_t> counters_;
  std::map<std::string, std::int64_t> span_ns_;
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> hist_;
};

/// The runtime, graph and cluster counters every construction moves.
void record_build_counters(const ObsMark& d, Report& rep) {
  rep.layer("graph.heap_pops", d.counter("rg.heap_pops") + d.counter("dyn.heap_pops"), "count");
  rep.layer("runtime.pool_dispatches", d.counter("pool.dispatches"), "count");
  rep.layer("runtime.pool_tasks", d.counter("pool.tasks"), "count");
  rep.layer("runtime.pool_idle_ms", d.counter("pool.idle_ns") * 1e-6, "ms");
  rep.layer("runtime.net_bytes", d.counter("net.bytes"), "bytes");
  rep.layer("cluster.cover_ball_size_mean", d.hist_mean("cover.ball_size"), "nodes");
  rep.layer("cluster.speculation_waste", d.counter("cover.speculation_waste"), "count");
  rep.layer("core.edges_examined", d.counter("rg.edges_examined"), "count");
  rep.layer("core.edges_covered", d.counter("rg.edges_covered"), "count");
  rep.layer("core.edges_candidate", d.counter("rg.edges_candidate"), "count");
  rep.layer("core.edges_added", d.counter("rg.edges_added"), "count");
  rep.layer("core.edges_removed", d.counter("rg.edges_removed"), "count");
  const double queries = d.counter("rg.queries");
  rep.layer("core.query_yield", queries > 0 ? d.counter("rg.edges_added") / queries : 0.0,
            "ratio");
}

/// The registry's per-phase costs of one build (BuildResult::phase_breakdown).
/// Returns the summed phase time, "construct" itself excluded.
double record_phases(const api::BuildResult& res, Report& rep) {
  double phases_ms = 0.0;
  for (const api::PhaseCost& pc : res.phase_breakdown) {
    if (pc.name == "construct") continue;
    const double ms = 1e3 * pc.seconds;
    phases_ms += ms;
    rep.layer("core." + pc.name + "_ms", ms, "ms");
  }
  if (phases_ms > 0.0) rep.layer("core.rg.unattributed_ms", 1e3 * res.seconds - phases_ms, "ms");
  return phases_ms;
}

// ---------------------------------------------------------------------------
// Instances, builds and checks
// ---------------------------------------------------------------------------

[[nodiscard]] core::Params bench_params() { return core::Params::practical_params(kEps, kAlpha); }

[[nodiscard]] ubg::UbgInstance make_instance(int n, std::uint64_t seed) {
  ubg::UbgConfig cfg;
  cfg.n = n;
  cfg.dim = 2;
  cfg.alpha = kAlpha;
  cfg.placement = ubg::Placement::kUniform;
  cfg.seed = seed;
  return ubg::make_ubg(cfg);
}

/// 32-bit FNV-1a fingerprints (exact as JSON numbers): equal inputs and
/// outputs across runs, different ones across seeds.
class Fingerprint {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    add(bits);
  }
  [[nodiscard]] double value() const { return static_cast<double>((h_ ^ (h_ >> 32)) & 0xFFFFFFFFu); }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

[[nodiscard]] double instance_fingerprint(const ubg::UbgInstance& inst) {
  Fingerprint f;
  f.add(static_cast<std::uint64_t>(inst.g.m()));
  for (const geom::Point& p : inst.points) {
    for (int k = 0; k < p.dim(); ++k) f.add(p[k]);
  }
  return f.value();
}

[[nodiscard]] double graph_fingerprint(const graph::Graph& g) {
  Fingerprint f;
  for (const graph::Edge& e : g.edges()) {
    f.add(static_cast<std::uint64_t>(e.u) << 32 | static_cast<std::uint32_t>(e.v));
    f.add(e.w);
  }
  return f.value();
}

[[nodiscard]] bool same_graph(const graph::Graph& a, const graph::Graph& b) {
  return a.n() == b.n() && a.m() == b.m() && a.edges() == b.edges();
}

[[nodiscard]] api::Options build_options(int threads, bool distributed) {
  api::Options o;
  o.set("threads", std::to_string(threads));
  if (distributed) {
    o.set("net", "sync");
    o.set("seed", "1");  // fixed Luby seed: the workload seed only draws the instance.
  }
  return o;
}

/// PhaseStats sums of one build: deterministic, compared by the self-test.
void record_phase_stats(const std::vector<core::PhaseStats>& phases, Report& rep) {
  double in_bin = 0, covered = 0, candidates = 0, queries = 0, added = 0, removed = 0;
  for (const core::PhaseStats& p : phases) {
    in_bin += p.edges_in_bin;
    covered += p.covered;
    candidates += p.candidates;
    queries += p.queries;
    added += p.added;
    removed += p.removed;
  }
  rep.detail("phase.rows", static_cast<double>(phases.size()));
  rep.detail("phase.edges_in_bin", in_bin);
  rep.detail("phase.covered", covered);
  rep.detail("phase.candidates", candidates);
  rep.detail("phase.queries", queries);
  rep.detail("phase.added", added);
  rep.detail("phase.removed", removed);
}

/// Measurements of one static audit.
struct StaticAudit {
  double stretch = 0.0;
  double lightness = 0.0;
  int max_degree = 0;
  double audit_ms = 0.0;
  double lightness_ms = 0.0;
};

/// Independent audit of a static build: cap-2.0 stretch (exact for any value
/// <= t), the policy degree and lightness caps, and component preservation.
/// Returns the violation, empty when every check holds.
std::string audit_static(const ubg::UbgInstance& inst, const graph::Graph& h, double t,
                         StaticAudit& out) {
  const core::VerifyCaps caps{};
  const auto t0 = Clock::now();
  out.stretch = graph::max_edge_stretch(inst.g, h, kAuditCap, 1);
  const auto t1 = Clock::now();
  out.lightness = graph::lightness(inst.g, h);
  const auto t2 = Clock::now();
  out.audit_ms = ms_between(t0, t1);
  out.lightness_ms = ms_between(t1, t2);
  out.max_degree = h.max_degree();
  char buf[160];
  if (out.stretch > t * (1.0 + kRelTol)) {
    std::snprintf(buf, sizeof(buf), "stretch %.6f exceeds t=%.3f", out.stretch, t);
    return buf;
  }
  if (out.max_degree > caps.max_degree) {
    std::snprintf(buf, sizeof(buf), "max degree %d exceeds cap %d", out.max_degree,
                  caps.max_degree);
    return buf;
  }
  if (out.lightness > caps.lightness) {
    std::snprintf(buf, sizeof(buf), "lightness %.4f exceeds cap %.1f", out.lightness,
                  caps.lightness);
    return buf;
  }
  const int want = graph::connected_components(inst.g).count;
  const int got = graph::connected_components(h).count;
  if (want != got) {
    std::snprintf(buf, sizeof(buf), "components changed: G has %d, output %d", want, got);
    return buf;
  }
  return {};
}

/// The paper's three guarantees over a sample of outputs: the timed outputs
/// plus further instances drawn from the same seed (static workloads), or
/// evenly spaced churn windows. One instance's maximum degree and lightness
/// vary too much from seed to seed to gate on, so the sample's medians are
/// reported; the worst values go to the detail record.
class QualitySample {
 public:
  void add(double stretch, double lightness, int max_degree) {
    stretch_.push_back(stretch);
    lightness_.push_back(lightness);
    max_degree_.push_back(max_degree);
  }

  void report(Report& rep) const {
    const auto worst = [](const std::vector<double>& v) {
      return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
    };
    rep.metric("stretch", median(stretch_), "ratio");
    rep.metric("lightness", median(lightness_), "ratio");
    rep.metric("max_degree", median(max_degree_), "count");
    rep.detail("stretch", median(stretch_));
    rep.detail("lightness", median(lightness_));
    rep.detail("max_degree", median(max_degree_));
    rep.detail("stretch_worst", worst(stretch_));
    rep.detail("lightness_worst", worst(lightness_));
    rep.detail("max_degree_worst", worst(max_degree_));
    rep.detail("quality_samples", static_cast<double>(stretch_.size()));
  }

 private:
  std::vector<double> stretch_;
  std::vector<double> lightness_;
  std::vector<double> max_degree_;
};

/// Seed of the j-th instance of a run (instance 0 uses the run's seed).
[[nodiscard]] std::uint64_t instance_seed(std::uint64_t seed, int j) {
  if (j == 0) return seed;
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(j);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Instances `first`..quality-1 of the static quality sample (the timed
/// instances come first): each built once on one thread (the output is
/// bit-identical at every thread count) and audited like the timed outputs.
void sample_static_quality(const Args& a, int first, QualitySample& q, Report& rep) {
  const core::Params params = bench_params();
  const std::string algo(a.w.algo);
  const api::Options opts = build_options(1, algo == "relaxed-dist");
  for (int j = first; j < a.w.quality; ++j) {
    const ubg::UbgInstance inst = make_instance(a.w.n, instance_seed(a.seed, j));
    const api::BuildResult res = api::registry().build(algo, {inst, params, opts}, false);
    StaticAudit audit;
    const std::string violation = audit_static(inst, res.spanner, params.t, audit);
    rep.attempt();
    if (!violation.empty()) rep.fail("quality instance " + std::to_string(j) + ": " + violation);
    q.add(audit.stretch, audit.lightness, audit.max_degree);
  }
}

// ---------------------------------------------------------------------------
// Query serving: timed blocks of distance and route calls on the published
// snapshot, with a sample of the answers checked against exact Dijkstra on
// the same pinned snapshot.
// ---------------------------------------------------------------------------

class QueryLoad {
 public:
  explicit QueryLoad(std::uint64_t seed) : rng_(seed ^ 0x5DEECE66DULL) {}

  /// One batch: a few untimed calls that bring the snapshot back into the
  /// caches after the op, then kDistancePerBlock distance calls timed as one
  /// block and kRoutePerBlock route calls timed as another. A snapshot too
  /// small to query counts as one failed attempt.
  void run(serve::QueryEngine::Reader& reader, Report& rep) {
    int n = 0;
    {
      const serve::SnapshotStore::ReadGuard g = reader.pin();
      n = g ? g->n : 0;
    }
    if (n < 2) {
      rep.attempt();
      rep.fail("published snapshot has fewer than two nodes");
      return;
    }
    draw(dist_pairs_, kWarmDistance, n);
    draw(route_pairs_, kWarmRoute, n);
    serve_distances(reader);
    serve_routes(reader);

    draw(dist_pairs_, kDistancePerBlock, n);
    draw(route_pairs_, kRoutePerBlock, n);
    const auto t0 = Clock::now();
    serve_distances(reader);
    const auto t1 = Clock::now();
    serve_routes(reader);
    const auto t2 = Clock::now();
    distance_us_.push_back(1e3 * ms_between(t0, t1) / kDistancePerBlock);
    route_us_.push_back(1e3 * ms_between(t1, t2) / kRoutePerBlock);
    rep.attempt(kDistancePerBlock + kRoutePerBlock);
    check_sample(reader, rep);
  }

  [[nodiscard]] const std::vector<double>& distance_us() const { return distance_us_; }
  [[nodiscard]] const std::vector<double>& route_us() const { return route_us_; }
  [[nodiscard]] double oracle_hit_ratio() const {
    return distance_calls_ > 0 ? static_cast<double>(oracle_hits_) / distance_calls_ : 0.0;
  }

 private:
  void draw(std::vector<std::pair<int, int>>& pairs, int count, int n) {
    std::uniform_int_distribution<int> pick(0, n - 1);
    pairs.resize(static_cast<std::size_t>(count));
    for (auto& [s, d] : pairs) {
      s = pick(rng_);
      d = pick(rng_);
      if (s == d) d = (d + 1) % n;
    }
  }

  void serve_distances(serve::QueryEngine::Reader& reader) {
    dist_answers_.resize(dist_pairs_.size());
    for (std::size_t i = 0; i < dist_pairs_.size(); ++i) {
      const serve::QueryEngine::DistanceAnswer a =
          reader.distance(dist_pairs_[i].first, dist_pairs_[i].second);
      dist_answers_[i] = a.distance;
      oracle_hits_ += a.via_oracle ? 1 : 0;
    }
    distance_calls_ += static_cast<long long>(dist_pairs_.size());
  }

  void serve_routes(serve::QueryEngine::Reader& reader) {
    route_answers_.resize(route_pairs_.size());
    for (std::size_t i = 0; i < route_pairs_.size(); ++i) {
      route_answers_[i] = reader.route(route_pairs_[i].first, route_pairs_[i].second);
    }
  }

  /// Served answers must lie in [exact, bound·exact] on the pinned snapshot
  /// (bound only when the oracle is not truncated); a route must be found
  /// whenever the exact distance is finite.
  void check_sample(serve::QueryEngine::Reader& reader, Report& rep) {
    const serve::SnapshotStore::ReadGuard g = reader.pin();
    const serve::TopologySnapshot& snap = *g;
    const double bound = snap.oracle.stretch_bound();
    const bool bounded = !snap.oracle.truncated();
    const auto within = [&](double got, double exact) {
      if (exact == graph::kInf) return got == graph::kInf;
      if (!(got < graph::kInf)) return false;
      const double tol = kRelTol * std::max(1.0, exact);
      return got >= exact - tol && (!bounded || got <= bound * exact + tol);
    };
    char buf[160];
    for (std::size_t i = 0; i < dist_pairs_.size(); i += dist_pairs_.size() / kDistanceChecks) {
      const auto [s, d] = dist_pairs_[i];
      const double exact = ws_.distance(snap.csr, s, d);
      if (!within(dist_answers_[i], exact)) {
        std::snprintf(buf, sizeof(buf), "distance(%d,%d) served %.6g, exact %.6g, bound %.2f", s,
                      d, dist_answers_[i], exact, bound);
        rep.fail(buf);
      }
    }
    for (std::size_t i = 0; i < route_pairs_.size(); i += route_pairs_.size() / kRouteChecks) {
      const auto [s, d] = route_pairs_[i];
      const serve::QueryEngine::RouteAnswer& r = route_answers_[i];
      const double exact = ws_.distance(snap.csr, s, d);
      const bool ok = r.reachable ? within(r.distance, exact) : exact == graph::kInf;
      if (!ok) {
        std::snprintf(buf, sizeof(buf), "route(%d,%d) reachable=%d dist %.6g, exact %.6g", s, d,
                      r.reachable ? 1 : 0, r.distance, exact);
        rep.fail(buf);
      }
    }
  }

  std::mt19937_64 rng_;
  graph::DijkstraWorkspace ws_;
  std::vector<std::pair<int, int>> dist_pairs_;
  std::vector<std::pair<int, int>> route_pairs_;
  std::vector<double> dist_answers_;
  std::vector<serve::QueryEngine::RouteAnswer> route_answers_;
  std::vector<double> distance_us_;
  std::vector<double> route_us_;
  long long distance_calls_ = 0;
  long long oracle_hits_ = 0;
};

/// Reports the query latencies of a finished load, under the end-to-end names
/// (untraced run) or the serve.* layer names (traced run).
void record_queries(const QueryLoad& load, bool traced, Report& rep) {
  if (traced) {
    rep.layer("serve.distance_us", median(load.distance_us()), "us");
    rep.layer("serve.route_us", median(load.route_us()), "us");
    rep.layer("serve.oracle_hit_ratio", load.oracle_hit_ratio(), "ratio");
  } else {
    rep.metric("distance_us_p50", median(load.distance_us()), "us");
    rep.metric("route_us_p50", median(load.route_us()), "us");
    rep.detail("query_blocks", static_cast<double>(load.distance_us().size()));
  }
}

/// Publishes a static workload's output to a fresh query engine. In the
/// traced run obs is on, so the oracle build span and label counter are read.
std::unique_ptr<serve::QueryEngine> publish_static(const Args& a, const ubg::UbgInstance& inst,
                                                   const graph::Graph& h, Report& rep) {
  serve::ServeOptions sopts;
  sopts.threads = a.w.threads;
  auto qe = std::make_unique<serve::QueryEngine>(sopts);
  obs::set_enabled(a.trace);
  const ObsMark before = a.trace ? ObsMark::take() : ObsMark{};
  const auto t0 = Clock::now();
  qe->publish(h, inst.points, bench_params().t);
  const auto t1 = Clock::now();
  obs::set_enabled(false);
  if (a.trace) {
    const ObsMark d = ObsMark::diff(before, ObsMark::take());
    rep.layer("serve.publish_ms", ms_between(t0, t1), "ms");
    rep.layer("serve.oracle_build_ms", d.span_ms("serve.oracle_build"), "ms");
    rep.layer("serve.label_entries", d.counter("serve.label_entries"), "count");
  }
  return qe;
}

/// Wall time of one op and, for a traced op, the part of it that the timed
/// layers cover.
struct OpTime {
  double ms = 0.0;
  double covered_ms = 0.0;
};

/// The workload's query batches on `qe`'s current snapshot, through a
/// reader of their own.
void serve_batches(const Args& a, serve::QueryEngine& qe, QueryLoad& load, Report& rep) {
  serve::QueryEngine::Reader reader = qe.reader();
  for (int b = 0; b < a.w.query_batches; ++b) load.run(reader, rep);
}

/// The closed loop every workload runs: a.ops ops, one after another. Ops
/// 2j and 2j+1 both belong to instance j % engines.size(), and in the traced
/// run the second of each pair runs with obs on, so each traced op has an
/// untraced twin on the same instance. After each op, with obs still in the
/// op's state, the workload's query batches run on that instance's published
/// snapshot, so the query samples spread over the whole run; untraced
/// batches go to `load`, which may already hold samples from the set-up.
/// `op(i, k, traced)` runs and times op i on instance k, and returns nothing
/// when the loop must stop.
///
/// Untraced run: the end-to-end op percentiles and query latencies. Traced
/// run: the tracing overhead (median over the pairs of traced over untraced
/// op time, minus 1), the share of op time no timed layer covers, and the
/// serve.* query layers.
template <class Op>
void closed_loop(const Args& a, const std::vector<serve::QueryEngine*>& engines,
                 QueryLoad& load, Op&& op, Report& rep) {
  QueryLoad traced_load(a.seed ^ 0x7A11ULL);
  std::vector<double> untraced_ms, overhead;
  {
    std::vector<serve::QueryEngine::Reader> readers;
    readers.reserve(engines.size());
    for (serve::QueryEngine* qe : engines) readers.push_back(qe->reader());
    for (int i = 0; i < a.ops; ++i) {
      const bool traced = a.trace && i % 2 == 1;
      const std::size_t k = static_cast<std::size_t>(i / 2) % readers.size();
      obs::set_enabled(traced);
      const std::optional<OpTime> t = op(i, k, traced);
      if (t) {
        for (int b = 0; b < a.w.query_batches; ++b) {
          (traced ? traced_load : load).run(readers[k], rep);
        }
      }
      obs::set_enabled(false);
      if (!t) break;
      if (!traced) {
        untraced_ms.push_back(t->ms);
        continue;
      }
      overhead.push_back(t->ms / untraced_ms.back() - 1.0);
      rep.layer("trace.unattributed_frac", t->ms > 0 ? 1.0 - t->covered_ms / t->ms : 0.0,
                "ratio");
    }
  }
  std::fprintf(stderr, "op_ms:");
  for (const double ms : untraced_ms) std::fprintf(stderr, " %.1f", ms);
  std::fprintf(stderr, "\n");
  if (a.trace) {
    if (!overhead.empty()) rep.layer("trace.overhead_frac", median(overhead), "ratio");
  } else {
    rep.metric("op_ms_p50", median(untraced_ms), "ms");
    rep.metric("op_ms_p90", percentile(untraced_ms, 0.9), "ms");
    rep.detail("op_samples", static_cast<double>(untraced_ms.size()));
  }
  record_queries(a.trace ? traced_load : load, a.trace, rep);
}

void record_setup(const std::vector<double>& setup_s, Report& rep) {
  rep.metric("setup_s", median(setup_s), "s");
  rep.detail("setup_samples", static_cast<double>(setup_s.size()));
}

// ---------------------------------------------------------------------------
// Static workloads. span-audit: the audited build — build(relaxed, measure),
// check_guarantees, verify_spanner — on n=3000. build-scale and dist-build:
// one unmeasured build per op. Every output is also audited independently
// outside every timed window.
// ---------------------------------------------------------------------------

/// One op of a static workload and the times of its layer calls.
struct StaticOp {
  api::BuildResult res;
  double build_ms = 0.0;
  double check_ms = 0.0;
  double verify_ms = 0.0;
  std::string failure;  ///< the violation the op's own checks found, if any.
};

StaticOp static_op(const WorkloadSpec& w, const api::BuildRequest& req) {
  StaticOp out;
  const auto t0 = Clock::now();
  out.res = api::registry().build(std::string(w.algo), req, /*measure=*/w.audited);
  const auto t1 = Clock::now();
  out.build_ms = ms_between(t0, t1);
  if (!w.audited) return out;
  const std::string violation = api::check_guarantees(req.inst, out.res);
  const auto t2 = Clock::now();
  const core::VerificationReport vr = core::verify_spanner(req.inst, out.res.spanner, req.params.t);
  const auto t3 = Clock::now();
  out.check_ms = ms_between(t1, t2);
  out.verify_ms = ms_between(t2, t3);
  if (!violation.empty()) out.failure = "check_guarantees: " + violation;
  else if (!vr.ok()) out.failure = "verify_spanner: " + vr.summary();
  return out;
}

/// Per-layer records of one traced op; returns the op time its layers cover
/// (an opaque construction, with no declared phases, is covered by construct).
double record_static_op(const WorkloadSpec& w, const StaticOp& op, const ObsMark& d,
                        Report& rep) {
  const double construct_ms = 1e3 * op.res.seconds;
  rep.layer("api.construct_ms", construct_ms, "ms");
  record_build_counters(d, rep);
  const double phases_ms = record_phases(op.res, rep);
  if (!w.audited) return phases_ms > 0.0 ? phases_ms : construct_ms;
  rep.layer("api.measure_ms", op.build_ms - construct_ms, "ms");
  rep.layer("api.check_guarantees_ms", op.check_ms, "ms");
  rep.layer("core.verify_spanner_ms", op.verify_ms, "ms");
  return op.build_ms + op.check_ms + op.verify_ms;
}

/// Fingerprint over several per-instance fingerprints.
[[nodiscard]] double combined(const std::vector<double>& parts) {
  Fingerprint f;
  for (const double p : parts) f.add(p);
  return f.value();
}

/// One timed instance of a static workload, set up before the first op.
struct TimedInstance {
  ubg::UbgInstance inst;
  api::BuildResult warm;  ///< the checked warm-up output every op must reproduce.
  std::unique_ptr<serve::QueryEngine> engine;
  StaticAudit audit;      ///< independent audit of the warm-up output.
};

/// Deterministic records of the timed instances: fingerprints, sizes and the
/// summed PhaseStats of their warm-up builds.
void record_instances(const std::vector<TimedInstance>& v, Report& rep) {
  std::vector<double> inst_fp, out_fp;
  double ubg_edges = 0, spanner_edges = 0;
  std::vector<core::PhaseStats> phases;
  for (const TimedInstance& t : v) {
    inst_fp.push_back(instance_fingerprint(t.inst));
    out_fp.push_back(graph_fingerprint(t.warm.spanner));
    ubg_edges += t.inst.g.m();
    spanner_edges += t.warm.spanner.m();
    phases.insert(phases.end(), t.warm.phases.begin(), t.warm.phases.end());
  }
  rep.detail("instance", combined(inst_fp));
  rep.detail("spanner", combined(out_fp));
  rep.detail("ubg_edges", ubg_edges);
  rep.detail("spanner_edges", spanner_edges);
  record_phase_stats(phases, rep);
}

/// span-audit only: the build's measured (cap-64) stretch and lightness must
/// equal the independent audit's (cap-2.0 is exact for any stretch <= t,
/// which the ops' checks established), and the traced run times the graph
/// layer's measurements as standalone calls.
void check_measured_metrics(const Args& a, const std::vector<TimedInstance>& timed,
                            Report& rep) {
  for (const TimedInstance& ti : timed) {
    rep.attempt();
    if (ti.audit.stretch != ti.warm.metrics.stretch ||
        ti.audit.lightness != ti.warm.metrics.lightness) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "bounded audit %.17g / lightness %.17g differ from measured %.17g / %.17g",
                    ti.audit.stretch, ti.audit.lightness, ti.warm.metrics.stretch,
                    ti.warm.metrics.lightness);
      rep.fail(buf);
    }
  }
  const TimedInstance& ti = timed.front();
  rep.detail("stretch_cap2", ti.audit.stretch);
  rep.detail("stretch_cap64", ti.warm.metrics.stretch);
  if (!a.trace) return;
  const auto s0 = Clock::now();
  const double exact = graph::max_edge_stretch(ti.inst.g, ti.warm.spanner, 64.0, 1);
  const auto s1 = Clock::now();
  const double power = graph::power_cost(ti.warm.spanner);
  const auto s2 = Clock::now();
  rep.layer("graph.max_edge_stretch_ms", ms_between(s0, s1), "ms");
  rep.layer("graph.power_cost_ms", ms_between(s1, s2), "ms");
  rep.detail("power_cost", power);
  rep.attempt();
  if (exact != ti.warm.metrics.stretch) rep.fail("standalone cap-64 stretch differs");
}

void run_static(const Args& a, Report& rep) {
  const WorkloadSpec& w = a.w;
  const bool distributed = w.algo == "relaxed-dist";
  const core::Params params = bench_params();
  const api::Options opts = build_options(w.threads, distributed);
  // Each set-up draws its own instance; the ops rotate over them, so one
  // run's medians average over instances as well as over time.
  std::vector<TimedInstance> timed;
  std::vector<double> setup_s;
  QueryLoad load(a.seed);
  for (int k = 0; k < w.setups; ++k) {
    const auto t0 = Clock::now();
    ubg::UbgInstance inst = make_instance(w.n, instance_seed(a.seed, k));
    const auto t1 = Clock::now();
    StaticOp warm = static_op(w, {inst, params, opts});
    std::unique_ptr<serve::QueryEngine> engine = publish_static(a, inst, warm.res.spanner, rep);
    setup_s.push_back(1e-3 * ms_between(t0, Clock::now()));
    rep.layer("ubg.make_ubg_ms", ms_between(t0, t1), "ms");
    // The independent audit runs outside the set-up clock: it is no part of
    // what a user of the build waits for.
    StaticAudit audit;
    const std::string violation = audit_static(inst, warm.res.spanner, params.t, audit);
    rep.attempt();
    if (!warm.failure.empty()) rep.fail("warm-up: " + warm.failure);
    else if (!violation.empty()) rep.fail("warm-up: " + violation);
    if (a.trace) {
      rep.layer("graph.audit_bounded_ms", audit.audit_ms, "ms");
      rep.layer("graph.lightness_ms", audit.lightness_ms, "ms");
    }
    // Query batches on the new snapshot, also outside the set-up clock: with
    // the batches after every op they spread the query samples over the
    // whole run, which host speed drifts across.
    serve_batches(a, *engine, load, rep);
    timed.push_back({std::move(inst), std::move(warm.res), std::move(engine), audit});
  }
  record_setup(setup_s, rep);

  std::vector<serve::QueryEngine*> engines;
  for (const TimedInstance& ti : timed) engines.push_back(ti.engine.get());
  std::vector<double> traced_construct_ms;
  closed_loop(
      a, engines, load,
      [&](int i, std::size_t k, bool traced) -> std::optional<OpTime> {
        const TimedInstance& ti = timed[k];
        const ObsMark before = traced ? ObsMark::take() : ObsMark{};
        const auto t0 = Clock::now();
        const StaticOp op = static_op(w, {ti.inst, params, opts});
        OpTime t{ms_between(t0, Clock::now()), 0.0};
        rep.attempt();
        if (!op.failure.empty()) rep.fail("op " + std::to_string(i) + ": " + op.failure);
        else if (!same_graph(op.res.spanner, ti.warm.spanner)) {
          rep.fail("op " + std::to_string(i) + ": output differs from the audited build");
        }
        if (traced) {
          t.covered_ms = record_static_op(w, op, ObsMark::diff(before, ObsMark::take()), rep);
          traced_construct_ms.push_back(1e3 * op.res.seconds);
        }
        return t;
      },
      rep);

  QualitySample quality;
  for (const TimedInstance& ti : timed) {
    quality.add(ti.audit.stretch, ti.audit.lightness, ti.audit.max_degree);
  }
  if (w.audited) check_measured_metrics(a, timed, rep);
  if (a.trace && !distributed && w.threads > 1) {
    // The same builds on one thread: the pool's serial baseline.
    const api::Options serial = build_options(1, false);
    std::vector<double> t1_ms;
    obs::set_enabled(true);
    for (const TimedInstance& ti : timed) {
      const StaticOp op = static_op(w, {ti.inst, params, serial});
      t1_ms.push_back(1e3 * op.res.seconds);
      rep.attempt();
      if (!same_graph(op.res.spanner, ti.warm.spanner)) rep.fail("threads=1 build differs");
    }
    obs::set_enabled(false);
    rep.layer("runtime.construct_t1_ms", median(t1_ms), "ms");
    rep.layer("runtime.speedup_t2", median(t1_ms) / median(traced_construct_ms), "ratio");
  }
  if (distributed) {
    // Round and message counts: the first instance's run through the core
    // entry point, which must reproduce the registry's output bit for bit.
    const TimedInstance& ti = timed[0];
    core::RelaxedGreedyOptions ropts;
    ropts.threads = w.threads;
    const core::DistributedResult dr =
        core::distributed_relaxed_greedy(ti.inst, params, ropts, /*seed=*/1);
    rep.attempt();
    if (!same_graph(dr.base.spanner, ti.warm.spanner)) {
      rep.fail("core run differs from the registry build");
    }
    rep.detail("rounds", static_cast<double>(dr.net.rounds_measured));
    rep.detail("messages", static_cast<double>(dr.net.messages));
    rep.detail("mis_invocations", dr.net.mis_invocations);
    rep.detail("max_luby_iterations", dr.net.max_luby_iterations);
    if (a.trace) {
      rep.layer("core.dist_rounds", static_cast<double>(dr.net.rounds_measured), "rounds");
      rep.layer("core.dist_messages", static_cast<double>(dr.net.messages), "count");
      rep.layer("mis.invocations", dr.net.mis_invocations, "count");
      rep.layer("mis.max_luby_iterations", dr.net.max_luby_iterations, "count");
    }
  }
  record_instances(timed, rep);
  sample_static_quality(a, static_cast<int>(timed.size()), quality, rep);
  quality.report(rep);
}

// ---------------------------------------------------------------------------
// churn-serve: Poisson churn in windows of 64 events (apply_batch, then
// publish), with query batches on the main thread after every window.
// ---------------------------------------------------------------------------

struct ChurnSystem {
  dynamic::ChurnTrace trace;
  std::unique_ptr<dynamic::DynamicSpanner> engine;
  std::unique_ptr<serve::QueryEngine> queries;
  double instance = 0.0;
};

ChurnSystem make_churn_system(const Args& a, int windows) {
  ChurnSystem sys;
  ubg::UbgInstance inst = make_instance(a.w.n, a.seed);
  sys.instance = instance_fingerprint(inst);
  dynamic::PoissonChurnConfig cfg;
  cfg.events = kWindowEvents * windows;
  cfg.join_fraction = 0.5;
  cfg.seed = a.seed;
  sys.trace = dynamic::poisson_churn(inst, cfg);
  const std::string invalid = dynamic::validate_trace(sys.trace, inst);
  if (!invalid.empty()) throw std::runtime_error("invalid churn trace: " + invalid);
  dynamic::DynamicOptions dopts;
  dopts.threads = a.w.threads;
  dopts.greedy.threads = a.w.threads;
  sys.engine = std::make_unique<dynamic::DynamicSpanner>(std::move(inst), bench_params(), dopts);
  serve::ServeOptions sopts;
  sopts.threads = a.w.threads;
  sys.queries = std::make_unique<serve::QueryEngine>(sopts);
  sys.queries->publish(*sys.engine);
  return sys;
}

[[nodiscard]] std::span<const dynamic::ChurnEvent> window(const ChurnSystem& sys, int w) {
  const std::size_t begin = static_cast<std::size_t>(w) * kWindowEvents;
  const std::size_t end = std::min(sys.trace.events.size(), begin + kWindowEvents);
  return {sys.trace.events.data() + std::min(begin, end), end - std::min(begin, end)};
}

void run_churn_serve(const Args& a, Report& rep) {
  const int windows = a.ops + 1;  // window 0 is the warm-up.
  std::optional<ChurnSystem> sys;
  std::vector<double> setup_s;
  for (int k = 0; k < a.w.setups; ++k) {
    sys.reset();
    const auto t0 = Clock::now();
    sys.emplace(make_churn_system(a, windows));
    rep.attempt();
    try {
      sys->engine->apply_batch(window(*sys, 0));
      sys->queries->publish(*sys->engine);
    } catch (const std::exception& e) {
      rep.fail(std::string("warm-up window threw: ") + e.what());
    }
    QueryLoad warm_load(a.seed + 1000003ULL * static_cast<std::uint64_t>(k + 1));
    serve_batches(a, *sys->queries, warm_load, rep);
    setup_s.push_back(1e-3 * ms_between(t0, Clock::now()));
  }
  record_setup(setup_s, rep);
  if (static_cast<int>(sys->trace.events.size()) < kWindowEvents * windows) {
    rep.fail("churn trace shorter than the requested windows");
  }

  dynamic::DynamicSpanner& engine = *sys->engine;
  serve::QueryEngine& qe = *sys->queries;
  double regions = 0, merged = 0, ball_union = 0, sub_edges = 0, scope = 0, added = 0,
         removed = 0, fallbacks = 0;
  // Capped audits of evenly spaced windows, the last one included: the
  // quality sample, and the check that every audited window kept stretch <= t.
  QualitySample quality;
  const int audit_every = std::max(1, a.ops / a.w.quality);
  const auto audit_window = [&](int w) {
    const graph::Graph& g = engine.instance().g;
    const auto t0 = Clock::now();
    const double stretch = graph::max_edge_stretch(g, engine.spanner(), kAuditCap, 1);
    const auto t1 = Clock::now();
    if (a.trace) rep.layer("graph.audit_bounded_ms", ms_between(t0, t1), "ms");
    quality.add(stretch, graph::lightness(g, engine.spanner()), engine.spanner().max_degree());
    if (stretch > engine.params().t * (1.0 + kRelTol)) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "window %d audit: stretch %.6f exceeds t", w, stretch);
      rep.fail(buf);
    }
  };

  QueryLoad load(a.seed);
  closed_loop(
      a, {&qe}, load,
      [&](int i, std::size_t /*k*/, bool traced) -> std::optional<OpTime> {
        const int w = i + 1;
        const ObsMark before = traced ? ObsMark::take() : ObsMark{};
        rep.attempt();
        const auto t0 = Clock::now();
        dynamic::BatchStats st;
        try {
          st = engine.apply_batch(window(*sys, w));
        } catch (const std::exception& e) {
          rep.fail("window " + std::to_string(w) + " threw: " + e.what());
          return std::nullopt;
        }
        const auto t1 = Clock::now();
        qe.publish(engine);
        const auto t2 = Clock::now();
        OpTime t{ms_between(t0, t2), 0.0};
        if (traced) {
          // Stage self times: splice contains the region harvests, which
          // contain the local relaxed-greedy reruns (rg.* spans, plus
          // dyn.rerun on the single-event path).
          const ObsMark d = ObsMark::diff(before, ObsMark::take());
          const double apply_ms = ms_between(t0, t1);
          const double reruns = d.span_prefix_ms("rg.");
          const double harvest = d.span_ms("dyn.region_harvest");
          const double splice = d.span_ms("dyn.splice");
          const double stages = d.span_ms("dyn.ball") + splice + d.span_ms("dyn.certify") +
                                d.span_ms("dyn.full_recompute");
          rep.layer("dynamic.apply_batch_ms", apply_ms, "ms");
          rep.layer("dynamic.ball_ms", d.span_ms("dyn.ball"), "ms");
          rep.layer("dynamic.rerun_ms", d.span_ms("dyn.rerun") + reruns, "ms");
          rep.layer("dynamic.region_harvest_ms", harvest - reruns, "ms");
          rep.layer("dynamic.splice_ms", splice - harvest, "ms");
          rep.layer("dynamic.certify_ms", d.span_ms("dyn.certify"), "ms");
          rep.layer("dynamic.unattributed_ms", apply_ms - stages, "ms");
          rep.layer("serve.publish_ms", ms_between(t1, t2), "ms");
          rep.layer("serve.oracle_build_ms", d.span_ms("serve.oracle_build"), "ms");
          rep.layer("serve.label_entries", d.counter("serve.label_entries"), "count");
          record_build_counters(d, rep);
          rep.layer("dynamic.regions", st.regions, "count");
          rep.layer("dynamic.merged_events", st.merged_events, "count");
          rep.layer("dynamic.ball_union", st.ball_union, "nodes");
          rep.layer("dynamic.sub_edges", st.sub_edges, "count");
          rep.layer("dynamic.certify_scope", st.certify_scope, "nodes");
          rep.layer("dynamic.edges_added", st.spanner_edges_added, "count");
          rep.layer("dynamic.edges_removed", st.spanner_edges_removed, "count");
          rep.layer("dynamic.fallbacks", st.fell_back ? 1 : 0, "count");
          t.covered_ms = stages + ms_between(t1, t2);
        }
        regions += st.regions;
        merged += st.merged_events;
        ball_union += st.ball_union;
        sub_edges += st.sub_edges;
        scope += st.certify_scope;
        added += st.spanner_edges_added;
        removed += st.spanner_edges_removed;
        fallbacks += st.fell_back ? 1 : 0;
        if ((a.ops - w) % audit_every == 0) audit_window(w);
        return t;
      },
      rep);

  rep.detail("instance", sys->instance);
  rep.detail("windows", a.ops);
  rep.detail("active_nodes", engine.active_count());
  rep.detail("spanner", graph_fingerprint(engine.spanner()));
  rep.detail("spanner_edges", engine.spanner().m());
  rep.detail("batch.regions", regions);
  rep.detail("batch.merged_events", merged);
  rep.detail("batch.ball_union", ball_union);
  rep.detail("batch.sub_edges", sub_edges);
  rep.detail("batch.certify_scope", scope);
  rep.detail("batch.edges_added", added);
  rep.detail("batch.edges_removed", removed);
  rep.detail("batch.fallbacks", fallbacks);
  quality.report(rep);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (a.w.threads > host_cpus()) {
      std::printf("{\"skipped\": \"%s\", \"reason\": \"threads exceed nproc\", \"threads\": %d, "
                  "\"nproc\": %d}\n",
                  std::string(a.w.name).c_str(), a.w.threads, host_cpus());
      return 3;
    }
    Report rep;
    obs::set_enabled(false);
    if (a.w.algo.empty()) run_churn_serve(a, rep);
    else run_static(a, rep);
    if (!a.trace) rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    rep.print(a);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 2;
  }
}
