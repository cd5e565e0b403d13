#include "mis/luby.hpp"

#include <algorithm>
#include <utility>

#include "obs/obs.hpp"
#include "runtime/network.hpp"

namespace localspan::mis {

namespace {

constexpr int kMark = 1;
constexpr int kJoin = 2;

enum class State { kActive, kInMis, kOut };

/// Mirror of the SyncNetwork round metrics, so luby_mis — which never
/// stages a physical message — reports the same net.* shape the simulator
/// would for the identical protocol run.
struct LubyNetMetrics {
  obs::MetricId rounds = obs::counter_id("net.rounds");
  obs::MetricId messages = obs::counter_id("net.messages");
  obs::MetricId bytes = obs::counter_id("net.bytes");
  obs::MetricId round_messages = obs::histogram_id("net.round_messages");
};

const LubyNetMetrics& luby_net_metrics() {
  static const LubyNetMetrics m;
  return m;
}

void record_round(long long delivered) {
  if (!obs::enabled()) return;
  const LubyNetMetrics& m = luby_net_metrics();
  obs::counter_add(m.rounds, 1);
  obs::counter_add(m.messages, delivered);
  obs::counter_add(m.bytes, delivered * static_cast<long long>(sizeof(runtime::Packet)));
  obs::histogram_record(m.round_messages, delivered);
}

}  // namespace

double luby_priority(std::uint64_t seed, int iteration, int node) {
  std::uint64_t x = seed + 0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(iteration) + 1) +
                    0xD1B54A32D192ED03ULL * (static_cast<std::uint64_t>(node) + 1);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

std::vector<int> luby_mis_on(runtime::Network& net, const graph::Graph& g, std::uint64_t seed,
                             LubyStats* stats) {
  const int n = g.n();
  std::vector<State> state(static_cast<std::size_t>(n), State::kActive);
  std::vector<double> my_value(static_cast<std::size_t>(n), 0.0);
  int active = n;
  int iteration = 0;

  while (active > 0) {
    ++iteration;
    // Sub-round 1: undecided nodes broadcast their drawn values.
    for (int v = 0; v < n; ++v) {
      if (state[static_cast<std::size_t>(v)] != State::kActive) continue;
      my_value[static_cast<std::size_t>(v)] = luby_priority(seed, iteration, v);
      net.broadcast(v, {kMark, my_value[static_cast<std::size_t>(v)], v});
    }
    net.end_round();

    // Decide: strict (value, id)-local-minimum among still-active neighbors
    // joins. Only active nodes broadcast marks, so the inbox is exactly the
    // active neighborhood.
    std::vector<char> joining(static_cast<std::size_t>(n), 0);
    for (int v = 0; v < n; ++v) {
      if (state[static_cast<std::size_t>(v)] != State::kActive) continue;
      bool wins = true;
      for (const auto& [from, p] : net.inbox(v)) {
        if (p.kind != kMark) continue;
        if (std::pair(p.value, from) < std::pair(my_value[static_cast<std::size_t>(v)], v)) {
          wins = false;
          break;
        }
      }
      joining[static_cast<std::size_t>(v)] = wins ? 1 : 0;
    }

    // Sub-round 2: winners announce; dominated neighbors retire.
    for (int v = 0; v < n; ++v) {
      if (joining[static_cast<std::size_t>(v)]) net.broadcast(v, {kJoin, 0.0, v});
    }
    net.end_round();
    for (int v = 0; v < n; ++v) {
      if (state[static_cast<std::size_t>(v)] != State::kActive) continue;
      if (joining[static_cast<std::size_t>(v)]) {
        state[static_cast<std::size_t>(v)] = State::kInMis;
        --active;
        continue;
      }
      for (const auto& [from, p] : net.inbox(v)) {
        (void)from;
        if (p.kind == kJoin) {
          state[static_cast<std::size_t>(v)] = State::kOut;
          --active;
          break;
        }
      }
    }
  }

  if (stats != nullptr) {
    stats->iterations = iteration;
    stats->network_rounds = net.rounds();
    stats->messages = net.messages();
  }
  std::vector<int> out;
  for (int v = 0; v < n; ++v) {
    if (state[static_cast<std::size_t>(v)] == State::kInMis) out.push_back(v);
  }
  return out;
}

std::vector<int> luby_mis(const graph::Graph& g, std::uint64_t seed, LubyStats* stats,
                          runtime::RoundLedger* ledger, const std::string& section) {
  const int n = g.n();
  std::vector<State> state(static_cast<std::size_t>(n), State::kActive);
  std::vector<double> value(static_cast<std::size_t>(n), 0.0);
  std::vector<char> joining(static_cast<std::size_t>(n), 0);
  int active = n;
  int iteration = 0;
  long long messages = 0;

  while (active > 0) {
    ++iteration;
    // Round 1: every active node broadcasts its mark (one message per
    // incident edge); decisions read only this iteration's frozen state.
    long long round1 = 0;
    for (int v = 0; v < n; ++v) {
      if (state[static_cast<std::size_t>(v)] != State::kActive) continue;
      value[static_cast<std::size_t>(v)] = luby_priority(seed, iteration, v);
      round1 += g.degree(v);
    }
    for (int v = 0; v < n; ++v) {
      char wins = state[static_cast<std::size_t>(v)] == State::kActive ? 1 : 0;
      if (wins) {
        const std::pair mine(value[static_cast<std::size_t>(v)], v);
        for (const graph::Neighbor& nb : g.neighbors(v)) {
          if (state[static_cast<std::size_t>(nb.to)] == State::kActive &&
              std::pair(value[static_cast<std::size_t>(nb.to)], nb.to) < mine) {
            wins = 0;
            break;
          }
        }
      }
      joining[static_cast<std::size_t>(v)] = wins;
    }

    // Round 2: winners announce (one message per incident edge) and join;
    // an active neighbor of a winner retires.
    long long round2 = 0;
    for (int v = 0; v < n; ++v) {
      if (joining[static_cast<std::size_t>(v)]) {
        round2 += g.degree(v);
        state[static_cast<std::size_t>(v)] = State::kInMis;
        --active;
      } else if (state[static_cast<std::size_t>(v)] == State::kActive) {
        for (const graph::Neighbor& nb : g.neighbors(v)) {
          if (joining[static_cast<std::size_t>(nb.to)]) {
            state[static_cast<std::size_t>(v)] = State::kOut;
            --active;
            break;
          }
        }
      }
    }

    messages += round1 + round2;
    record_round(round1);
    record_round(round2);
    if (ledger != nullptr) {
      ledger->charge(section, 1, round1);
      ledger->charge(section, 1, round2);
    }
  }

  if (stats != nullptr) {
    stats->iterations = iteration;
    stats->network_rounds = 2LL * iteration;
    stats->messages = messages;
  }
  std::vector<int> out;
  for (int v = 0; v < n; ++v) {
    if (state[static_cast<std::size_t>(v)] == State::kInMis) out.push_back(v);
  }
  return out;
}

}  // namespace localspan::mis
