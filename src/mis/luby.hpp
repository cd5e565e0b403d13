#pragma once
/// \file luby.hpp
/// Luby's randomized distributed MIS, with the synchronous simulator's
/// round and message accounting.
///
/// The paper invokes the Kuhn–Moscibroda–Wattenhofer O(log* n) MIS [11] on
/// its derived bounded-growth graphs. KMW is a substantial algorithm in its
/// own right; in its place we run the *actual distributed*
/// Luby algorithm (correct MIS, O(log n) rounds w.h.p.) and additionally
/// report the KMW-model round charge (log* n per invocation) so experiment
/// E4 can plot both the measured and the paper-claimed round shapes.

#include <cstdint>

#include "graph/graph.hpp"
#include "mis/mis.hpp"
#include "runtime/ledger.hpp"
#include "runtime/network.hpp"

namespace localspan::mis {

struct LubyStats {
  int iterations = 0;         ///< Luby rounds until all nodes decided.
  long long network_rounds = 0;  ///< simulator rounds (2 per iteration).
  long long messages = 0;        ///< total messages exchanged.
};

/// The shared deterministic priority draw: splitmix64 of the
/// (seed, iteration, node) triple mapped to a uniform double in [0, 1).
/// Both Luby entry points below consume exactly this function, so they
/// break symmetry with identical priorities and produce identical sets.
[[nodiscard]] double luby_priority(std::uint64_t seed, int iteration, int node);

/// Compute an MIS of g with Luby's algorithm. Per iteration every undecided
/// node draws a value (luby_priority), broadcasts it, joins if it is the
/// strict (value, id)-minimum in its undecided neighborhood, then
/// broadcasts the decision; dominated neighbors retire. Deterministic given
/// `seed`.
///
/// The protocol runs as two plain passes per iteration over frozen state
/// rather than message by message: it stages no packets, yet it reports
/// what a `runtime::SyncNetwork` run of the same protocol would — the set,
/// `stats` (2 rounds per iteration; active-degree messages in round one,
/// winner-degree in round two), the ledger charges and the obs `net.*`
/// metrics are all identical to `luby_mis_on(SyncNetwork&, ...)`.
///
/// \param ledger optional ledger charged under section `section`.
[[nodiscard]] std::vector<int> luby_mis(const graph::Graph& g, std::uint64_t seed,
                                        LubyStats* stats = nullptr,
                                        runtime::RoundLedger* ledger = nullptr,
                                        const std::string& section = "mis");

/// Transport-generic Luby: the same protocol, message by message, over any
/// `runtime::Network` implementation. `net` must be freshly constructed
/// over topology `g`. Because every decision depends only on round-boundary
/// inbox contents and the deterministic (seed, iteration, node) value
/// draws, the MIS is bit-identical across transports that deliver the same
/// round semantics — the property `ReliableNetwork` provides over the
/// adversarial simulator. Over a `SyncNetwork` it is the message-level
/// reference for luby_mis.
[[nodiscard]] std::vector<int> luby_mis_on(runtime::Network& net, const graph::Graph& g,
                                           std::uint64_t seed, LubyStats* stats = nullptr);

}  // namespace localspan::mis
