// Pairwise proportional imitation: the one decision-revision rule of every
// per-vehicle round engine (System, ShardedFleetEngine, ServiceEngine and
// TraceDrivenSim, which runs it over each region's roster of the round).
//
// A revising vehicle samples a distinct peer of its own population and
// adopts the peer's displayed decision with probability proportional to the
// positive fitness difference. Its large-population limit is the replicator
// dynamics of Eq. (5), which is why the mean-field runner and the zero-churn
// service agree at scale.
//
// Draw contract (part of every engine's bit-identity and resume contracts):
// for v = 0..n-1 in index order, all from `rng`,
//   1. a held vehicle (held(v)) draws nothing and keeps its decision;
//   2. one bernoulli(revision_rate); on failure v keeps its decision;
//   3. one uniform_int(0, n-2) peer draw, shifted past v;
//   4. if shown[peer] == before[v], or gain = fitness(peer) - fitness(v) is
//      not positive, v keeps its decision and draws nothing more;
//   5. one bernoulli(min(1, imitation_scale * gain)); on success
//      adopt(v, shown[peer]).
// Peers are read from the start-of-round snapshot (`before`, `shown`,
// `fitness`), so an adoption never feeds a later vehicle's choice in the
// same round. Populations below two vehicles draw nothing.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/contracts.h"
#include "common/rng.h"
#include "core/lattice.h"

namespace avcp::core {

/// Runs one revision round over a population of before.size() vehicles.
/// `shown[v]` is the decision vehicle v displays to peers (its claim; equal
/// to before[v] for honest fleets) and must be as long as `before`.
/// `held(v) -> bool`, `fitness(v) -> double`, and `adopt(v, decision)` are
/// called inline (plain callables, no type erasure: this is a hot loop).
template <class Held, class Fitness, class Adopt>
void imitate(std::span<const DecisionId> before,
             std::span<const DecisionId> shown, double revision_rate,
             double imitation_scale, Rng& rng, Held&& held, Fitness&& fitness,
             Adopt&& adopt) {
  const std::size_t n = before.size();
  AVCP_EXPECT(shown.size() == n);
  if (n < 2) return;
  for (std::size_t v = 0; v < n; ++v) {
    if (held(v)) continue;
    if (!rng.bernoulli(revision_rate)) continue;
    auto peer = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 2));
    if (peer >= v) ++peer;
    if (shown[peer] == before[v]) continue;
    const double gain = fitness(peer) - fitness(v);
    if (gain <= 0.0) continue;
    if (rng.bernoulli(std::min(1.0, imitation_scale * gain))) {
      adopt(v, shown[peer]);
    }
  }
}

}  // namespace avcp::core
