// Shared builders for core-game tests, and the bit-pinning hash.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/fds.h"
#include "core/game.h"
#include "core/sensor_model.h"

namespace avcp::core::testing {

/// FNV-1a offset basis: the hash of nothing.
inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;

/// One 64-bit FNV-1a step over the eight little-endian bytes of `word`.
/// Tests that pin results across commits fold doubles in through
/// std::bit_cast, so any change in a result's bits changes the hash.
inline std::uint64_t fnv1a_word(std::uint64_t h, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (word >> (8 * byte)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// A single isolated region running the paper's 8-decision game.
inline MultiRegionGame make_single_region_game(double beta = 1.5,
                                               double eta = 0.5,
                                               double gamma_self = 1.0,
                                               double mutation = 0.0) {
  GameConfig config;
  config.lattice = DecisionLattice(3);
  const auto tables = paper_decision_tables(config.lattice);
  config.utility = tables.utility;
  config.privacy = tables.privacy;
  config.step_size = eta;
  config.mutation = mutation;

  std::vector<RegionSpec> regions(1);
  regions[0].beta = beta;
  regions[0].gamma_self = gamma_self;
  return MultiRegionGame(std::move(config), std::move(regions));
}

/// A chain of M regions (i neighbours i-1 and i+1) with uniform gammas and
/// linearly varying betas, running the paper's 8-decision game.
inline MultiRegionGame make_chain_game(std::size_t m, double beta_lo = 1.0,
                                       double beta_hi = 2.0,
                                       double gamma_self = 1.0,
                                       double gamma_nbr = 0.3,
                                       double eta = 0.5) {
  GameConfig config;
  config.lattice = DecisionLattice(3);
  const auto tables = paper_decision_tables(config.lattice);
  config.utility = tables.utility;
  config.privacy = tables.privacy;
  config.step_size = eta;

  std::vector<RegionSpec> regions(m);
  for (std::size_t i = 0; i < m; ++i) {
    regions[i].beta =
        m > 1 ? beta_lo + (beta_hi - beta_lo) * static_cast<double>(i) /
                              static_cast<double>(m - 1)
              : beta_lo;
    regions[i].gamma_self = gamma_self;
    if (i > 0) {
      regions[i].neighbors.emplace_back(static_cast<RegionId>(i - 1),
                                        gamma_nbr);
    }
    if (i + 1 < m) {
      regions[i].neighbors.emplace_back(static_cast<RegionId>(i + 1),
                                        gamma_nbr);
    }
  }
  return MultiRegionGame(std::move(config), std::move(regions));
}

/// Uniform Dirichlet(1,..,1) sample (uniform over the simplex).
inline std::vector<double> random_simplex(Rng& rng, std::size_t k) {
  std::vector<double> p(k);
  double sum = 0.0;
  for (double& v : p) {
    v = rng.exponential(1.0);
    sum += v;
  }
  for (double& v : p) v /= sum;
  return p;
}

}  // namespace avcp::core::testing
