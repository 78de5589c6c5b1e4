// Measure-theoretic sensor-data model (paper §III, Property 3.1).
//
// The universal set Omega is modelled as a finite universe of data items,
// each tagged with the sensor type that produces it and carrying utility
// and privacy weights. A vehicle's utility function f is a normalised
// measure relative to its desired set D_a:
//
//   f(S) = weight(S ∩ D_a) / weight(D_a)
//
// which satisfies all of Property 3.1: (a) f(S) = f(S ∩ D_a); (b) f = 1
// when S ⊇ D_a; (c) f = 0 when S ∩ D_a = ∅; (d) countable additivity over
// pairwise-disjoint sets. The privacy cost g is a measure over shared
// items, normalised by the universe's total privacy weight.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"

namespace avcp::perception {

using ItemId = std::uint32_t;

/// One unit of sensor data.
struct DataItem {
  std::size_t sensor = 0;       // sensor-type index (lattice order)
  double utility_weight = 1.0;  // contribution to f's measure
  double privacy_weight = 0.0;  // contribution to g's measure
};

/// A set of item ids; kept sorted and deduplicated.
using ItemSet = std::vector<ItemId>;

/// Sorted-set algebra over ItemSets. The read-only queries take spans so
/// flat-arena item windows (perception/fleet_soa.h) use the same code.
ItemSet set_union(const ItemSet& a, const ItemSet& b);
ItemSet set_intersect(const ItemSet& a, const ItemSet& b);
ItemSet set_difference(const ItemSet& a, const ItemSet& b);
bool set_contains(std::span<const ItemId> a, ItemId id) noexcept;
bool is_sorted_unique(std::span<const ItemId> a) noexcept;

/// The universal data set Omega.
class DataUniverse {
 public:
  explicit DataUniverse(std::size_t num_sensors);

  std::size_t num_sensors() const noexcept { return num_sensors_; }
  std::size_t size() const noexcept { return items_.size(); }

  /// Adds an item; weights must be non-negative, utility positive.
  ItemId add_item(std::size_t sensor, double utility_weight,
                  double privacy_weight);

  const DataItem& item(ItemId id) const;

  /// All items of one sensor type.
  ItemSet items_of_sensor(std::size_t sensor) const;

  /// Summed privacy weight of the whole universe (g's normaliser).
  double total_privacy_weight() const noexcept { return total_privacy_; }

  /// Summed utility weight of a set (ascending iteration order).
  double utility_weight(std::span<const ItemId> s) const;

  /// Summed privacy weight of a set (ascending iteration order).
  double privacy_weight(std::span<const ItemId> s) const;

  /// Realized round fitness of one vehicle, the revision signal of every
  /// measured plant: beta * utility minus the fraction of the vehicle's
  /// own collected privacy mass that its normalised `uploaded` privacy cost
  /// exposed (zero when it collected no privacy mass).
  double realized_fitness(double beta, double utility, double uploaded,
                          std::span<const ItemId> collected) const {
    const double own_mass = privacy_weight(collected);
    const double exposed =
        own_mass > 0.0 ? uploaded * total_privacy_ / own_mass : 0.0;
    return beta * utility - exposed;
  }

  /// Random universe: `items_per_sensor` items per sensor type with the
  /// given per-sensor privacy weight and unit utility weights.
  static DataUniverse synthetic(std::size_t num_sensors,
                                std::size_t items_per_sensor,
                                std::span<const double> sensor_privacy,
                                Rng& rng);

 private:
  std::size_t num_sensors_;
  std::vector<DataItem> items_;
  double total_privacy_ = 0.0;
};

/// Normalised utility measure f for one vehicle's desired set.
class UtilityMeasure {
 public:
  /// `desired` must be non-empty with positive total utility weight.
  UtilityMeasure(const DataUniverse& universe, ItemSet desired);

  /// f(S) in [0, 1].
  double operator()(const ItemSet& s) const;

  const ItemSet& desired() const noexcept { return desired_; }

 private:
  const DataUniverse* universe_;
  ItemSet desired_;
  double desired_weight_;
};

/// Normalised privacy cost g(S) in [0, 1].
double privacy_cost(const DataUniverse& universe,
                    std::span<const ItemId> shared);

/// Normalised utility measure evaluated in place: weight(s ∩ desired) /
/// weight(desired), both sums taken in ascending item order — the exact
/// floating-point summation order of UtilityMeasure, without its per-call
/// desired-set copy or intersection allocation. `desired` must be non-empty
/// with positive total utility weight; both inputs sorted-unique.
double measured_utility(const DataUniverse& universe,
                        std::span<const ItemId> s,
                        std::span<const ItemId> desired);

}  // namespace avcp::perception
