// Synthetic road network generator.
//
// Builds a perturbed-grid road web with three functional classes — the
// stand-in for the paper's USGS Atlanta map (DESIGN.md §5). The default
// parameters cover a 32 km × 32 km region (1024 km², matching the paper's
// ~1000 km²) with highways every 8 km, arterials every 2 km and local
// streets at 1 km spacing, jittered so the network is not a perfect lattice.
#pragma once

#include "common/rng.h"
#include "common/units.h"
#include "roadnet/road_network.h"

namespace salarm::roadnet {

/// Spacing of the underlying node lattice (local street pitch).
inline constexpr double kStreetSpacingM = 1000.0;
/// Every k-th lattice line is an arterial / a highway.
inline constexpr int kArterialEvery = 2;
inline constexpr int kHighwayEvery = 8;
inline constexpr double kHighwaySpeedMps = kmh_to_mps(90.0);
inline constexpr double kArterialSpeedMps = kmh_to_mps(60.0);
inline constexpr double kLocalSpeedMps = kmh_to_mps(30.0);
/// Node positions are jittered by up to this fraction of the spacing.
inline constexpr double kJitterFraction = 0.25;

struct NetworkConfig {
  double width_m = 32000.0;
  double height_m = 32000.0;
  /// Fraction of local (lowest-class) segments randomly removed to break up
  /// the lattice. Removal never disconnects the network: candidates are
  /// only removed if both endpoints keep degree >= 2.
  double local_drop_probability = 0.10;
};

/// Builds a connected synthetic network. Throws PreconditionError on an
/// unusable configuration (an extent below the street spacing, a drop
/// probability outside [0, 1)).
RoadNetwork build_synthetic_network(const NetworkConfig& config, Rng& rng);

}  // namespace salarm::roadnet
