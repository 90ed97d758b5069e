// Maximum Weighted Perimeter rectangular Safe Region (paper §3, Figure 2).
//
// Given a subscriber position inside its grid cell and the relevant alarm
// regions intersecting that cell, computes an axis-aligned rectangular safe
// region: a rectangle containing the position, contained in the cell, whose
// interior intersects no alarm region. Among all such rectangles the
// algorithm (greedily) maximizes the *weighted perimeter* — each quadrant's
// quarter-perimeter is weighted by the probability mass the motion model
// assigns to that quadrant, so the region stretches in the direction the
// subscriber is likely to travel.
//
// Algorithm structure (paper steps 1-4):
//  1. Candidate points — per quadrant around the position, the nearest
//     corner of each alarm region clamped to the quadrant axes. The
//     clamping uniformly handles alarm regions that overlap each other or
//     straddle the axes (the paper's fix over Hu et al. [10]). Candidates
//     that cannot bind inside the cell are dropped; dominated candidates
//     (those implied by a stronger constraint) are pruned.
//  2. Tension points — the staircase of maximal feasible rectangle corners
//     per quadrant, built from the sorted candidate set with cell-border
//     sentinels.
//  3. Component rectangles — each tension point T spans the component
//     rectangle position↔T; the safe region is the intersection of one
//     component rectangle per quadrant.
//  4. Assembly — quadrants are processed greedily in decreasing motion-pdf
//     mass, each choosing the tension point that maximizes the weighted
//     perimeter of the running intersection. An exhaustive O(n^4) optimizer
//     is available behind the same interface (options.exhaustive) for
//     ablation and verification.
//
// Special case (safe-region definition (ii) of §2.1): when the position
// lies inside one or more of the supplied alarm regions, the intersection
// of those regions (clipped to the cell) is returned and inside_alarm is
// set. Under the simulator's one-shot trigger semantics relevant alarms
// never contain the position, but the library handles it for API
// completeness.
#pragma once

#include <cstdint>
#include <span>

#include "geometry/point.h"
#include "geometry/rect.h"
#include "saferegion/motion_model.h"

namespace salarm::saferegion {

/// kAuto's limit: the largest product of tension-set sizes it still
/// assembles exhaustively.
inline constexpr std::size_t kExhaustiveLimit = 4096;

/// How step 4 combines the per-quadrant component rectangles.
enum class MwpsrAssembly : std::uint8_t {
  /// Exhaustive when the combination count fits kExhaustiveLimit, greedy
  /// beyond: the default. At the paper's relevant-alarm densities the
  /// tension sets are tiny and the exhaustive optimum is affordable; the
  /// greedy kicks in only for very dense cells.
  kAuto,
  /// The paper's greedy heuristic: quadrants in decreasing pdf mass, each
  /// choosing the tension point maximizing the running weighted perimeter.
  /// Order-dependent: it can collapse the region to a needle when a
  /// slightly-better thin strip exists (see the ablation bench).
  kGreedy,
  /// Full enumeration of all tension-point combinations (the paper's
  /// "quartic time" optimal solution).
  kExhaustive,
};

struct MwpsrOptions {
  /// false replicates the non-weighted perimeter baseline of Figure 4
  /// (every quadrant weighs 1/4 regardless of the motion model).
  bool weighted = true;
  MwpsrAssembly assembly = MwpsrAssembly::kAuto;
  /// Among regions whose weighted perimeter is within this fraction of the
  /// maximum, the largest-area one is chosen. The perimeter objective is
  /// near-indifferent between a long needle and a wide strip; the tie-break
  /// picks the rectangle the subscriber actually stays inside longer.
  /// 0 restores the pure paper objective (ablation).
  double area_tiebreak_epsilon = 0.5;
  /// false disables dominance pruning of candidate points (ablation).
  bool prune_dominated = true;
};

struct RectSafeRegion {
  geo::Rect rect;
  /// True when the position was inside >= 1 supplied alarm region and the
  /// region is the intersection of those regions (definition (ii)).
  bool inside_alarm = false;
  /// Elementary operations performed (candidate processing, sort steps,
  /// tension-point evaluations); feeds the server cost model.
  std::uint64_t ops = 0;
};

/// Computes the maximum weighted perimeter rectangular safe region.
///
/// Trigger semantics are open-interior (an alarm fires when the subscriber
/// enters the *interior* of its region), so the safe region may share
/// boundary with alarm regions, and definition (ii) applies only when the
/// position is strictly inside an alarm region. Edges bound by an alarm
/// constraint are nudged one ulp inward so the result never overlaps an
/// alarm interior even after floating-point round-trips.
///
/// Preconditions: `cell` contains `position`; every rect in
/// `alarm_regions` (closed-)intersects `cell`; `heading` is the
/// subscriber's current direction of motion in radians.
RectSafeRegion compute_mwpsr(geo::Point position, double heading,
                             const geo::Rect& cell,
                             std::span<const geo::Rect> alarm_regions,
                             const MotionModel& model,
                             const MwpsrOptions& options = {});

/// Weighted perimeter of a rectangle around `position`: four times the sum
/// over quadrants of (x-extent + y-extent) weighted by the quadrant's
/// probability mass. Equals the ordinary perimeter under uniform weights.
/// Exposed for tests and the exhaustive/greedy ablation.
double weighted_perimeter(const geo::Rect& rect, geo::Point position,
                          const QuadrantWeights& weights);

}  // namespace salarm::saferegion
