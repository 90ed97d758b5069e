// Bitmap-encoded safe regions: GBSR and PBSR (paper §4, Figure 3).
//
// A subscriber's base grid cell is described by a pyramid of U×V
// subdivisions of height h. A cell whose interior intersects no relevant
// alarm region is *safe* (bit 1). An unsafe cell (bit 0) is either
//
//   * refined into U×V children at the next level (a *partially* covered
//     cell, where refinement can still reveal safe area), or
//   * left as a solid unsafe block (fully covered by an alarm region, or
//     at the maximum height h).
//
// GBSR is exactly the height-1 special case (paper §5.2: "we vary the
// height of the pyramid from h = 1 (for GBSR) to h = 7").
//
// Wire encoding. The paper's raster-scan, level-by-level bit string is kept,
// with one deviation documented in DESIGN.md: each unsafe cell above the
// maximum height carries one extra bit — 1 when its children follow at the
// next level, 0 when it is a solid unsafe block. The paper's scheme refines
// every unsafe cell, which explodes combinatorially (a cell fully inside an
// alarm region would drag a full (U·V)^h all-zero subtree into the bitmap);
// the technical report [6] with the exact estimation algorithm is not
// available, so the subdivided-flag is the minimal decodable realization of
// "split only where refinement helps". Under it the Figure 3 example costs
// 71 bits (PBSR, h=2) vs the paper's 64, and 83 (GBSR 9×9) vs 82 — same
// ordering, same asymptotics on partially covered cells.
//
// The client-side containment check descends the pyramid from the root;
// the number of levels visited is the energy-model cost of the check
// (paper §5.2's "safe region containment detections").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geometry/point.h"
#include "geometry/rect.h"

namespace salarm::saferegion {

struct PyramidConfig {
  /// Subdivision fan-out per axis (paper Figure 3 uses 3×3).
  int fanout_u = 3;
  int fanout_v = 3;
  /// Maximum subdivision depth h >= 1; h = 1 is GBSR.
  int height = 5;
  /// Bit budget for the encoding — the paper's coverage-vs-bitmap-size
  /// trade-off ("we want to achieve high coverage with as small bitmap
  /// size as possible", §4.2). The build refines breadth-first
  /// (coarse-to-fine), and stops refining when the next level would
  /// overflow the budget; unrefined cells stay solid-unsafe. 0 = unlimited.
  std::size_t max_bits = 4096;

  friend bool operator==(const PyramidConfig&, const PyramidConfig&) = default;
};

/// Result of a client-side containment check.
struct PyramidContainment {
  bool safe = false;
  /// Pyramid levels visited (1 = answered at the root); the elementary
  /// operation count of the check for the client energy model.
  int levels = 0;
};

/// A pyramid bitmap over one base grid cell. Immutable except for
/// mark_unsafe, the client-side shrink applied on an invalidation push.
class PyramidBitmap {
 public:
  /// Classifies the cell against the given alarm regions. `ops`, when
  /// non-null, is incremented by the number of elementary cell/alarm
  /// intersection tests performed (server cost model). The build works in
  /// reused thread-local scratch, so on a warm thread its one allocation is
  /// the returned node array.
  static PyramidBitmap build(const geo::Rect& cell,
                             std::span<const geo::Rect> alarm_regions,
                             const PyramidConfig& config,
                             std::uint64_t* ops = nullptr);

  /// Containment check for a position inside the base cell (precondition).
  PyramidContainment locate(geo::Point p) const;

  /// Conservative in-place shrink (dynamics tier, DESIGN.md §8): every safe
  /// node whose interior intersects `region` becomes solid-unsafe, so the
  /// bitmap stays sound after an alarm is installed inside the cell. The
  /// structure is never refined — at worst a whole safe node covering the
  /// region goes unsafe, costing extra client reports but never accuracy.
  void mark_unsafe(const geo::Rect& region);

  /// Fraction of the base cell's area marked safe — the paper's coverage
  /// measure η(Ψs).
  double coverage() const;

  /// Exact size of the wire encoding in bits / whole bytes.
  std::size_t bit_size() const;
  std::size_t byte_size() const { return (bit_size() + 7) / 8; }

  /// Bit size under the paper's original accounting (1 bit per cell, every
  /// unsafe cell above height h refined). Matches the Figure 3 worked
  /// examples, which the pyramid tests check it against.
  std::size_t paper_bit_size() const;

  const geo::Rect& cell() const { return cell_; }
  const PyramidConfig& config() const { return config_; }
  std::size_t node_count() const { return nodes_.size(); }
  /// Reserves room for `count` nodes, so that copy-assigning a bitmap of
  /// at most that many nodes into this one reuses its storage.
  void reserve(std::size_t count) { nodes_.reserve(count); }

  /// Intersection of safe sets: the returned pyramid marks a point safe
  /// iff both inputs do. Both pyramids must describe the same cell with
  /// the same fan-out and height. This implements the paper's §4.2
  /// optimization — the bitmap over the (shared, subscriber-independent)
  /// public alarms is precomputed once per cell and intersected with the
  /// subscriber's private-alarm bitmap. `ops`, when non-null, counts the
  /// node-pair visits (server cost model).
  PyramidBitmap intersect(const PyramidBitmap& other,
                          std::uint64_t* ops = nullptr) const;

  /// Level-order bit encoding as described above.
  std::vector<std::uint8_t> serialize() const;

  /// Rebuilds a pyramid from its wire encoding. Throws PreconditionError on
  /// a truncated or over-long stream.
  static PyramidBitmap deserialize(const geo::Rect& cell,
                                   const PyramidConfig& config,
                                   std::span<const std::uint8_t> bytes,
                                   std::size_t bit_count);

  friend bool operator==(const PyramidBitmap& a, const PyramidBitmap& b);

 private:
  enum class State : std::uint8_t { kSafe, kSolidUnsafe, kSubdivided };

  /// One pyramid cell in 32 bits. The 26-bit child index caps a pyramid
  /// at kMaxNodes nodes (build, intersect and deserialize require it); the
  /// 4-bit level holds the maximum height 12.
  struct Node {
    std::uint32_t first_child : 26 = 0;  ///< meaningful when kSubdivided
    std::uint32_t level : 4 = 0;         ///< 0 = root (the base cell itself)
    std::uint32_t state_bits : 2 =
        static_cast<std::uint32_t>(State::kSolidUnsafe);

    State state() const { return static_cast<State>(state_bits); }
    void set_state(State s) { state_bits = static_cast<std::uint32_t>(s); }
  };
  static_assert(sizeof(Node) == 4);
  static constexpr std::size_t kMaxNodes = std::size_t{1} << 26;

  /// Requires that a pyramid of `size` nodes can take `count` more without
  /// a child index overflowing its 26 bits.
  static void require_room(std::size_t size, std::size_t count);

  PyramidBitmap(const geo::Rect& cell, const PyramidConfig& config)
      : cell_(cell), config_(config) {}

  static void validate(const geo::Rect& cell, const PyramidConfig& config);

  geo::Rect cell_;
  PyramidConfig config_;
  /// Level-order (BFS) node array; children of a subdivided node are
  /// contiguous in row-major order.
  std::vector<Node> nodes_;
};

}  // namespace salarm::saferegion
