#include "saferegion/pyramid.h"

#include <algorithm>
#include <cmath>

#include "common/bitio.h"
#include "common/error.h"

namespace salarm::saferegion {

void PyramidBitmap::validate(const geo::Rect& cell,
                             const PyramidConfig& config) {
  SALARM_REQUIRE(cell.area() > 0.0, "base cell must have positive area");
  SALARM_REQUIRE(config.fanout_u >= 2 && config.fanout_v >= 2,
                 "fan-out must be at least 2x2");
  SALARM_REQUIRE(config.height >= 1, "pyramid height must be >= 1");
  SALARM_REQUIRE(config.height <= 12, "pyramid height unreasonably large");
  SALARM_REQUIRE(config.max_bits == 0 || config.max_bits >= 2,
                 "bit budget cannot encode even the root");
}

void PyramidBitmap::require_room(std::size_t size, std::size_t count) {
  SALARM_REQUIRE(count <= kMaxNodes - size,
                 "pyramid exceeds the 26-bit node index");
}

PyramidBitmap PyramidBitmap::build(const geo::Rect& cell,
                                   std::span<const geo::Rect> alarm_regions,
                                   const PyramidConfig& config,
                                   std::uint64_t* ops) {
  validate(cell, config);

  // A frontier cell: its node, its rectangle, and the span [first, first +
  // count) of its level's arena holding the alarms it inherits.
  struct WorkItem {
    std::uint32_t node;
    geo::Rect rect;
    std::uint32_t first;
    std::uint32_t count;
  };
  // Reused across levels and calls. Each level's arena holds, per
  // subdivided parent, the alarms that touched it, in scan order; all U×V
  // children share that one span. Thread-local because shard workers build
  // concurrently.
  struct Scratch {
    std::vector<Node> nodes;
    std::vector<WorkItem> frontier, next;
    std::vector<std::uint32_t> arena, next_arena;
  };
  thread_local Scratch scratch;
  auto& [nodes, frontier, next, arena, next_arena] = scratch;

  const auto alarm_count = static_cast<std::uint32_t>(alarm_regions.size());
  arena.resize(alarm_count);
  for (std::uint32_t i = 0; i < alarm_count; ++i) arena[i] = i;
  nodes.assign(1, Node{});
  frontier.assign(1, {0, cell, 0, alarm_count});

  const auto uv = static_cast<std::uint32_t>(config.fanout_u) *
                  static_cast<std::uint32_t>(config.fanout_v);

  // Encoded bits so far: every classified node costs 1 bit, plus a
  // subdivided-flag bit for unsafe cells above the maximum height. The
  // budget check is conservative: a whole level is only refined if the
  // worst case (every frontier cell subdivides) fits.
  std::size_t committed_bits = 0;
  while (!frontier.empty()) {
    // Worst case if this level refines fully: every frontier cell costs 2
    // bits (unsafe + subdivided flag) and every child may later cost 2.
    const bool budget_allows_refinement =
        config.max_bits == 0 ||
        committed_bits + frontier.size() * (2 + 2 * uv) <= config.max_bits;
    next.clear();
    next_arena.clear();
    for (const WorkItem& item : frontier) {
      // Classify this cell against the alarms inherited from its parent,
      // appending the touching ones to the next level's arena.
      const auto first_touching = static_cast<std::uint32_t>(next_arena.size());
      bool covered = false;
      for (std::uint32_t k = item.first; k < item.first + item.count; ++k) {
        if (ops != nullptr) ++*ops;
        const std::uint32_t a = arena[k];
        const geo::Rect& region = alarm_regions[a];
        if (!region.interiors_intersect(item.rect)) continue;
        next_arena.push_back(a);
        if (region.contains(item.rect)) {
          covered = true;
          break;
        }
      }
      const auto touching =
          static_cast<std::uint32_t>(next_arena.size()) - first_touching;
      const int level = nodes[item.node].level;
      if (touching == 0) {
        nodes[item.node].set_state(State::kSafe);
        committed_bits += 1;
        continue;
      }
      if (covered || level >= config.height || !budget_allows_refinement) {
        nodes[item.node].set_state(State::kSolidUnsafe);
        committed_bits += level < config.height ? 2 : 1;
        next_arena.resize(first_touching);  // no child reads the span
        continue;
      }
      committed_bits += 2;
      require_room(nodes.size(), uv);
      const auto first_child = static_cast<std::uint32_t>(nodes.size());
      nodes[item.node].set_state(State::kSubdivided);
      nodes[item.node].first_child = first_child;
      const double w = item.rect.width() / config.fanout_u;
      const double h = item.rect.height() / config.fanout_v;
      for (int row = 0; row < config.fanout_v; ++row) {
        for (int col = 0; col < config.fanout_u; ++col) {
          Node child;
          child.level = level + 1;
          const auto idx = static_cast<std::uint32_t>(nodes.size());
          nodes.push_back(child);
          const geo::Point lo{item.rect.lo().x + w * col,
                              item.rect.lo().y + h * row};
          next.push_back({idx, geo::Rect(lo, {lo.x + w, lo.y + h}),
                          first_touching, touching});
        }
      }
      SALARM_ASSERT(nodes.size() == first_child + uv,
                    "children must be contiguous");
    }
    std::swap(frontier, next);
    std::swap(arena, next_arena);
  }
  PyramidBitmap out(cell, config);
  out.nodes_.assign(nodes.begin(), nodes.end());
  return out;
}

PyramidContainment PyramidBitmap::locate(geo::Point p) const {
  SALARM_REQUIRE(cell_.contains(p), "position outside the base cell");
  PyramidContainment result;
  std::size_t index = 0;
  geo::Rect rect = cell_;
  for (;;) {
    ++result.levels;
    const Node& node = nodes_[index];
    if (node.state() == State::kSafe) {
      result.safe = true;
      return result;
    }
    if (node.state() == State::kSolidUnsafe) {
      result.safe = false;
      return result;
    }
    // Descend into the child containing p (half-open mapping, clamped so
    // the cell's closed upper boundary folds into the last child).
    const double w = rect.width() / config_.fanout_u;
    const double h = rect.height() / config_.fanout_v;
    const int col = std::clamp(
        static_cast<int>(std::floor((p.x - rect.lo().x) / w)), 0,
        config_.fanout_u - 1);
    const int row = std::clamp(
        static_cast<int>(std::floor((p.y - rect.lo().y) / h)), 0,
        config_.fanout_v - 1);
    index = node.first_child +
            static_cast<std::size_t>(row) * config_.fanout_u + col;
    const geo::Point lo{rect.lo().x + w * col, rect.lo().y + h * row};
    rect = geo::Rect(lo, {lo.x + w, lo.y + h});
  }
}

void PyramidBitmap::mark_unsafe(const geo::Rect& region) {
  struct Item {
    std::uint32_t node;
    geo::Rect rect;
  };
  std::vector<Item> stack{{0, cell_}};
  while (!stack.empty()) {
    const Item item = stack.back();
    stack.pop_back();
    // Open intersection: an alarm merely touching a safe node's boundary
    // cannot fire inside it (trigger semantics are open-interior).
    if (!region.interiors_intersect(item.rect)) continue;
    Node& node = nodes_[item.node];
    if (node.state() == State::kSafe) {
      node.set_state(State::kSolidUnsafe);
      continue;
    }
    if (node.state() == State::kSolidUnsafe) continue;
    const double w = item.rect.width() / config_.fanout_u;
    const double h = item.rect.height() / config_.fanout_v;
    for (int row = 0; row < config_.fanout_v; ++row) {
      for (int col = 0; col < config_.fanout_u; ++col) {
        const geo::Point lo{item.rect.lo().x + w * col,
                            item.rect.lo().y + h * row};
        stack.push_back(
            {node.first_child +
                 static_cast<std::uint32_t>(row) * config_.fanout_u + col,
             geo::Rect(lo, {lo.x + w, lo.y + h})});
      }
    }
  }
}

double PyramidBitmap::coverage() const {
  const double uv = static_cast<double>(config_.fanout_u) * config_.fanout_v;
  double covered = 0.0;
  for (const Node& node : nodes_) {
    if (node.state() == State::kSafe) {
      covered += std::pow(uv, -static_cast<double>(node.level));
    }
  }
  return covered;
}

std::size_t PyramidBitmap::bit_size() const {
  std::size_t bits = 0;
  for (const Node& node : nodes_) {
    bits +=
        (node.state() != State::kSafe && node.level < config_.height) ? 2 : 1;
  }
  return bits;
}

std::size_t PyramidBitmap::paper_bit_size() const {
  const auto uv = static_cast<std::uint64_t>(config_.fanout_u) *
                  static_cast<std::uint64_t>(config_.fanout_v);
  std::uint64_t bits = 0;
  for (const Node& node : nodes_) {
    if (node.state() == State::kSolidUnsafe && node.level < config_.height) {
      // The paper refines every unsafe cell: a solid block at level L drags
      // an all-zero subtree of depth height-L into the bitmap.
      std::uint64_t subtree = 0;
      std::uint64_t layer = 1;
      for (int d = node.level; d <= config_.height; ++d) {
        subtree += layer;
        layer *= uv;
      }
      bits += subtree;
    } else {
      bits += 1;
    }
  }
  return static_cast<std::size_t>(bits);
}

PyramidBitmap PyramidBitmap::intersect(const PyramidBitmap& other,
                                       std::uint64_t* ops) const {
  SALARM_REQUIRE(cell_ == other.cell_, "pyramids describe different cells");
  SALARM_REQUIRE(config_.fanout_u == other.config_.fanout_u &&
                     config_.fanout_v == other.config_.fanout_v &&
                     config_.height == other.config_.height,
                 "pyramids have different configurations");
  PyramidBitmap out(cell_, config_);
  const auto uv = static_cast<std::uint32_t>(config_.fanout_u) *
                  static_cast<std::uint32_t>(config_.fanout_v);

  // Work item: (node in a, node in b, node in out). kNone means "that side
  // is entirely safe below this point" — copy the other side's subtree.
  constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  struct Item {
    std::uint32_t a;
    std::uint32_t b;
    std::uint32_t target;
  };
  out.nodes_.push_back(Node{});
  // FIFO processing keeps out.nodes_ in level order, which the level-order
  // serializer requires.
  std::vector<Item> queue{{0, 0, 0}};
  std::size_t head = 0;
  while (head < queue.size()) {
    const Item item = queue[head++];
    if (ops != nullptr) ++*ops;
    const Node* na = item.a == kNone ? nullptr : &nodes_[item.a];
    const Node* nb = item.b == kNone ? nullptr : &other.nodes_[item.b];
    Node& target = out.nodes_[item.target];
    // Level bookkeeping: the target's level was set when it was created
    // (root = 0, children = parent + 1).

    const bool a_safe = na == nullptr || na->state() == State::kSafe;
    const bool b_safe = nb == nullptr || nb->state() == State::kSafe;
    const bool a_solid = na != nullptr && na->state() == State::kSolidUnsafe;
    const bool b_solid = nb != nullptr && nb->state() == State::kSolidUnsafe;
    if (a_solid || b_solid) {
      target.set_state(State::kSolidUnsafe);
      continue;
    }
    if (a_safe && b_safe) {
      target.set_state(State::kSafe);
      continue;
    }
    // At least one side is subdivided (and neither is solid): recurse.
    target.set_state(State::kSubdivided);
    require_room(out.nodes_.size(), uv);
    const auto first_child = static_cast<std::uint32_t>(out.nodes_.size());
    out.nodes_[item.target].first_child = first_child;
    const int child_level = out.nodes_[item.target].level + 1;
    for (std::uint32_t c = 0; c < uv; ++c) {
      Node child;
      child.level = child_level;
      out.nodes_.push_back(child);
    }
    for (std::uint32_t c = 0; c < uv; ++c) {
      const std::uint32_t ca =
          (na != nullptr && na->state() == State::kSubdivided)
              ? na->first_child + c
              : kNone;
      const std::uint32_t cb =
          (nb != nullptr && nb->state() == State::kSubdivided)
              ? nb->first_child + c
              : kNone;
      queue.push_back({ca, cb, first_child + c});
    }
  }
  return out;
}

std::vector<std::uint8_t> PyramidBitmap::serialize() const {
  BitWriter writer;
  // nodes_ is already in level order, so a single pass emits the paper's
  // level-by-level raster scan.
  for (const Node& node : nodes_) {
    if (node.state() == State::kSafe) {
      writer.push(true);
      continue;
    }
    writer.push(false);
    if (node.level < config_.height) {
      writer.push(node.state() == State::kSubdivided);
    }
  }
  SALARM_ASSERT(writer.bit_count() == bit_size(), "bit accounting mismatch");
  return std::move(writer).take();
}

PyramidBitmap PyramidBitmap::deserialize(const geo::Rect& cell,
                                         const PyramidConfig& config,
                                         std::span<const std::uint8_t> bytes,
                                         std::size_t bit_count) {
  validate(cell, config);
  BitReader reader(bytes, bit_count);
  PyramidBitmap out(cell, config);

  const auto uv = static_cast<std::uint32_t>(config.fanout_u) *
                  static_cast<std::uint32_t>(config.fanout_v);

  out.nodes_.push_back(Node{});
  // Level order is index order: every node before idx has been read, and
  // every node after it is allocated but still unread.
  for (std::size_t idx = 0; idx < out.nodes_.size(); ++idx) {
    Node& node = out.nodes_[idx];
    if (reader.next()) {
      node.set_state(State::kSafe);
      continue;
    }
    const int level = node.level;
    if (level >= config.height || !reader.next()) {
      node.set_state(State::kSolidUnsafe);
      continue;
    }
    // Each unread node costs at least one bit, so the stream must hold a
    // bit for every one of them and for every new child: allocation stays
    // within the stream's bit count, whatever fan-out it claims.
    const std::size_t unread = out.nodes_.size() - idx - 1;
    SALARM_REQUIRE(unread + uv <= reader.remaining(),
                   "subdivision needs more bits than remain");
    require_room(out.nodes_.size(), uv);
    node.set_state(State::kSubdivided);
    node.first_child = static_cast<std::uint32_t>(out.nodes_.size());
    Node child;
    child.level = level + 1;
    out.nodes_.insert(out.nodes_.end(), uv, child);
  }
  SALARM_REQUIRE(reader.exhausted(), "trailing bits after the pyramid");
  return out;
}

bool operator==(const PyramidBitmap& a, const PyramidBitmap& b) {
  if (!(a.cell_ == b.cell_) || a.config_.fanout_u != b.config_.fanout_u ||
      a.config_.fanout_v != b.config_.fanout_v ||
      a.config_.height != b.config_.height ||
      a.nodes_.size() != b.nodes_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.nodes_.size(); ++i) {
    const PyramidBitmap::Node& na = a.nodes_[i];
    const PyramidBitmap::Node& nb = b.nodes_[i];
    if (na.state() != nb.state() || na.level != nb.level ||
        (na.state() == PyramidBitmap::State::kSubdivided &&
         na.first_child != nb.first_child)) {
      return false;
    }
  }
  return true;
}

}  // namespace salarm::saferegion
