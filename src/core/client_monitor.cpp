#include "core/client_monitor.h"

#include "common/error.h"
#include "saferegion/wire_format.h"

namespace salarm::core {

void ClientMonitor::receive(std::span<const std::uint8_t> message) {
  SALARM_REQUIRE(!message.empty(), "empty safe-region message");
  switch (static_cast<wire::MessageType>(message[0])) {
    case wire::MessageType::kRectSafeRegion:
      region_ = wire::decode<wire::RectSafeRegionMsg>(message).rect;
      return;
    case wire::MessageType::kPyramidSafeRegion:
      region_ = wire::decode<wire::PyramidSafeRegionMsg>(message).decode();
      return;
    default:
      SALARM_REQUIRE(false, "not a safe-region message");
  }
}

bool ClientMonitor::should_report(geo::Point position) {
  ++checks_;
  ++check_ops_;
  if (std::holds_alternative<std::monostate>(region_)) return true;
  if (const auto* rect = std::get_if<geo::Rect>(&region_)) {
    return !rect->contains(position);
  }
  const auto& bitmap = std::get<saferegion::PyramidBitmap>(region_);
  if (!bitmap.cell().contains(position)) return true;
  const auto containment = bitmap.locate(position);
  check_ops_ += static_cast<std::uint64_t>(containment.levels);
  return !containment.safe;
}

}  // namespace salarm::core
