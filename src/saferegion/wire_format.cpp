#include "saferegion/wire_format.h"

#include <bit>
#include <concepts>
#include <limits>
#include <type_traits>
#include <utility>

#include "common/error.h"

namespace salarm::wire {

namespace {

// Every layout below is written once, as a `fields(io, m)` list. Three
// visitors walk the lists: Writer appends the bytes, Reader parses them
// back with bounds checks, Sizer counts them. Lists take `m` as const for
// Writer and Sizer and as mutable for Reader.
//
// Visitor operations:
//   type(t)                  leading message-type byte
//   num<W>(v)                v as a little-endian W (double = IEEE-754 bits)
//   text(s)                  u16 length, then the bytes of s
//   seq<W>(v, item_fields)   W item count, then each item's fields
//   payload(bytes, n)        exactly n raw bytes
//   check(ok, what)          decode-time value check (no-op on encode)

/// Counts the bytes Writer would append.
class Sizer {
 public:
  void type(MessageType) { size_ += 1; }
  template <class W, class T>
  void num(const T&) {
    size_ += sizeof(W);
  }
  void text(const std::string& s) { size_ += 2 + s.size(); }
  template <class W, class V, class F>
  void seq(const V& v, F item_fields) {
    size_ += sizeof(W);
    for (const auto& item : v) item_fields(*this, item);
  }
  void payload(const std::vector<std::uint8_t>& bytes, std::size_t) {
    size_ += bytes.size();
  }
  void check(bool, const char*) {}

  std::size_t size() const { return size_; }

 private:
  std::size_t size_ = 0;
};

/// Encoded size of one default-constructed list item. No item encodes in
/// fewer bytes, and for fixed-width items it is the exact size.
template <class T, class F>
std::size_t item_size(F item_fields) {
  const T smallest{};
  Sizer s;
  item_fields(s, smallest);
  return s.size();
}

/// Appends little-endian fields to a buffer reserved to the exact size.
class Writer {
 public:
  explicit Writer(std::size_t size) { bytes_.reserve(size); }

  void type(MessageType t) { put(static_cast<std::uint8_t>(t)); }
  template <class W, class T>
  void num(const T& v) {
    put(static_cast<W>(v));
  }
  void text(const std::string& s) {
    count<std::uint16_t>(s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }
  template <class W, class V, class F>
  void seq(const V& v, F item_fields) {
    count<W>(v.size());
    for (const auto& item : v) item_fields(*this, item);
  }
  void payload(const std::vector<std::uint8_t>& bytes, std::size_t n) {
    SALARM_REQUIRE(bytes.size() == n, "payload size does not match its count");
    bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
  }
  void check(bool, const char*) {}

  std::vector<std::uint8_t> take() && { return std::move(bytes_); }

 private:
  template <class W>
  void count(std::size_t n) {
    SALARM_REQUIRE(n <= std::numeric_limits<W>::max(),
                   "list too long for its count field");
    put(static_cast<W>(n));
  }
  template <class W>
  void put(W v) {
    std::uint64_t raw;
    if constexpr (std::is_same_v<W, double>) {
      raw = std::bit_cast<std::uint64_t>(v);
    } else {
      raw = v;
    }
    for (std::size_t i = 0; i < sizeof(W); ++i) {
      bytes_.push_back(static_cast<std::uint8_t>(raw >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> bytes_;
};

/// Parses little-endian fields with bounds checking; malformed input throws
/// PreconditionError.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  void type(MessageType t) {
    SALARM_REQUIRE(get<std::uint8_t>() == static_cast<std::uint8_t>(t),
                   "unexpected message type");
  }
  template <class W, class T>
  void num(T& v) {
    v = static_cast<T>(get<W>());
  }
  void text(std::string& s) {
    const auto src = take(count<std::uint16_t>(1));
    s.assign(src.begin(), src.end());
  }
  /// A corrupted (or hostile) count is rejected before the resize: no
  /// item encodes in fewer bytes than a default-constructed one.
  template <class W, class V, class F>
  void seq(V& v, F item_fields) {
    v.resize(count<W>(item_size<typename V::value_type>(item_fields)));
    for (auto& item : v) item_fields(*this, item);
  }
  void payload(std::vector<std::uint8_t>& bytes, std::size_t n) {
    const auto src = take(n);
    bytes.assign(src.begin(), src.end());
  }
  void check(bool ok, const char* what) { SALARM_REQUIRE(ok, what); }

  void expect_done() const {
    SALARM_REQUIRE(pos_ == bytes_.size(), "trailing bytes in message");
  }

 private:
  template <class W>
  std::size_t count(std::size_t min_item_bytes) {
    const std::size_t n = get<W>();
    SALARM_REQUIRE(n <= (bytes_.size() - pos_) / min_item_bytes,
                   "list count exceeds payload");
    return n;
  }
  std::span<const std::uint8_t> take(std::size_t n) {
    SALARM_REQUIRE(n <= bytes_.size() - pos_, "message truncated");
    const auto out = bytes_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  template <class W>
  W get() {
    const auto src = take(sizeof(W));
    std::uint64_t raw = 0;
    for (std::size_t i = 0; i < sizeof(W); ++i) {
      raw |= static_cast<std::uint64_t>(src[i]) << (8 * i);
    }
    if constexpr (std::is_same_v<W, double>) {
      return std::bit_cast<double>(raw);
    } else {
      return static_cast<W>(raw);
    }
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

template <class IO, class T>
void u8(IO& io, T& v) {
  io.template num<std::uint8_t>(v);
}
template <class IO, class T>
void u32(IO& io, T& v) {
  io.template num<std::uint32_t>(v);
}
template <class IO, class T>
void u64(IO& io, T& v) {
  io.template num<std::uint64_t>(v);
}
template <class IO, class T>
void f64(IO& io, T& v) {
  io.template num<double>(v);
}
template <class W, class IO, class V, class F>
void seq(IO& io, V& v, F item_fields) {
  io.template seq<W>(v, item_fields);
}

/// Item visitor for lists of 32-bit ids.
constexpr auto id32 = [](auto& io, auto& id) { u32(io, id); };

/// `M` is `T` or `const T`.
template <class M, class T>
concept Of = std::same_as<std::remove_const_t<M>, T>;

// --------------------------------------------------------------------------
// Nested records.
// --------------------------------------------------------------------------

template <class IO, Of<geo::Rect> R>
void fields(IO& io, R& r) {
  double c[] = {r.lo().x, r.lo().y, r.hi().x, r.hi().y};
  for (double& v : c) f64(io, v);
  if constexpr (!std::is_const_v<R>) r = geo::Rect(c[0], c[1], c[2], c[3]);
}

/// Full alarm descriptor inside checkpoint and journal records.
template <class IO, Of<alarms::SpatialAlarm> M>
void fields(IO& io, M& a) {
  u32(io, a.id);
  u8(io, a.scope);
  io.check(a.scope <= alarms::AlarmScope::kPublic, "unknown alarm scope");
  u32(io, a.owner);
  fields(io, a.region);
  seq<std::uint16_t>(io, a.subscribers, id32);
  io.text(a.message);
}

template <class IO, Of<AlarmPushMsg::Item> M>
void fields(IO& io, M& m) {
  u32(io, m.id);
  fields(io, m.region);
  io.text(m.message);
}

template <class IO, Of<ShardCheckpointMsg::AlarmRec> M>
void fields(IO& io, M& m) {
  fields(io, m.alarm);
  u64(io, m.installed_at);
}

template <class IO, Of<ShardCheckpointMsg::TombRec> M>
void fields(IO& io, M& m) {
  fields(io, m.alarm);
  u64(io, m.installed_at);
  u64(io, m.removed_at);
  io.check(m.removed_at > m.installed_at, "checkpoint tomb lifetime is empty");
}

template <class IO, Of<ShardCheckpointMsg::SpentRec> M>
void fields(IO& io, M& m) {
  u32(io, m.alarm);
  u32(io, m.subscriber);
}

template <class IO, Of<ShardCheckpointMsg::GrantRec> M>
void fields(IO& io, M& m) {
  u32(io, m.subscriber);
  u8(io, m.kind);
  io.check(m.kind <= 3, "unknown grant kind");
  fields(io, m.bounds);
}

/// Item visitor for list fields whose items have a field list of their own.
constexpr auto record = [](auto& io, auto& item) { fields(io, item); };

// --------------------------------------------------------------------------
// Messages.
// --------------------------------------------------------------------------

template <class IO, Of<PositionUpdate> M>
void fields(IO& io, M& m) {
  io.type(MessageType::kPositionUpdate);
  u32(io, m.subscriber);
  u32(io, m.seq);
  f64(io, m.position.x);
  f64(io, m.position.y);
  f64(io, m.time_s);
}

template <class IO, Of<RectSafeRegionMsg> M>
void fields(IO& io, M& m) {
  io.type(MessageType::kRectSafeRegion);
  fields(io, m.rect);
}

template <class IO, Of<PyramidSafeRegionMsg> M>
void fields(IO& io, M& m) {
  io.type(MessageType::kPyramidSafeRegion);
  fields(io, m.cell);
  u8(io, m.config.fanout_u);
  u8(io, m.config.fanout_v);
  u8(io, m.config.height);
  u32(io, m.bit_count);
  io.payload(m.bits, (std::size_t{m.bit_count} + 7) / 8);
}

template <class IO, Of<AlarmPushMsg> M>
void fields(IO& io, M& m) {
  io.type(MessageType::kAlarmPush);
  fields(io, m.cell);
  seq<std::uint32_t>(io, m.alarms, record);
}

template <class IO, Of<SafePeriodMsg> M>
void fields(IO& io, M& m) {
  io.type(MessageType::kSafePeriod);
  f64(io, m.period_s);
}

template <class IO, Of<TriggerNoticeMsg> M>
void fields(IO& io, M& m) {
  io.type(MessageType::kTriggerNotice);
  u32(io, m.alarm);
  io.text(m.message);
}

template <class IO, Of<ShardHandoffMsg> M>
void fields(IO& io, M& m) {
  io.type(MessageType::kShardHandoff);
  u32(io, m.subscriber);
  f64(io, m.position.x);
  f64(io, m.position.y);
  f64(io, m.time_s);
  u32(io, m.uplink_seq);
  u32(io, m.downlink_seq);
  u8(io, m.leased);
  io.check(m.leased <= 1, "lease flag is not 0 or 1");
  seq<std::uint32_t>(io, m.spent, id32);
}

template <class IO, Of<InvalidationMsg> M>
void fields(IO& io, M& m) {
  io.type(MessageType::kInvalidation);
  u8(io, m.action);
  io.check(m.action <= 2, "unknown invalidation action");
  u32(io, m.seq);
  u32(io, m.alarm);
  fields(io, m.region);
  io.text(m.message);
}

template <class IO, Of<AckMsg> M>
void fields(IO& io, M& m) {
  io.type(MessageType::kAck);
  u32(io, m.subscriber);
  u32(io, m.seq);
}

template <class IO, Of<ShardCheckpointMsg> M>
void fields(IO& io, M& m) {
  io.type(MessageType::kShardCheckpoint);
  u32(io, m.shard);
  u64(io, m.tick);
  seq<std::uint32_t>(io, m.alarms, record);
  seq<std::uint32_t>(io, m.graveyard, record);
  seq<std::uint32_t>(io, m.spent, record);
  seq<std::uint32_t>(io, m.grants, record);
}

/// Install records carry the full alarm; remove and spent records only ids.
template <class IO, Of<JournalRecordMsg> M>
void fields(IO& io, M& m) {
  io.type(MessageType::kJournalRecord);
  u8(io, m.kind);
  io.check(m.kind <= JournalRecordMsg::Kind::kSpent,
           "unknown journal record kind");
  u64(io, m.tick);
  switch (m.kind) {
    case JournalRecordMsg::Kind::kInstall:
      fields(io, m.alarm);
      // The id travels inside the alarm.
      if constexpr (!std::is_const_v<M>) m.alarm_id = m.alarm.id;
      break;
    case JournalRecordMsg::Kind::kRemove:
      u32(io, m.alarm_id);
      break;
    case JournalRecordMsg::Kind::kSpent:
      u32(io, m.alarm_id);
      u32(io, m.subscriber);
      break;
  }
}

}  // namespace

// --------------------------------------------------------------------------
// The three generic entry points, instantiated once per message type.
// --------------------------------------------------------------------------

template <class M>
std::size_t encoded_size(const M& m) {
  Sizer s;
  fields(s, m);
  return s.size();
}

template <class M>
std::vector<std::uint8_t> encode(const M& m) {
  Writer w(encoded_size(m));
  fields(w, m);
  return std::move(w).take();
}

template <class M>
M decode(std::span<const std::uint8_t> bytes) {
  Reader r(bytes);
  M m;
  fields(r, m);
  r.expect_done();
  return m;
}

#define SALARM_WIRE_MESSAGE(M)                                  \
  template std::vector<std::uint8_t> encode(const M&);          \
  template M decode(std::span<const std::uint8_t>);             \
  template std::size_t encoded_size(const M&);

SALARM_WIRE_MESSAGE(PositionUpdate)
SALARM_WIRE_MESSAGE(RectSafeRegionMsg)
SALARM_WIRE_MESSAGE(PyramidSafeRegionMsg)
SALARM_WIRE_MESSAGE(AlarmPushMsg)
SALARM_WIRE_MESSAGE(SafePeriodMsg)
SALARM_WIRE_MESSAGE(TriggerNoticeMsg)
SALARM_WIRE_MESSAGE(ShardHandoffMsg)
SALARM_WIRE_MESSAGE(InvalidationMsg)
SALARM_WIRE_MESSAGE(AckMsg)
SALARM_WIRE_MESSAGE(ShardCheckpointMsg)
SALARM_WIRE_MESSAGE(JournalRecordMsg)

#undef SALARM_WIRE_MESSAGE

// Size helpers: the fixed part comes from the field list (the size of the
// default message), the variable part from the arguments and the item
// field lists.

std::size_t pyramid_message_size(std::size_t bit_count) {
  return encoded_size(PyramidSafeRegionMsg{}) + (bit_count + 7) / 8;
}

std::size_t alarm_push_size(std::size_t alarm_count,
                            std::size_t total_message_bytes) {
  return encoded_size(AlarmPushMsg{}) +
         alarm_count * item_size<AlarmPushMsg::Item>(record) +
         total_message_bytes;
}

std::size_t trigger_notice_size(std::size_t message_bytes) {
  return encoded_size(TriggerNoticeMsg{}) + message_bytes;
}

std::size_t invalidation_message_size(std::size_t message_bytes) {
  return encoded_size(InvalidationMsg{}) + message_bytes;
}

std::size_t handoff_message_size(std::size_t spent_alarms) {
  return encoded_size(ShardHandoffMsg{}) +
         spent_alarms * item_size<alarms::AlarmId>(id32);
}

saferegion::PyramidBitmap PyramidSafeRegionMsg::decode() const {
  return saferegion::PyramidBitmap::deserialize(cell, config, bits,
                                                bit_count);
}

PyramidSafeRegionMsg PyramidSafeRegionMsg::from(
    const saferegion::PyramidBitmap& bitmap) {
  PyramidSafeRegionMsg m;
  m.cell = bitmap.cell();
  m.config = bitmap.config();
  m.bit_count = static_cast<std::uint32_t>(bitmap.bit_size());
  m.bits = bitmap.serialize();
  return m;
}

}  // namespace salarm::wire
