#include <cstdint>
#include <exception>
#include <functional>
#include <iterator>
#include <random>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/bitio.h"
#include "common/rng.h"
#include "saferegion/pyramid.h"
#include "saferegion/wire_format.h"

namespace salarm::wire {
namespace {

using geo::Point;
using geo::Rect;

TEST(BitIoTest, WriterReaderRoundTrip) {
  salarm::BitWriter w;
  const std::vector<bool> pattern{1, 0, 0, 1, 1, 1, 0, 1, 0, 1, 1};
  for (const bool b : pattern) w.push(b);
  EXPECT_EQ(w.bit_count(), pattern.size());
  EXPECT_EQ(w.bytes().size(), 2u);
  salarm::BitReader r(w.bytes(), w.bit_count());
  for (const bool b : pattern) EXPECT_EQ(r.next(), b);
  EXPECT_TRUE(r.exhausted());
  EXPECT_THROW(r.next(), salarm::PreconditionError);
}

TEST(BitIoTest, ReaderValidatesBitCount) {
  const std::vector<std::uint8_t> bytes{0xFF};
  EXPECT_THROW(salarm::BitReader(bytes, 9), salarm::PreconditionError);
  EXPECT_NO_THROW(salarm::BitReader(bytes, 8));
}

TEST(WireFormatTest, PositionUpdateRoundTrip) {
  const PositionUpdate m{42, {123.5, -7.25}, 99.75, 1009};
  const auto bytes = encode(m);
  EXPECT_EQ(bytes.size(), encoded_size(m));
  EXPECT_EQ(bytes.size(), 33u);
  const PositionUpdate d = decode<PositionUpdate>(bytes);
  EXPECT_EQ(d.subscriber, m.subscriber);
  EXPECT_EQ(d.position, m.position);
  EXPECT_DOUBLE_EQ(d.time_s, m.time_s);
  EXPECT_EQ(d.seq, 1009u);
}

TEST(WireFormatTest, RectSafeRegionRoundTrip) {
  const RectSafeRegionMsg m{Rect(1.5, 2.5, 100.25, 200.125)};
  const auto bytes = encode(m);
  EXPECT_EQ(bytes.size(), encoded_size(m));
  EXPECT_EQ(bytes.size(), encoded_size(RectSafeRegionMsg{}));
  EXPECT_EQ(decode<RectSafeRegionMsg>(bytes).rect, m.rect);
}

TEST(WireFormatTest, SafePeriodAndTriggerRoundTrip) {
  const SafePeriodMsg sp{17.25};
  const auto sp_bytes = encode(sp);
  EXPECT_EQ(sp_bytes.size(), encoded_size(sp));
  EXPECT_DOUBLE_EQ(decode<SafePeriodMsg>(sp_bytes).period_s, 17.25);

  const TriggerNoticeMsg tn{1234, "fuel below 1/4 near I-85 exit 86"};
  const auto tn_bytes = encode(tn);
  EXPECT_EQ(tn_bytes.size(), encoded_size(tn));
  EXPECT_EQ(tn_bytes.size(), trigger_notice_size(tn.message.size()));
  const auto tn_decoded = decode<TriggerNoticeMsg>(tn_bytes);
  EXPECT_EQ(tn_decoded.alarm, 1234u);
  EXPECT_EQ(tn_decoded.message, tn.message);
}

TEST(WireFormatTest, AlarmPushRoundTrip) {
  AlarmPushMsg m;
  m.cell = Rect(0, 0, 1000, 1000);
  m.alarms.push_back({7, Rect(10, 20, 30, 40), "dry cleaning ready"});
  m.alarms.push_back({9, Rect(100, 200, 300, 400), "congestion on 85 North"});
  const auto bytes = encode(m);
  EXPECT_EQ(bytes.size(), encoded_size(m));
  EXPECT_EQ(bytes.size(),
            alarm_push_size(2, m.alarms[0].message.size() +
                                   m.alarms[1].message.size()));
  const AlarmPushMsg d = decode<AlarmPushMsg>(bytes);
  EXPECT_EQ(d.cell, m.cell);
  ASSERT_EQ(d.alarms.size(), 2u);
  EXPECT_EQ(d.alarms[0].id, 7u);
  EXPECT_EQ(d.alarms[0].message, "dry cleaning ready");
  EXPECT_EQ(d.alarms[1].region, m.alarms[1].region);
}

TEST(WireFormatTest, AlarmPushSizeGrowsLinearly) {
  EXPECT_EQ(alarm_push_size(0, 0) + 38, alarm_push_size(1, 0));
  EXPECT_EQ(alarm_push_size(10, 0) + 10 * 38 + 500, alarm_push_size(20, 500));
}

TEST(WireFormatTest, PyramidSafeRegionRoundTrip) {
  const Rect cell(0, 0, 900, 900);
  const std::vector<Rect> alarms{Rect(100, 100, 400, 300),
                                 Rect(500, 500, 800, 800)};
  saferegion::PyramidConfig cfg;
  cfg.height = 4;
  const auto bitmap = saferegion::PyramidBitmap::build(cell, alarms, cfg);
  const auto msg = PyramidSafeRegionMsg::from(bitmap);
  const auto bytes = encode(msg);
  EXPECT_EQ(bytes.size(), encoded_size(msg));
  EXPECT_EQ(bytes.size(), pyramid_message_size(bitmap.bit_size()));
  const auto decoded_msg = decode<PyramidSafeRegionMsg>(bytes);
  const auto restored = decoded_msg.decode();
  EXPECT_TRUE(restored == bitmap);
}

TEST(WireFormatTest, EmptyPyramidIsTiny) {
  const Rect cell(0, 0, 900, 900);
  const auto bitmap =
      saferegion::PyramidBitmap::build(cell, {}, saferegion::PyramidConfig{});
  const auto msg = PyramidSafeRegionMsg::from(bitmap);
  // 1 bit payload: 40-byte header + 1 byte.
  EXPECT_EQ(encode(msg).size(), 41u);
}

TEST(WireFormatTest, DecodersRejectWrongType) {
  const auto bytes = encode(TriggerNoticeMsg{5, ""});
  EXPECT_THROW(decode<PositionUpdate>(bytes), salarm::PreconditionError);
  EXPECT_THROW(decode<RectSafeRegionMsg>(bytes), salarm::PreconditionError);
  EXPECT_THROW(decode<AlarmPushMsg>(bytes), salarm::PreconditionError);
}

TEST(WireFormatTest, DecodersRejectTruncation) {
  auto bytes = encode(PositionUpdate{1, {2, 3}, 4});
  bytes.pop_back();
  EXPECT_THROW(decode<PositionUpdate>(bytes), salarm::PreconditionError);

  auto push = encode(
      AlarmPushMsg{Rect(0, 0, 1, 1), {{1, Rect(0, 0, 1, 1), ""}}});
  push.resize(push.size() - 10);
  EXPECT_THROW(decode<AlarmPushMsg>(push), salarm::PreconditionError);
}

TEST(WireFormatTest, DecodersRejectTrailingBytes) {
  auto bytes = encode(SafePeriodMsg{1.0});
  bytes.push_back(0);
  EXPECT_THROW(decode<SafePeriodMsg>(bytes), salarm::PreconditionError);
}

TEST(WireFormatTest, PyramidPayloadValidated) {
  PyramidSafeRegionMsg bad;
  bad.cell = Rect(0, 0, 1, 1);
  bad.bit_count = 10;
  bad.bits = {0xFF};  // needs 2 bytes
  EXPECT_THROW(encode(bad), salarm::PreconditionError);
}

TEST(WireFormatTest, InvalidationRoundTrip) {
  // Revoke/shrink pushes carry no alert content.
  const InvalidationMsg revoke{0, 6, 17, Rect(1, 2, 3, 4), ""};
  const auto revoke_bytes = encode(revoke);
  EXPECT_EQ(revoke_bytes.size(), encoded_size(revoke));
  EXPECT_EQ(revoke_bytes.size(), invalidation_message_size(0));
  const auto revoke_decoded = decode<InvalidationMsg>(revoke_bytes);
  EXPECT_EQ(revoke_decoded.action, 0);
  EXPECT_EQ(revoke_decoded.seq, 6u);
  EXPECT_EQ(revoke_decoded.alarm, 17u);
  EXPECT_EQ(revoke_decoded.region, revoke.region);
  EXPECT_TRUE(revoke_decoded.message.empty());

  // Alarm-add pushes carry the alarm's message.
  const InvalidationMsg add{2, 7, 90001, Rect(10, 10, 20, 20),
                            "ozone alert downtown"};
  const auto add_bytes = encode(add);
  EXPECT_EQ(add_bytes.size(), encoded_size(add));
  EXPECT_EQ(add_bytes.size(), invalidation_message_size(add.message.size()));
  const auto add_decoded = decode<InvalidationMsg>(add_bytes);
  EXPECT_EQ(add_decoded.action, 2);
  EXPECT_EQ(add_decoded.alarm, 90001u);
  EXPECT_EQ(add_decoded.message, add.message);
}

TEST(WireFormatTest, InvalidationRejectsCorruptPayloads) {
  const InvalidationMsg m{1, 1, 5, Rect(0, 0, 1, 1), ""};
  auto bytes = encode(m);

  // Bad type byte.
  auto bad_type = bytes;
  bad_type[0] = static_cast<std::uint8_t>(MessageType::kSafePeriod);
  EXPECT_THROW(decode<InvalidationMsg>(bad_type), salarm::PreconditionError);

  // Unknown action byte (only 0/1/2 are defined).
  auto bad_action = bytes;
  bad_action[1] = 7;
  EXPECT_THROW(decode<InvalidationMsg>(bad_action), salarm::PreconditionError);

  // Trailing garbage.
  auto long_buf = bytes;
  long_buf.push_back(0);
  EXPECT_THROW(decode<InvalidationMsg>(long_buf), salarm::PreconditionError);
}

// Every strict prefix of a valid message must throw — decoding may never
// read past the buffer or fall into UB on short input.
template <typename M>
void expect_all_prefixes_throw(const M& m) {
  const std::vector<std::uint8_t> bytes = encode(m);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(decode<M>(std::span(bytes.data(), len)),
                 salarm::PreconditionError)
        << "prefix of length " << len << " accepted";
  }
}

TEST(WireFormatTest, TruncationSweepThrowsForEveryPrefix) {
  expect_all_prefixes_throw(PositionUpdate{1, {2, 3}, 4});
  expect_all_prefixes_throw(RectSafeRegionMsg{Rect(0, 0, 1, 1)});
  expect_all_prefixes_throw(SafePeriodMsg{3.5});
  expect_all_prefixes_throw(TriggerNoticeMsg{9, "low fuel"});
  expect_all_prefixes_throw(
      AlarmPushMsg{Rect(0, 0, 9, 9), {{1, Rect(1, 1, 2, 2), "hi"}}});
  expect_all_prefixes_throw(
      InvalidationMsg{2, 1, 5, Rect(0, 0, 1, 1), "msg"});
  expect_all_prefixes_throw(
      ShardHandoffMsg{7, {1, 2}, 3.5, 4, 5, 1, {6, 7}});

  const auto bitmap = saferegion::PyramidBitmap::build(
      Rect(0, 0, 900, 900), std::vector<Rect>{Rect(10, 10, 200, 200)},
      saferegion::PyramidConfig{});
  expect_all_prefixes_throw(PyramidSafeRegionMsg::from(bitmap));
}

TEST(WireFormatTest, AckRoundTrip) {
  const AckMsg m{1234, 0xDEADBEEF};
  const auto bytes = encode(m);
  EXPECT_EQ(bytes.size(), encoded_size(AckMsg{}));
  const AckMsg d = decode<AckMsg>(bytes);
  EXPECT_EQ(d.subscriber, 1234u);
  EXPECT_EQ(d.seq, 0xDEADBEEFu);

  // Wrong type byte and every strict prefix must throw.
  auto bad = bytes;
  bad[0] = static_cast<std::uint8_t>(MessageType::kSafePeriod);
  EXPECT_THROW(decode<AckMsg>(bad), salarm::PreconditionError);
  expect_all_prefixes_throw(m);
}

TEST(WireFormatTest, ShardHandoffRoundTrip) {
  const ShardHandoffMsg m{77, {1500.25, -3.5}, 42.5, 9, 0xABCDEF01, 1,
                          {3, 0x10203040, 5}};
  const auto bytes = encode(m);
  EXPECT_EQ(bytes.size(), encoded_size(m));
  EXPECT_EQ(bytes.size(), handoff_message_size(m.spent.size()));
  const ShardHandoffMsg d = decode<ShardHandoffMsg>(bytes);
  EXPECT_EQ(d.subscriber, 77u);
  EXPECT_EQ(d.position, m.position);
  EXPECT_DOUBLE_EQ(d.time_s, 42.5);
  EXPECT_EQ(d.uplink_seq, 9u);
  EXPECT_EQ(d.downlink_seq, 0xABCDEF01u);
  EXPECT_EQ(d.leased, 1);
  EXPECT_EQ(d.spent, m.spent);

  // The size is the field list's: 42 fixed bytes and 4 per spent id.
  for (const std::size_t n : {0u, 1u, 2u, 100u}) {
    EXPECT_EQ(handoff_message_size(n), 42 + 4 * n);
  }

  // Only 0 and 1 are lease flags.
  auto bad_flag = bytes;
  bad_flag[37] = 2;  // type(1) id(4) position(16) time(8) seqs(8)
  EXPECT_THROW(decode<ShardHandoffMsg>(bad_flag), salarm::PreconditionError);
}

// DESIGN.md §9: the channel may reorder and duplicate invalidation pushes;
// the decoded sequence numbers are what lets the client restore order and
// drop copies. These tests pin the wire-level behaviour the protocol
// relies on.
TEST(WireFormatTest, InvalidationSequenceSurvivesReordering) {
  const InvalidationMsg first{1, 41, 7, Rect(0, 0, 5, 5), ""};
  const InvalidationMsg second{1, 42, 8, Rect(5, 5, 9, 9), ""};
  const auto first_bytes = encode(first);
  const auto second_bytes = encode(second);

  // Delivered out of order: decoding is order-independent, and the seq
  // fields alone recover the original send order.
  const auto late = decode<InvalidationMsg>(second_bytes);
  const auto early = decode<InvalidationMsg>(first_bytes);
  EXPECT_LT(early.seq, late.seq);
  EXPECT_EQ(early.alarm, 7u);
  EXPECT_EQ(late.alarm, 8u);
}

TEST(WireFormatTest, InvalidationDuplicateCopiesDecodeIdentically) {
  const InvalidationMsg m{2, 99, 13, Rect(1, 1, 2, 2), "copy me"};
  const auto bytes = encode(m);
  const auto copy_bytes = bytes;  // the channel re-delivers the same frame
  const auto a = decode<InvalidationMsg>(bytes);
  const auto b = decode<InvalidationMsg>(copy_bytes);
  // Identical seq is exactly what the duplicate-suppression window keys on.
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.action, b.action);
  EXPECT_EQ(a.alarm, b.alarm);
  EXPECT_EQ(a.region, b.region);
  EXPECT_EQ(a.message, b.message);
}

TEST(WireFormatTest, AlarmPushRejectsReserveBomb) {
  // An attacker-controlled alarm count far beyond what the payload can hold
  // must be rejected up front, not fed to vector::reserve.
  auto bytes = encode(AlarmPushMsg{Rect(0, 0, 1, 1), {}});
  // Layout: type(1) + cell rect(32) + count(4); patch the count field.
  ASSERT_EQ(bytes.size(), 37u);
  bytes[33] = 0xFF;
  bytes[34] = 0xFF;
  bytes[35] = 0xFF;
  bytes[36] = 0xFF;
  EXPECT_THROW(decode<AlarmPushMsg>(bytes), salarm::PreconditionError);
}

TEST(WireFormatTest, PyramidBitCountNearMaxIsRejected) {
  // A bit count near 2^32 must not wrap the payload length to zero bytes.
  PyramidSafeRegionMsg huge;
  huge.cell = Rect(0, 0, 1, 1);
  huge.bit_count = 0xFFFFFFFF;
  EXPECT_THROW(encode(huge), salarm::PreconditionError);

  PyramidSafeRegionMsg empty;
  empty.cell = Rect(0, 0, 1, 1);
  auto bytes = encode(empty);
  // Layout: type(1) + cell rect(32) + u/v/h(3) + bit_count(4); patch the
  // bit count and leave the payload empty.
  ASSERT_EQ(bytes.size(), 40u);
  for (std::size_t i = 36; i < 40; ++i) bytes[i] = 0xFF;
  EXPECT_THROW(decode<PyramidSafeRegionMsg>(bytes), salarm::PreconditionError);
}

// ---------------------------------------------------------------------------
// Golden messages: one per message type and per journal record kind, with
// distinct field values so that a reordered or resized field changes the
// bytes. GoldenBytes pins their encodings; WireFuzzTest mutates them.
// ---------------------------------------------------------------------------

std::string hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

/// The encoding and encoded size of a decoded message.
struct Reencoded {
  std::vector<std::uint8_t> bytes;
  std::size_t size = 0;
};

struct GoldenCase {
  std::string name;
  std::vector<std::uint8_t> bytes;
  /// Decodes bytes as this case's message type (throwing on malformed
  /// input) and re-encodes what it decoded.
  std::function<Reencoded(std::span<const std::uint8_t>)> reencode;
};

template <typename M>
GoldenCase golden_case(std::string name, const M& m) {
  return {std::move(name), encode(m),
          [](std::span<const std::uint8_t> in) {
            const M d = decode<M>(in);
            if constexpr (std::is_same_v<M, PyramidSafeRegionMsg>) {
              // A pyramid that decodes must also expand cleanly or be
              // rejected as malformed.
              try {
                (void)d.decode();
              } catch (const salarm::PreconditionError&) {
              }
            }
            return Reencoded{encode(d), encoded_size(d)};
          }};
}

alarms::SpatialAlarm golden_alarm(alarms::AlarmId id, alarms::AlarmScope scope,
                                  std::vector<alarms::SubscriberId> subs,
                                  std::string message) {
  return {id, scope, 0x0A0B0C0D, Rect(1.5, -2.0, 3.25, 4.0), std::move(subs),
          std::move(message)};
}

std::vector<GoldenCase> golden_cases() {
  // A valid 13-bit 3x3 pyramid of height 2: root unsafe and subdivided,
  // seven safe children, two solid-unsafe ones.
  PyramidSafeRegionMsg pyramid;
  pyramid.cell = Rect(0, 0, 900, 900);
  pyramid.config.height = 2;
  pyramid.bit_count = 13;
  pyramid.bits = {0x7F, 0x80};

  ShardCheckpointMsg checkpoint;
  checkpoint.shard = 3;
  checkpoint.tick = 0x0102030405;
  checkpoint.alarms = {
      {golden_alarm(11, alarms::AlarmScope::kShared, {5, 6}, "a"), 0},
      {golden_alarm(12, alarms::AlarmScope::kPublic, {}, "bc"), 7}};
  checkpoint.graveyard = {
      {golden_alarm(13, alarms::AlarmScope::kPrivate, {9}, ""), 2, 9}};
  checkpoint.spent = {{11, 6}, {12, 0x01020304}};
  checkpoint.grants = {{6, 3, Rect(0, 0, 5, 5)}, {9, 1, Rect(1, 1, 2, 2)}};

  JournalRecordMsg install;
  install.kind = JournalRecordMsg::Kind::kInstall;
  install.tick = 40;
  install.alarm = golden_alarm(14, alarms::AlarmScope::kPrivate, {8}, "hi");
  install.alarm_id = 14;
  JournalRecordMsg remove;
  remove.kind = JournalRecordMsg::Kind::kRemove;
  remove.tick = 41;
  remove.alarm_id = 0x0E0F1011;
  JournalRecordMsg spent;
  spent.kind = JournalRecordMsg::Kind::kSpent;
  spent.tick = 42;
  spent.alarm_id = 15;
  spent.subscriber = 0x12131415;

  return {
      golden_case("PositionUpdate", PositionUpdate{0x01020304, {123.5, -7.25},
                                                   99.75, 0xA0B0C0D0}),
      golden_case("RectSafeRegion",
                  RectSafeRegionMsg{Rect(1.5, 2.5, 100.25, 200.125)}),
      golden_case("PyramidSafeRegion", pyramid),
      golden_case("AlarmPush",
                  AlarmPushMsg{Rect(0, 0, 1000, 1000),
                               {{7, Rect(10, 20, 30, 40), "dry"},
                                {0x090A0B0C, Rect(100, 200, 300, 400), "ok"}}}),
      golden_case("SafePeriod", SafePeriodMsg{17.25}),
      golden_case("TriggerNotice", TriggerNoticeMsg{0x1234, "fuel"}),
      golden_case("ShardHandoff",
                  ShardHandoffMsg{0x01020304, {123.5, -7.25}, 99.75,
                                  0x0A0B0C0D, 0x11121314, 1, {7, 0x08090A0B}}),
      golden_case("Invalidation",
                  InvalidationMsg{2, 0x0607, 90001, Rect(10, 10, 20, 20),
                                  "ozone"}),
      golden_case("Ack", AckMsg{1234, 0xDEADBEEF}),
      golden_case("ShardCheckpoint", checkpoint),
      golden_case("JournalInstall", install),
      golden_case("JournalRemove", remove),
      golden_case("JournalSpent", spent),
  };
}

TEST(WireFormatTest, GoldenBytes) {
  // Generated from the encoder; a layout change must update them.
  const char* const expected[] = {
      // PositionUpdate
      "0104030201d0c0b0a00000000000e05e400000000000001dc00000000000f058"
      "40",
      // RectSafeRegion
      "02000000000000f83f0000000000000440000000000010594000000000000469"
      "40",
      // PyramidSafeRegion
      "03000000000000000000000000000000000000000000208c400000000000208c"
      "400303020d0000007f80",
      // AlarmPush
      "04000000000000000000000000000000000000000000408f400000000000408f"
      "400200000007000000000000000000244000000000000034400000000000003e"
      "40000000000000444003006472790c0b0a090000000000005940000000000000"
      "69400000000000c07240000000000000794002006f6b",
      // SafePeriod
      "050000000000403140",
      // TriggerNotice
      "063412000004006675656c",
      // ShardHandoff
      "07040302010000000000e05e400000000000001dc00000000000f058400d0c0b"
      "0a141312110102000000070000000b0a0908",
      // Invalidation
      "080207060000915f010000000000000024400000000000002440000000000000"
      "3440000000000000344005006f7a6f6e65",
      // Ack
      "09d2040000efbeadde",
      // ShardCheckpoint
      "0a030000000504030201000000020000000b000000010d0c0b0a000000000000"
      "f83f00000000000000c00000000000000a400000000000001040020005000000"
      "0600000001006100000000000000000c000000020d0c0b0a000000000000f83f"
      "00000000000000c00000000000000a4000000000000010400000020062630700"
      "000000000000010000000d000000000d0c0b0a000000000000f83f0000000000"
      "0000c00000000000000a40000000000000104001000900000000000200000000"
      "0000000900000000000000020000000b000000060000000c0000000403020102"
      "0000000600000003000000000000000000000000000000000000000000001440"
      "00000000000014400900000001000000000000f03f000000000000f03f000000"
      "00000000400000000000000040",
      // JournalInstall
      "0b0028000000000000000e000000000d0c0b0a000000000000f83f0000000000"
      "0000c00000000000000a40000000000000104001000800000002006869",
      // JournalRemove
      "0b01290000000000000011100f0e",
      // JournalSpent
      "0b022a000000000000000f00000015141312",
  };
  const auto cases = golden_cases();
  ASSERT_EQ(cases.size(), std::size(expected));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const GoldenCase& c = cases[i];
    EXPECT_EQ(hex(c.bytes), expected[i]) << c.name;
    const Reencoded again = c.reencode(c.bytes);
    EXPECT_EQ(again.bytes, c.bytes) << c.name;
    EXPECT_EQ(again.size, c.bytes.size()) << c.name;
  }
  // The golden pyramid is a valid bit stream, so fuzzed copies of it reach
  // PyramidBitmap::deserialize.
  EXPECT_NO_THROW(decode<PyramidSafeRegionMsg>(cases[2].bytes).decode());

  EXPECT_EQ(pyramid_message_size(13), 42u);
  EXPECT_EQ(alarm_push_size(3, 10), 161u);
  EXPECT_EQ(trigger_notice_size(5), 12u);
  EXPECT_EQ(encoded_size(RectSafeRegionMsg{}), 33u);
  EXPECT_EQ(invalidation_message_size(4), 48u);
  EXPECT_EQ(encoded_size(AckMsg{}), 9u);
  EXPECT_EQ(handoff_message_size(2), 50u);
}

TEST(WireFormatTest, EveryDecoderRejectsEveryOtherTypeByte) {
  for (const GoldenCase& c : golden_cases()) {
    for (std::uint8_t type = 0; type <= 12; ++type) {
      if (type == c.bytes[0]) continue;
      auto bytes = c.bytes;
      bytes[0] = type;
      EXPECT_THROW(c.reencode(bytes), salarm::PreconditionError)
          << c.name << " decoded type byte " << int{type};
    }
  }
}

// ---------------------------------------------------------------------------
// Deterministic mutation fuzzer over the golden messages. Each input stacks
// one to three mutations (bit flip, random byte, truncation, an aligned
// 4-byte overwrite with 0x00 or 0xFF, a splice of a golden suffix). It must
// either be rejected with PreconditionError, or decode to a message that
// re-encodes to exactly the input bytes and sizes to exactly its length.
// ---------------------------------------------------------------------------

void mutate(std::vector<std::uint8_t>& bytes, std::mt19937_64& rng,
            const std::vector<GoldenCase>& cases) {
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const std::size_t kind = pick(5);
  if (kind == 4 || bytes.empty()) {  // splice of a golden suffix
    const auto& donor = cases[pick(cases.size())].bytes;
    bytes.resize(pick(bytes.size() + 1));
    bytes.insert(bytes.end(),
                 donor.begin() + static_cast<long>(pick(donor.size() + 1)),
                 donor.end());
    return;
  }
  const std::size_t at = pick(bytes.size());
  switch (kind) {
    case 0:  // bit flip
      bytes[at] ^= static_cast<std::uint8_t>(1u << pick(8));
      break;
    case 1:  // random byte
      bytes[at] = static_cast<std::uint8_t>(rng());
      break;
    case 2:  // truncation
      bytes.resize(at);
      break;
    case 3: {  // 4-byte overwrite, aligned to the fields after the type byte
      const std::uint8_t fill = pick(2) == 0 ? 0x00 : 0xFF;
      const std::size_t from = 1 + (at / 4) * 4;
      for (std::size_t i = from; i < from + 4 && i < bytes.size(); ++i) {
        bytes[i] = fill;
      }
      break;
    }
  }
}

TEST(WireFuzzTest, MutatedMessagesRoundTripOrThrow) {
  constexpr int kInputsPerCase = 20000;
  const auto cases = golden_cases();
  std::mt19937_64 rng(0x5AFE2E610);
  for (const GoldenCase& c : cases) {
    int decoded = 0;
    int rejected = 0;
    for (int i = 0; i < kInputsPerCase; ++i) {
      std::vector<std::uint8_t> input = c.bytes;
      const int mutations = 1 + static_cast<int>(rng() % 3);
      for (int k = 0; k < mutations; ++k) mutate(input, rng, cases);
      try {
        const Reencoded again = c.reencode(input);
        ++decoded;
        if (again.bytes != input || again.size != input.size()) {
          ADD_FAILURE() << c.name << " decoded without round-tripping: "
                        << hex(input);
          break;
        }
      } catch (const salarm::PreconditionError&) {
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << c.name << " threw " << e.what() << " on "
                      << hex(input);
        break;
      }
    }
    // Both outcomes must be reached, or the mutations are not exercising
    // the decoder.
    EXPECT_GT(decoded, 0) << c.name;
    EXPECT_GT(rejected, 0) << c.name;
  }
}

}  // namespace
}  // namespace salarm::wire
