#include <algorithm>
#include <cmath>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "mobility/trace_generator.h"
#include "mobility/trace_io.h"
#include "roadnet/network_builder.h"

namespace salarm::mobility {
namespace {

RecordedTrace sample_trace() {
  roadnet::NetworkConfig net_cfg;
  net_cfg.width_m = 4000;
  net_cfg.height_m = 4000;
  Rng rng(3);
  static const auto network = roadnet::build_synthetic_network(net_cfg, rng);
  TraceConfig cfg;
  cfg.vehicle_count = 7;
  cfg.tick_seconds = 0.5;
  cfg.seed = 11;
  TraceGenerator gen(network, cfg);
  return gen.record(25);
}

TEST(TraceIoTest, RoundTripsExactlyEnough) {
  const RecordedTrace original = sample_trace();
  std::stringstream buffer;
  write_trace_csv(original, buffer);
  const RecordedTrace restored = read_trace_csv(buffer);

  ASSERT_EQ(restored.tick_count(), original.tick_count());
  ASSERT_EQ(restored.vehicle_count(), original.vehicle_count());
  EXPECT_DOUBLE_EQ(restored.tick_seconds(), original.tick_seconds());
  for (std::size_t t = 0; t < original.tick_count(); ++t) {
    for (VehicleId v = 0; v < original.vehicle_count(); ++v) {
      const auto& a = original.sample(t, v);
      const auto& b = restored.sample(t, v);
      // 10 significant digits of precision survive the text round-trip.
      EXPECT_NEAR(a.pos.x, b.pos.x, 1e-5);
      EXPECT_NEAR(a.pos.y, b.pos.y, 1e-5);
      EXPECT_NEAR(a.heading, b.heading, 1e-8);
      EXPECT_NEAR(a.speed_mps, b.speed_mps, 1e-7);
    }
  }
}

TEST(TraceIoTest, AcceptsShuffledVehiclesWithinTick) {
  std::stringstream buffer;
  buffer << "# tick_seconds=1\n";
  buffer << "tick,vehicle,x,y,heading,speed\n";
  buffer << "0,1,10,20,0,5\n";
  buffer << "0,0,1,2,0,5\n";
  buffer << "1,0,2,3,0,5\n";
  buffer << "1,1,11,21,0,5\n";
  const RecordedTrace trace = read_trace_csv(buffer);
  EXPECT_EQ(trace.tick_count(), 2u);
  EXPECT_EQ(trace.vehicle_count(), 2u);
  EXPECT_EQ(trace.sample(0, 0).pos, (geo::Point{1, 2}));
  EXPECT_EQ(trace.sample(0, 1).pos, (geo::Point{10, 20}));
}

TEST(TraceIoTest, RejectsMalformedInput) {
  const auto expect_reject = [](const std::string& text) {
    std::stringstream buffer(text);
    EXPECT_THROW(read_trace_csv(buffer), salarm::PreconditionError) << text;
  };
  // Missing tick_seconds comment.
  expect_reject("tick,vehicle,x,y,heading,speed\n0,0,1,2,0,5\n");
  // Wrong header.
  expect_reject("# tick_seconds=1\ntick,vehicle,x,y\n0,0,1,2\n");
  // Non-numeric field.
  expect_reject(
      "# tick_seconds=1\ntick,vehicle,x,y,heading,speed\n0,0,abc,2,0,5\n");
  // Wrong field count.
  expect_reject("# tick_seconds=1\ntick,vehicle,x,y,heading,speed\n0,0,1\n");
  // Duplicate vehicle in a tick.
  expect_reject(
      "# tick_seconds=1\ntick,vehicle,x,y,heading,speed\n"
      "0,0,1,2,0,5\n0,0,3,4,0,5\n");
  // Missing vehicle in second tick.
  expect_reject(
      "# tick_seconds=1\ntick,vehicle,x,y,heading,speed\n"
      "0,0,1,2,0,5\n0,1,3,4,0,5\n1,0,5,6,0,5\n");
  // Empty trace.
  expect_reject("# tick_seconds=1\ntick,vehicle,x,y,heading,speed\n");
  // Bad tick_seconds.
  expect_reject(
      "# tick_seconds=0\ntick,vehicle,x,y,heading,speed\n0,0,1,2,0,5\n");
  expect_reject(
      "# tick_seconds=inf\ntick,vehicle,x,y,heading,speed\n0,0,1,2,0,5\n");
  // Tick numbers far beyond the samples read: rejected before anything is
  // sized by them (the largest would wrap tick + 1 to zero).
  const std::string head = "# tick_seconds=1\ntick,vehicle,x,y,heading,speed\n"
                           "0,0,1,2,0,5\n";
  for (const char* tick :
       {"18446744073709551615", "100000000000", "30000000", "2"}) {
    expect_reject(head + tick + ",0,1,2,0,5\n");
  }
  // A vehicle id beyond 32 bits must not wrap onto vehicle 0.
  expect_reject(
      "# tick_seconds=1\ntick,vehicle,x,y,heading,speed\n"
      "0,4294967296,1,2,0,5\n");
  // Non-finite coordinates, heading or speed.
  for (const char* row : {"0,0,nan,2,0,5", "0,0,1,inf,0,5", "0,0,1,2,-inf,5",
                          "0,0,1,2,0,nan", "0,0,1,2,0,infinity"}) {
    expect_reject(std::string("# tick_seconds=1\n"
                              "tick,vehicle,x,y,heading,speed\n") +
                  row + "\n");
  }
}

TEST(TraceIoTest, FileRoundTrip) {
  const RecordedTrace original = sample_trace();
  const std::string path = ::testing::TempDir() + "/salarm_trace.csv";
  save_trace_csv(original, path);
  const RecordedTrace restored = load_trace_csv(path);
  EXPECT_EQ(restored.tick_count(), original.tick_count());
  EXPECT_EQ(restored.vehicle_count(), original.vehicle_count());
  EXPECT_THROW(load_trace_csv("/nonexistent/dir/trace.csv"),
               salarm::PreconditionError);
}

// ---------------------------------------------------------------------------
// Fuzzing: read_trace_csv takes outside input, so every mutation of a valid
// trace must either parse into a trace of finite samples or be rejected
// with PreconditionError — never crash, wrap, or allocate by a number it
// read.
// ---------------------------------------------------------------------------

std::vector<std::string> golden_traces() {
  RecordedTrace small(3, 0.5);
  for (int t = 0; t < 4; ++t) {
    std::vector<VehicleSample> row;
    for (int v = 0; v < 3; ++v) {
      row.push_back({{100.25 * v - 7.5 * t, 3.0e4 + 11.0 * t}, 0.5 * v - 1.0,
                     13.9 + t});
    }
    small.append_tick(std::move(row));
  }
  std::stringstream written;
  write_trace_csv(small, written);
  return {written.str(),
          "# tick_seconds=1\ntick,vehicle,x,y,heading,speed\n"
          "0,1,10,20,0,5\n0,0,1,2,0,5\n1,0,2,3,0,5\n1,1,11,21,0,5\n"};
}

/// Offsets where a CSV field starts (after a comma or a newline, or 0).
std::vector<std::size_t> field_starts(const std::string& text) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == ',' || text[i] == '\n') starts.push_back(i + 1);
  }
  return starts;
}

void mutate(std::string& text, std::mt19937_64& rng,
            const std::vector<std::string>& golden) {
  static const char* const kHuge[] = {
      "18446744073709551615", "18446744073709551616", "100000000000",
      "30000000",             "4294967296",           "-1",
      "1e309",                "-1e308",               "nan",
      "inf",                  "-infinity",            "0x10",
      "",                     "1,2"};
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const std::size_t kind = pick(5);
  if (kind == 4 || text.empty()) {  // splice of another trace's fields
    const std::string& donor = golden[pick(golden.size())];
    const auto here = field_starts(text);
    const auto there = field_starts(donor);
    text.resize(here[pick(here.size())]);
    text += donor.substr(there[pick(there.size())]);
    return;
  }
  const std::size_t at = pick(text.size());
  switch (kind) {
    case 0:  // bit flip
      text[at] = static_cast<char>(text[at] ^ (1 << pick(8)));
      break;
    case 1:  // truncation
      text.resize(at);
      break;
    case 2: {  // one field replaced by a huge or non-finite number
      const auto starts = field_starts(text);
      const std::size_t from = starts[pick(starts.size())];
      const std::size_t to = text.find_first_of(",\n", from);
      text.replace(from, (to == std::string::npos ? text.size() : to) - from,
                   kHuge[pick(std::size(kHuge))]);
      break;
    }
    case 3: {  // a whole line duplicated
      const std::size_t from = text.rfind('\n', at);
      const std::size_t begin = from == std::string::npos ? 0 : from + 1;
      const std::size_t end = text.find('\n', at);
      if (end != std::string::npos) {
        text.insert(end + 1, text.substr(begin, end + 1 - begin));
      }
      break;
    }
  }
}

TEST(TraceIoFuzzTest, MutatedTracesParseFiniteOrThrow) {
  constexpr int kInputsPerCase = 5000;
  const auto golden = golden_traces();
  std::mt19937_64 rng(0x7EACE10);
  for (const std::string& base : golden) {
    int parsed = 0;
    int rejected = 0;
    for (int i = 0; i < kInputsPerCase; ++i) {
      std::string input = base;
      const int mutations = 1 + static_cast<int>(rng() % 3);
      for (int k = 0; k < mutations; ++k) mutate(input, rng, golden);
      std::stringstream in(input);
      try {
        const RecordedTrace trace = read_trace_csv(in);
        ++parsed;
        ASSERT_TRUE(std::isfinite(trace.tick_seconds()) &&
                    trace.tick_seconds() > 0.0)
            << input;
        // Nothing beyond the input's own lines can have been read.
        ASSERT_LE(trace.tick_count() * trace.vehicle_count(),
                  static_cast<std::size_t>(
                      std::count(input.begin(), input.end(), '\n') + 1))
            << input;
        for (std::size_t t = 0; t < trace.tick_count(); ++t) {
          for (const VehicleSample& s : trace.tick(t)) {
            ASSERT_TRUE(std::isfinite(s.pos.x) && std::isfinite(s.pos.y) &&
                        std::isfinite(s.heading) &&
                        std::isfinite(s.speed_mps))
                << input;
          }
        }
      } catch (const salarm::PreconditionError&) {
        ++rejected;
      } catch (const std::exception& e) {
        FAIL() << "threw " << e.what() << " on\n" << input;
      }
    }
    // Both outcomes must be reached, or the mutations are not exercising
    // the parser.
    EXPECT_GT(parsed, 0);
    EXPECT_GT(rejected, 0);
  }
}

}  // namespace
}  // namespace salarm::mobility
