#include "mobility/trace_io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "common/error.h"

namespace salarm::mobility {

namespace {

constexpr char kHeader[] = "tick,vehicle,x,y,heading,speed";

double parse_double(std::string_view field, const char* what) {
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), value);
  SALARM_REQUIRE(ec == std::errc() && ptr == field.data() + field.size() &&
                     std::isfinite(value),
                 std::string("malformed or non-finite ") + what + " field");
  return value;
}

std::uint64_t parse_uint(std::string_view field, const char* what) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), value);
  SALARM_REQUIRE(ec == std::errc() && ptr == field.data() + field.size(),
                 std::string("malformed ") + what + " field");
  return value;
}

std::vector<std::string_view> split_fields(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string_view::npos) {
      out.push_back(line.substr(start));
      return out;
    }
    out.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

}  // namespace

void write_trace_csv(const RecordedTrace& trace, std::ostream& out) {
  out << "# tick_seconds=" << trace.tick_seconds() << '\n';
  out << kHeader << '\n';
  out.precision(10);
  for (std::size_t t = 0; t < trace.tick_count(); ++t) {
    for (VehicleId v = 0; v < trace.vehicle_count(); ++v) {
      const VehicleSample& s = trace.sample(t, v);
      out << t << ',' << v << ',' << s.pos.x << ',' << s.pos.y << ','
          << s.heading << ',' << s.speed_mps << '\n';
    }
  }
}

RecordedTrace read_trace_csv(std::istream& in) {
  std::string line;

  // Leading comment with the tick duration.
  SALARM_REQUIRE(static_cast<bool>(std::getline(in, line)) &&
                     line.rfind("# tick_seconds=", 0) == 0,
                 "trace must start with '# tick_seconds=...'");
  const double tick_seconds =
      parse_double(std::string_view(line).substr(15), "tick_seconds");
  SALARM_REQUIRE(tick_seconds > 0.0, "tick_seconds must be positive");

  SALARM_REQUIRE(static_cast<bool>(std::getline(in, line)) && line == kHeader,
                 "missing or wrong CSV header");

  // Read every sample before sizing anything by a tick number: dense ticks
  // hold a sample each at least, so the largest tick must lie below the
  // sample count, and what is allocated stays bounded by the input.
  struct Row {
    std::uint64_t tick;
    std::uint64_t vehicle;
    VehicleSample sample;
  };
  std::vector<Row> rows;
  std::uint64_t last_tick = 0;
  std::size_t line_number = 2;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    const auto fields = split_fields(line);
    SALARM_REQUIRE(fields.size() == 6,
                   "line " + std::to_string(line_number) +
                       ": expected 6 fields");
    Row& row = rows.emplace_back(Row{parse_uint(fields[0], "tick"),
                                     parse_uint(fields[1], "vehicle"), {}});
    row.sample.pos.x = parse_double(fields[2], "x");
    row.sample.pos.y = parse_double(fields[3], "y");
    row.sample.heading = parse_double(fields[4], "heading");
    row.sample.speed_mps = parse_double(fields[5], "speed");
    last_tick = std::max(last_tick, row.tick);
  }
  SALARM_REQUIRE(!rows.empty(), "trace has no samples");
  SALARM_REQUIRE(last_tick < rows.size(), "trace has ticks without samples");
  std::vector<std::vector<std::pair<std::uint64_t, VehicleSample>>> ticks(
      static_cast<std::size_t>(last_tick) + 1);
  for (const Row& r : rows) ticks[r.tick].emplace_back(r.vehicle, r.sample);

  const std::size_t vehicle_count = ticks.front().size();
  SALARM_REQUIRE(vehicle_count > 0, "tick 0 has no samples");

  RecordedTrace trace(vehicle_count, tick_seconds);
  for (std::size_t t = 0; t < ticks.size(); ++t) {
    SALARM_REQUIRE(ticks[t].size() == vehicle_count,
                   "tick " + std::to_string(t) +
                       " does not list every vehicle exactly once");
    std::vector<VehicleSample> row(vehicle_count);
    std::vector<bool> seen(vehicle_count, false);
    for (const auto& [vehicle, sample] : ticks[t]) {
      SALARM_REQUIRE(vehicle < vehicle_count,
                     "vehicle id out of range at tick " + std::to_string(t));
      SALARM_REQUIRE(!seen[vehicle],
                     "duplicate vehicle at tick " + std::to_string(t));
      seen[vehicle] = true;
      row[vehicle] = sample;
    }
    trace.append_tick(std::move(row));
  }
  return trace;
}

void save_trace_csv(const RecordedTrace& trace, const std::string& path) {
  std::ofstream out(path);
  SALARM_REQUIRE(out.good(), "cannot open trace file for writing: " + path);
  write_trace_csv(trace, out);
  SALARM_REQUIRE(out.good(), "error writing trace file: " + path);
}

RecordedTrace load_trace_csv(const std::string& path) {
  std::ifstream in(path);
  SALARM_REQUIRE(in.good(), "cannot open trace file: " + path);
  return read_trace_csv(in);
}

}  // namespace salarm::mobility
