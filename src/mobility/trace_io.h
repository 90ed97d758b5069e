// Trace serialization: CSV import/export for RecordedTrace.
//
// The paper's evaluation runs on traces generated from USGS map data; this
// repository generates synthetic traces instead (DESIGN.md §5). Users with
// real traces — taxi datasets, fleet logs, or the original generator's
// output — can import them through this module and drive every strategy
// and bench with them.
//
// Format (one sample per line, header required):
//
//   tick,vehicle,x,y,heading,speed
//   0,0,1523.5,890.0,1.5708,13.9
//
// Ticks must be dense from 0, each tick must list every vehicle exactly
// once (any order within the tick), and the tick duration is carried in a
// leading comment line "# tick_seconds=1".
#pragma once

#include <iosfwd>
#include <string>

#include "mobility/trace.h"

namespace salarm::mobility {

/// Writes the trace in the CSV format above.
void write_trace_csv(const RecordedTrace& trace, std::ostream& out);

/// Parses a trace from the CSV format above. Throws PreconditionError on
/// malformed input (missing header, sparse ticks, duplicate or missing
/// vehicles, non-numeric or non-finite fields); what it allocates is
/// bounded by the input's size, whatever tick numbers it names.
RecordedTrace read_trace_csv(std::istream& in);

/// Convenience file wrappers; throw PreconditionError when the file cannot
/// be opened.
void save_trace_csv(const RecordedTrace& trace, const std::string& path);
RecordedTrace load_trace_csv(const std::string& path);

}  // namespace salarm::mobility
