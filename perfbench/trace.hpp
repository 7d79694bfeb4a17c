// Span tracing interface shared by the two perfbench drivers.
//
// perfbench links trace_off.cpp (no spans, no wrappers); perfbench_traced
// links trace_on.cpp, whose -Wl,--wrap interposers time each layer's
// cross-TU entry points from outside the libraries.  bench.cpp only sees
// this header, so both drivers run the identical benchmark code.
#pragma once

#include <map>
#include <string>

namespace perfbench {

/// True in the traced driver.
[[nodiscard]] bool trace_enabled();

/// Clears every thread's span totals.  Call only while no simulation runs.
void trace_reset();

/// Reduces the spans recorded since the last reset into per-layer metrics
/// (see README.md for each name).  Call only while no simulation runs.
[[nodiscard]] std::map<std::string, double> trace_collect();

}  // namespace perfbench
