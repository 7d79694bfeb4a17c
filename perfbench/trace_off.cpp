// The untraced driver's tracing: none.
#include "trace.hpp"

namespace perfbench {

bool trace_enabled() { return false; }

void trace_reset() {}

std::map<std::string, double> trace_collect() { return {}; }

}  // namespace perfbench
