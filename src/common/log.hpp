// Fault warnings on stderr.
//
// A run's decisions (own service, neighbour, escalation, fallback) go to
// the trace (obs/trace.hpp); the only lines it writes to stderr are
// warnings about faults: crashes, losses, drained queues, resubmissions.
// A line written during a run states its simulation time in its own text
// (`t=<now>`, read from the engine it runs on).
#pragma once

#include <cstdio>
#include <sstream>
#include <utility>

namespace gridlb::log {

/// Writes "[gridlb WARN] <args...>\n" to stderr in one stdio call, so
/// lines from concurrent runs (core::run_many) never interleave.
template <class... Args>
void warn(Args&&... args) {
  std::ostringstream os;
  os << "[gridlb WARN] ";
  (os << ... << std::forward<Args>(args));
  os << '\n';
  std::fputs(os.str().c_str(), stderr);
}

}  // namespace gridlb::log
