// The one spelling of a double in every export (trace JSON, JSONL dumps,
// metrics JSON, time-series CSV, workload JSONL).
#pragma once

#include <string>

namespace gridlb {

/// `value` with 17 significant digits (printf "%.17g"), which reads back
/// as the same double.  NaN and the infinities keep printf's "nan", "inf"
/// and "-inf" unless `non_finite` stands in for them: "null" in JSON, ""
/// for an empty CSV cell.
[[nodiscard]] std::string exact_number(double value,
                                       const char* non_finite = nullptr);

}  // namespace gridlb
