#include "common/number.hpp"

#include <cmath>
#include <cstdio>

namespace gridlb {

std::string exact_number(double value, const char* non_finite) {
  if (non_finite != nullptr && !std::isfinite(value)) return non_finite;
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace gridlb
