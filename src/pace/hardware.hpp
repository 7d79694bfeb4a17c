// PACE resource models: static hardware performance descriptions.
//
// PACE resource models are built from static benchmarks of each platform
// (the paper notes this simplification explicitly).  We reproduce the case
// study's five platform types (Fig. 7) and summarise each benchmark as a
// single relative performance factor against the reference platform
// (SGIOrigin2000, the machine Table 1 is quoted for): a task predicted to
// take T seconds on the reference takes T × factor on the platform.
//
// The factors below are synthetic (the original PACE benchmark data is not
// available) but ordered exactly as the paper orders the machines: "The
// SGI multi-processor is the most powerful, followed by the Sun Ultra 10,
// 5, 1, and SPARCStation 2 in turn."
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gridlb::pace {

/// The hardware platforms of the IPPS'03 case study (Fig. 7).
enum class HardwareType {
  kSgiOrigin2000,
  kSunUltra10,
  kSunUltra5,
  kSunUltra1,
  kSunSparcStation2,
};

/// All known platforms, fastest first.
[[nodiscard]] const std::vector<HardwareType>& all_hardware_types();

/// Model name as it appears in service-information documents
/// (e.g. "SGIOrigin2000", "SunUltra10").
[[nodiscard]] std::string_view hardware_name(HardwareType type);

/// Inverse of hardware_name; nullopt for unknown names.
[[nodiscard]] std::optional<HardwareType> hardware_from_name(
    std::string_view name);

/// Relative slowdown versus the SGIOrigin2000 reference (>= 1.0).
[[nodiscard]] double performance_factor(HardwareType type);

/// A PACE resource model for one processing node.
///
/// All nodes within a grid resource are homogeneous in the case study, so
/// one ResourceModel describes a whole 16-node cluster's node type.
struct ResourceModel {
  HardwareType type = HardwareType::kSgiOrigin2000;
  /// Slowdown versus reference; defaults to the catalogue value for `type`
  /// but can be overridden for user-defined platforms.
  double factor = 1.0;

  /// Builds the catalogue model for a platform.
  static ResourceModel of(HardwareType type);

  bool operator==(const ResourceModel&) const = default;
};

}  // namespace gridlb::pace
