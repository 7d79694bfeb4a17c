// The seven case-study applications of Table 1.
//
// Table 1 lists PACE-predicted execution times for each application on
// 1..16 SGIOrigin2000 processors plus the domain from which each request's
// deadline is drawn.  These tabulated models ARE the reproduction of the
// paper's application models: the evaluation engine reproduces Table 1
// exactly on the reference platform (verified in tests and by
// bench/table1_pace_predictions).
#pragma once

#include "pace/application_model.hpp"

namespace gridlb::pace {

/// Builds the Table 1 model for one application (throws on unknown name).
[[nodiscard]] ApplicationModelPtr make_paper_application(
    const std::string& name);

/// Catalogue containing all seven models, Table 1 order.
[[nodiscard]] ApplicationCatalogue paper_catalogue();

}  // namespace gridlb::pace
