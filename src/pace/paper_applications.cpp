#include "pace/paper_applications.hpp"

#include "common/assert.hpp"

namespace gridlb::pace {

namespace {

struct PaperApp {
  const char* name;
  DeadlineDomain deadlines;
  std::vector<double> times;  // T(1)..T(16) on SGIOrigin2000, Table 1
};

const std::vector<PaperApp>& paper_apps() {
  static const std::vector<PaperApp> kApps = {
      {"sweep3d",
       {4, 200},
       {50, 40, 30, 25, 23, 20, 17, 15, 13, 11, 9, 7, 6, 5, 4, 4}},
      {"fft",
       {10, 100},
       {25, 24, 23, 22, 21, 20, 19, 18, 17, 16, 15, 14, 13, 12, 11, 10}},
      {"improc",
       {20, 192},
       {48, 41, 35, 30, 26, 23, 21, 20, 20, 21, 23, 26, 30, 35, 41, 48}},
      {"closure",
       {2, 36},
       {9, 9, 8, 8, 7, 7, 6, 6, 5, 5, 4, 4, 3, 3, 2, 2}},
      {"jacobi",
       {6, 160},
       {40, 35, 30, 25, 23, 20, 17, 15, 13, 11, 10, 9, 8, 7, 6, 6}},
      {"memsort",
       {10, 68},
       {17, 16, 15, 14, 13, 12, 11, 10, 10, 11, 12, 13, 14, 15, 16, 17}},
      {"cpi",
       {2, 128},
       {32, 26, 21, 17, 14, 11, 9, 7, 5, 4, 3, 2, 4, 7, 12, 20}},
  };
  return kApps;
}

}  // namespace

ApplicationModelPtr make_paper_application(const std::string& name) {
  for (const auto& app : paper_apps()) {
    if (name == app.name) {
      return std::make_shared<TabulatedModel>(app.name, app.deadlines,
                                              app.times);
    }
  }
  GRIDLB_REQUIRE(false, "unknown paper application: " + name);
}

ApplicationCatalogue paper_catalogue() {
  ApplicationCatalogue catalogue;
  for (const auto& app : paper_apps()) {
    catalogue.add(make_paper_application(app.name));
  }
  return catalogue;
}

}  // namespace gridlb::pace
