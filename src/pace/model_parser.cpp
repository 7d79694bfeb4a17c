#include "pace/model_parser.hpp"

#include <optional>
#include <sstream>
#include <vector>

#include "common/assert.hpp"

namespace gridlb::pace {

ModelParseError::ModelParseError(const std::string& message, int line_number)
    : std::runtime_error(message + " (line " + std::to_string(line_number) +
                         ")"),
      line_(line_number) {}

namespace {

/// One application block under construction.
struct Block {
  std::string name;
  std::optional<DeadlineDomain> deadlines;
  int start_line = 0;
  // tabulated
  std::vector<double> times;
  // parametric (seconds form)
  std::optional<double> serial;
  std::optional<double> parallel;
  std::optional<double> comm_per_link;
  std::optional<double> sync;
  std::optional<int> max_procs;
  // parametric (operation-count form)
  std::optional<double> flops;
  std::optional<double> rate;            // Mflop/s per node
  std::optional<double> serial_fraction;
};

double parse_number(const std::string& token, int line) {
  std::size_t consumed = 0;
  double value = 0.0;
  try {
    value = std::stod(token, &consumed);
  } catch (const std::exception&) {
    throw ModelParseError("malformed number '" + token + "'", line);
  }
  if (consumed != token.size()) {
    throw ModelParseError("trailing junk in number '" + token + "'", line);
  }
  return value;
}

ApplicationModelPtr finish(const Block& block, int line) {
  if (block.name.empty()) {
    throw ModelParseError("application block lacks a name", block.start_line);
  }
  if (!block.deadlines) {
    throw ModelParseError("application '" + block.name +
                              "' lacks a deadline domain",
                          line);
  }
  const bool tabulated = !block.times.empty();
  const bool parametric_seconds = block.serial || block.parallel ||
                                  block.comm_per_link || block.sync;
  const bool parametric_flops =
      block.flops || block.rate || block.serial_fraction;
  if (tabulated && (parametric_seconds || parametric_flops)) {
    throw ModelParseError(
        "application '" + block.name +
            "' mixes a times table with parametric keys",
        line);
  }

  if (tabulated) {
    if (block.max_procs &&
        *block.max_procs != static_cast<int>(block.times.size())) {
      throw ModelParseError(
          "max_procs disagrees with the times table length", line);
    }
    try {
      return std::make_shared<TabulatedModel>(block.name, *block.deadlines,
                                              block.times);
    } catch (const AssertionError& error) {
      throw ModelParseError(require_message(error), line);
    }
  }

  ParametricModel::Params params;
  params.max_procs = block.max_procs.value_or(16);
  if (parametric_flops) {
    if (parametric_seconds) {
      throw ModelParseError(
          "application '" + block.name +
              "' mixes seconds-form and flops-form parametric keys",
          line);
    }
    if (!block.flops || !block.rate) {
      throw ModelParseError(
          "flops-form models need both `flops` and `rate`", line);
    }
    const double rate_flops = *block.rate * 1e6;  // Mflop/s -> flop/s
    if (rate_flops <= 0.0) {
      throw ModelParseError("`rate` must be positive", line);
    }
    const double total_seconds = *block.flops / rate_flops;
    const double fraction = block.serial_fraction.value_or(0.0);
    if (fraction < 0.0 || fraction > 1.0) {
      throw ModelParseError("`serial_fraction` must be in [0, 1]", line);
    }
    params.serial = total_seconds * fraction;
    params.parallel = total_seconds * (1.0 - fraction);
  } else if (parametric_seconds) {
    params.serial = block.serial.value_or(0.0);
    params.parallel = block.parallel.value_or(0.0);
    params.comm_per_link = block.comm_per_link.value_or(0.0);
    params.sync = block.sync.value_or(0.0);
  } else {
    throw ModelParseError("application '" + block.name +
                              "' defines neither a times table nor "
                              "parametric keys",
                          line);
  }
  try {
    return std::make_shared<ParametricModel>(block.name, *block.deadlines,
                                             params);
  } catch (const AssertionError& error) {
    throw ModelParseError(require_message(error), line);
  }
}

}  // namespace

ApplicationCatalogue parse_catalogue(std::string_view text) {
  ApplicationCatalogue catalogue;
  std::istringstream stream{std::string(text)};
  std::string raw_line;
  int line_number = 0;
  std::optional<Block> block;

  while (std::getline(stream, raw_line)) {
    ++line_number;
    // Strip comments and tokenize.
    const auto hash = raw_line.find('#');
    if (hash != std::string::npos) raw_line.erase(hash);
    std::istringstream words(raw_line);
    std::vector<std::string> tokens;
    for (std::string word; words >> word;) tokens.push_back(word);
    if (tokens.empty()) continue;
    const std::string& key = tokens[0];

    if (key == "application") {
      if (block) {
        throw ModelParseError("nested application block", line_number);
      }
      if (tokens.size() != 2) {
        throw ModelParseError("expected: application <name>", line_number);
      }
      block.emplace();
      block->name = tokens[1];
      block->start_line = line_number;
      continue;
    }
    if (!block) {
      throw ModelParseError("'" + key + "' outside an application block",
                            line_number);
    }
    if (key == "end") {
      if (tokens.size() != 1) {
        throw ModelParseError("unexpected tokens after `end`", line_number);
      }
      try {
        catalogue.add(finish(*block, line_number));
      } catch (const AssertionError& error) {
        throw ModelParseError(require_message(error), line_number);
      }
      block.reset();
      continue;
    }

    const auto one_number = [&]() {
      if (tokens.size() != 2) {
        throw ModelParseError("expected: " + key + " <value>", line_number);
      }
      return parse_number(tokens[1], line_number);
    };
    if (key == "deadline") {
      if (tokens.size() != 3) {
        throw ModelParseError("expected: deadline <lo> <hi>", line_number);
      }
      const DeadlineDomain domain{parse_number(tokens[1], line_number),
                                  parse_number(tokens[2], line_number)};
      if (!(domain.lo >= 0.0 && domain.hi >= domain.lo)) {
        throw ModelParseError("deadline domain must satisfy 0 <= lo <= hi, "
                              "got " + tokens[1] + " " + tokens[2],
                              line_number);
      }
      block->deadlines = domain;
    } else if (key == "times") {
      if (tokens.size() < 2) {
        throw ModelParseError("expected: times <t1> <t2> …", line_number);
      }
      block->times.clear();
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        block->times.push_back(parse_number(tokens[i], line_number));
      }
    } else if (key == "max_procs") {
      block->max_procs = static_cast<int>(one_number());
    } else if (key == "serial") {
      block->serial = one_number();
    } else if (key == "parallel") {
      block->parallel = one_number();
    } else if (key == "comm_per_link") {
      block->comm_per_link = one_number();
    } else if (key == "sync") {
      block->sync = one_number();
    } else if (key == "flops") {
      block->flops = one_number();
    } else if (key == "rate") {
      block->rate = one_number();
    } else if (key == "serial_fraction") {
      block->serial_fraction = one_number();
    } else {
      throw ModelParseError("unknown key '" + key + "'", line_number);
    }
  }
  if (block) {
    throw ModelParseError("unterminated application block (missing `end`)",
                          block->start_line);
  }
  if (catalogue.size() == 0) {
    throw ModelParseError("document defines no applications", line_number);
  }
  return catalogue;
}

ApplicationModelPtr parse_model(std::string_view text) {
  ApplicationCatalogue catalogue = parse_catalogue(text);
  if (catalogue.size() != 1) {
    throw ModelParseError("expected exactly one application, found " +
                              std::to_string(catalogue.size()),
                          0);
  }
  return catalogue.all().front();
}

std::string write_model(const ApplicationModel& model) {
  std::ostringstream os;
  os << "application " << model.name() << '\n';
  const DeadlineDomain domain = model.deadline_domain();
  os << "  deadline " << domain.lo << ' ' << domain.hi << '\n';
  if (const auto* parametric =
          dynamic_cast<const ParametricModel*>(&model)) {
    const ParametricModel::Params& params = parametric->params();
    os << "  max_procs " << params.max_procs << '\n';
    os << "  serial " << params.serial << '\n';
    os << "  parallel " << params.parallel << '\n';
    os << "  comm_per_link " << params.comm_per_link << '\n';
    os << "  sync " << params.sync << '\n';
  } else {
    os << "  times";
    for (int k = 1; k <= model.max_procs(); ++k) {
      os << ' ' << model.reference_time(k);
    }
    os << '\n';
  }
  os << "end\n";
  return os.str();
}

}  // namespace gridlb::pace
