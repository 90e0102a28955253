#include "faultnet/fault_spec.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "common/parse.hpp"

namespace resmon::faultnet {

namespace {

std::string context(const std::string& clause) {
  return "fault-spec clause '" + clause + "'";
}

[[noreturn]] void bad_clause(const std::string& clause,
                             const std::string& why) {
  throw InvalidArgument(context(clause) + ": " + why);
}

double parse_probability(const std::string& clause, const std::string& text) {
  const double p = parse_double(context(clause), text);
  if (p < 0.0 || p > 1.0) bad_clause(clause, "probability must be in [0,1]");
  return p;
}

std::size_t parse_count(const std::string& clause, const std::string& text) {
  return parse_size(context(clause), text);
}

SlotWindow parse_window(const std::string& clause, const std::string& text) {
  const std::size_t dash = text.find('-');
  if (dash == std::string::npos) {
    bad_clause(clause, "expected a slot window FROM-TO");
  }
  SlotWindow w{.from = parse_count(clause, text.substr(0, dash)),
               .to = parse_count(clause, text.substr(dash + 1))};
  if (w.from > w.to) bad_clause(clause, "window is inverted (FROM > TO)");
  return w;
}

}  // namespace

FaultSpec FaultSpec::parse(const std::string& text) {
  FaultSpec spec;
  std::stringstream in(text);
  std::string clause;
  while (std::getline(in, clause, ';')) {
    if (clause.empty()) continue;
    const std::size_t eq = clause.find('=');
    if (eq == std::string::npos || eq == 0) {
      bad_clause(clause, "expected KEY=VALUE");
    }
    const std::string key = clause.substr(0, eq);
    const std::string value = clause.substr(eq + 1);
    if (key == "drop") {
      spec.drop = parse_probability(clause, value);
    } else if (key == "dup") {
      spec.duplicate = parse_probability(clause, value);
    } else if (key == "corrupt") {
      spec.corrupt = parse_probability(clause, value);
    } else if (key == "reorder") {
      spec.reorder = parse_probability(clause, value);
    } else if (key == "delay") {
      const std::size_t colon = value.find(':');
      if (colon == std::string::npos) {
        bad_clause(clause, "expected delay=P:MAX_SLOTS");
      }
      spec.delay = parse_probability(clause, value.substr(0, colon));
      spec.max_delay_slots = parse_count(clause, value.substr(colon + 1));
      if (spec.delay > 0.0 && spec.max_delay_slots == 0) {
        bad_clause(clause, "delay needs MAX_SLOTS >= 1");
      }
    } else if (key == "stall") {
      spec.stalls.push_back(parse_window(clause, value));
    } else if (key == "partition") {
      spec.partitions.push_back(parse_window(clause, value));
    } else if (key == "nodes") {
      std::stringstream list(value);
      std::string id;
      while (std::getline(list, id, ',')) {
        if (id.empty()) bad_clause(clause, "empty node id");
        spec.nodes.push_back(parse_count(clause, id));
      }
      if (spec.nodes.empty()) bad_clause(clause, "empty node list");
    } else if (key == "seed") {
      spec.seed = static_cast<std::uint64_t>(parse_count(clause, value));
    } else {
      bad_clause(clause, "unknown key");
    }
  }
  return spec;
}

std::string FaultSpec::to_string() const {
  std::ostringstream out;
  const char* sep = "";
  auto emit = [&](const std::string& clause) {
    out << sep << clause;
    sep = ";";
  };
  auto prob = [](double p) {
    std::ostringstream s;
    s << p;
    return s.str();
  };
  if (drop > 0.0) emit("drop=" + prob(drop));
  if (duplicate > 0.0) emit("dup=" + prob(duplicate));
  if (corrupt > 0.0) emit("corrupt=" + prob(corrupt));
  if (reorder > 0.0) emit("reorder=" + prob(reorder));
  if (delay > 0.0) {
    emit("delay=" + prob(delay) + ":" + std::to_string(max_delay_slots));
  }
  for (const SlotWindow& w : stalls) {
    emit("stall=" + std::to_string(w.from) + "-" + std::to_string(w.to));
  }
  for (const SlotWindow& w : partitions) {
    emit("partition=" + std::to_string(w.from) + "-" + std::to_string(w.to));
  }
  if (!nodes.empty()) {
    std::string list = "nodes=";
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (i > 0) list += ",";
      list += std::to_string(nodes[i]);
    }
    emit(list);
  }
  if (seed != 1) emit("seed=" + std::to_string(seed));
  return out.str();
}

bool FaultSpec::empty() const {
  return drop == 0.0 && duplicate == 0.0 && corrupt == 0.0 &&
         reorder == 0.0 && delay == 0.0 && stalls.empty() &&
         partitions.empty();
}

bool FaultSpec::applies_to(std::size_t node) const {
  return nodes.empty() ||
         std::find(nodes.begin(), nodes.end(), node) != nodes.end();
}

bool FaultSpec::stalled_at(std::size_t step) const {
  return std::any_of(stalls.begin(), stalls.end(),
                     [&](const SlotWindow& w) { return w.contains(step); });
}

bool FaultSpec::partitioned_at(std::size_t step) const {
  return std::any_of(partitions.begin(), partitions.end(),
                     [&](const SlotWindow& w) { return w.contains(step); });
}

}  // namespace resmon::faultnet
