#include "scenario/scenario_spec.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/parse.hpp"

namespace resmon::scenario {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (std::isspace(static_cast<unsigned char>(s[b])) != 0)) ++b;
  while (e > b && (std::isspace(static_cast<unsigned char>(s[e - 1])) != 0)) {
    --e;
  }
  return s.substr(b, e - b);
}

/// Strip a trailing '# comment' (a '#' not inside a quoted string).
std::string strip_comment(const std::string& line) {
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '"') quoted = !quoted;
    if (line[i] == '#' && !quoted) return line.substr(0, i);
  }
  return line;
}

/// Parse "NODE:SLOT" for churn events.
ChurnEvent parse_churn(const std::string& value, bool restart,
                       const std::string& context) {
  const std::size_t colon = value.find(':');
  if (colon == std::string::npos) {
    throw InvalidArgument(context + ": churn events are NODE:SLOT, got '" +
                          value + "'");
  }
  ChurnEvent ev;
  ev.node = parse_size(context + " node", value.substr(0, colon));
  ev.slot = parse_size(context + " slot", value.substr(colon + 1));
  ev.restart = restart;
  return ev;
}

/// Parse a metric reference `family` or `family{k=v,k2="v2"}` into a name
/// plus a Labels set. Label values may be quoted or bare.
void parse_metric_ref(const std::string& text, Assertion& out,
                      const std::string& context) {
  const std::size_t brace = text.find('{');
  if (brace == std::string::npos) {
    out.metric = text;
  } else {
    if (text.back() != '}') {
      throw InvalidArgument(context + ": unterminated label set in '" + text +
                            "'");
    }
    out.metric = text.substr(0, brace);
    const std::string body = text.substr(brace + 1, text.size() - brace - 2);
    std::istringstream labels(body);
    std::string pair;
    while (std::getline(labels, pair, ',')) {
      const std::size_t eq = pair.find('=');
      if (eq == std::string::npos) {
        throw InvalidArgument(context + ": label '" + pair +
                              "' is not key=value");
      }
      std::string key = trim(pair.substr(0, eq));
      std::string value = trim(pair.substr(eq + 1));
      if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
        value = value.substr(1, value.size() - 2);
      }
      if (key.empty()) {
        throw InvalidArgument(context + ": empty label key in '" + pair + "'");
      }
      out.labels.emplace_back(std::move(key), std::move(value));
    }
  }
  if (out.metric.empty()) {
    throw InvalidArgument(context + ": empty metric name");
  }
}

Assertion parse_assertion(const std::string& line, const std::string& context) {
  // Tokenize on whitespace; the first token is the metric reference.
  std::istringstream ss(line);
  std::vector<std::string> tok;
  std::string t;
  while (ss >> t) tok.push_back(t);
  if (tok.size() < 2) {
    throw InvalidArgument(context + ": assertion needs a metric and an "
                          "operator: '" + line + "'");
  }
  Assertion a;
  a.raw = line;
  parse_metric_ref(tok[0], a, context);

  const std::string& op = tok[1];
  if (op == "nondecreasing" || op == "nonincreasing") {
    a.kind = Assertion::Kind::kMonotonic;
    a.increasing = op == "nondecreasing";
    if (tok.size() == 2) return a;
    if (tok.size() == 4 && tok[2] == "slack") {
      a.slack = parse_double(context + " slack", tok[3]);
      return a;
    }
    throw InvalidArgument(context + ": monotonic assertion is 'METRIC " + op +
                          " [slack S]': '" + line + "'");
  }
  if (op == "in") {
    // METRIC in CENTER +- TOL
    if (tok.size() != 5 || tok[3] != "+-") {
      throw InvalidArgument(context +
                            ": band assertion is 'METRIC in CENTER +- TOL': "
                            "'" + line + "'");
    }
    a.kind = Assertion::Kind::kBand;
    a.value = parse_double(context + " center", tok[2]);
    a.tolerance = parse_double(context + " tolerance", tok[4]);
    if (a.tolerance < 0) {
      throw InvalidArgument(context + ": negative tolerance in '" + line +
                            "'");
    }
    return a;
  }
  static const std::vector<std::pair<std::string, Assertion::Op>> kOps = {
      {"==", Assertion::Op::kEq}, {"!=", Assertion::Op::kNe},
      {"<=", Assertion::Op::kLe}, {">=", Assertion::Op::kGe},
      {"<", Assertion::Op::kLt},  {">", Assertion::Op::kGt}};
  const auto it =
      std::find_if(kOps.begin(), kOps.end(),
                   [&](const auto& kv) { return kv.first == op; });
  if (it == kOps.end() || tok.size() != 3) {
    throw InvalidArgument(context + ": expected 'METRIC <op> VALUE' with op "
                          "one of == != <= >= < > in nondecreasing "
                          "nonincreasing: '" + line + "'");
  }
  a.kind = Assertion::Kind::kCompare;
  a.op = it->second;
  a.value = parse_double(context + " threshold", tok[2]);
  return a;
}

}  // namespace

std::string Assertion::series_key() const {
  return metric + obs::MetricsRegistry::render_labels(labels);
}

void apply_profile_override(trace::SyntheticProfile& profile,
                            const std::string& key, double value,
                            const std::string& context) {
  // Enumerated on purpose: every overridable knob is named here, so a typo
  // in a pack is a parse error instead of a silently ignored key.
  if (key == "groups") {
    profile.num_groups = static_cast<std::size_t>(value);
  } else if (key == "resources") {
    profile.num_resources = static_cast<std::size_t>(value);
  } else if (key == "diurnal_period") {
    profile.diurnal_period = value;
  } else if (key == "weekend_dampening") {
    profile.weekend_dampening = value;
  } else if (key == "spike_probability") {
    profile.spike_probability = value;
  } else if (key == "spike_magnitude") {
    profile.spike_magnitude = value;
  } else if (key == "regime_switch_probability") {
    profile.regime_switch_probability = value;
  } else if (key == "group_jump_probability") {
    profile.group_jump_probability = value;
  } else if (key == "group_jump_std") {
    profile.group_jump_std = value;
  } else if (key == "volatility_active") {
    profile.volatility_active = value;
  } else if (key == "volatility_switch_probability") {
    profile.volatility_switch_probability = value;
  } else if (key == "node_noise_std") {
    profile.node_noise_std = value;
  } else {
    throw InvalidArgument(context + ": '" + key +
                          "' is not an overridable profile knob");
  }
}

ScenarioSpec ScenarioSpec::parse(std::istream& in, const std::string& origin) {
  ScenarioSpec spec;
  bool saw_controller = false;
  bool saw_horizons = false;
  std::string section;  // "" = top level
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    line = trim(strip_comment(line));
    if (line.empty()) continue;
    const std::string context =
        origin + ":" + std::to_string(line_no);

    if (line.front() == '[') {
      if (line.back() != ']') {
        throw InvalidArgument(context + ": unterminated section header '" +
                              line + "'");
      }
      section = line.substr(1, line.size() - 2);
      static const std::vector<std::string> kSections = {
          "trace", "pipeline", "faults", "controller", "topology", "churn",
          "run", "assert"};
      if (std::find(kSections.begin(), kSections.end(), section) ==
          kSections.end()) {
        throw InvalidArgument(context + ": unknown section [" + section + "]");
      }
      if (section == "controller") saw_controller = true;
      continue;
    }

    if (section == "assert") {
      spec.assertions.push_back(parse_assertion(line, context));
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      throw InvalidArgument(context + ": expected 'key = value', got '" +
                            line + "'");
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty() || value.empty()) {
      throw InvalidArgument(context + ": empty key or value in '" + line +
                            "'");
    }

    if (section.empty()) {
      if (key == "name") {
        spec.name = value;
      } else if (key == "description") {
        spec.description = value;
      } else {
        throw InvalidArgument(context + ": unknown top-level key '" + key +
                              "' (want name or description)");
      }
    } else if (section == "trace") {
      if (key == "profile") {
        spec.profile = value;
      } else if (key == "nodes") {
        spec.nodes = parse_size(context, value);
      } else if (key == "steps") {
        spec.steps = parse_size(context, value);
      } else if (key == "seed") {
        spec.trace_seed = parse_size(context, value);
      } else {
        // Everything else must be an enumerated profile override; validate
        // the key now against a scratch profile so bad keys fail at parse
        // time, not at run time.
        const double v = parse_double(context, value);
        trace::SyntheticProfile scratch;
        apply_profile_override(scratch, key, v, context);
        spec.profile_overrides.emplace_back(key, v);
      }
    } else if (section == "pipeline") {
      if (key == "policy") {
        spec.policy = collect::policy_kind_from_string(value, context);
      } else if (key == "b") {
        spec.max_frequency = parse_double(context, value);
      } else if (key == "k") {
        spec.num_clusters = parse_size(context, value);
      } else if (key == "model") {
        spec.model = forecast::forecaster_kind_from_string(value, context);
      } else if (key == "initial") {
        spec.initial_steps = parse_size(context, value);
      } else if (key == "retrain") {
        spec.retrain_interval = parse_size(context, value);
      } else if (key == "temporal_window") {
        spec.temporal_window = parse_size(context, value);
      } else if (key == "threads") {
        spec.threads = parse_size(context, value);
      } else if (key == "seed") {
        spec.pipeline_seed = parse_size(context, value);
      } else {
        throw InvalidArgument(context + ": unknown [pipeline] key '" + key +
                              "'");
      }
    } else if (section == "faults") {
      if (key == "spec") {
        spec.faults = faultnet::FaultSpec::parse(value);
      } else {
        throw InvalidArgument(context + ": unknown [faults] key '" + key +
                              "' (want spec)");
      }
    } else if (section == "controller") {
      if (key == "stale_after_slots") {
        spec.stale_after_slots = parse_size(context, value);
      } else if (key == "dead_after_slots") {
        spec.dead_after_slots = parse_size(context, value);
      } else {
        throw InvalidArgument(context + ": unknown [controller] key '" + key +
                              "'");
      }
    } else if (section == "topology") {
      if (key == "shards") {
        spec.shards = parse_size(context, value);
      } else {
        throw InvalidArgument(context + ": unknown [topology] key '" + key +
                              "' (want shards)");
      }
    } else if (section == "churn") {
      if (key == "kill") {
        spec.churn.push_back(parse_churn(value, /*restart=*/false, context));
      } else if (key == "restart") {
        spec.churn.push_back(parse_churn(value, /*restart=*/true, context));
      } else {
        throw InvalidArgument(context + ": unknown [churn] key '" + key +
                              "' (want kill or restart)");
      }
    } else if (section == "run") {
      if (key == "steps") {
        spec.run_steps = parse_size(context, value);
      } else if (key == "horizons") {
        spec.horizons.clear();
        std::istringstream hs(value);
        std::string h;
        while (std::getline(hs, h, ',')) {
          spec.horizons.push_back(parse_size(context + " horizon", trim(h)));
        }
        if (spec.horizons.empty()) {
          throw InvalidArgument(context + ": horizons list is empty");
        }
        saw_horizons = true;
      } else if (key == "sample_every") {
        spec.sample_every = parse_size(context, value);
      } else if (key == "baseline_compare") {
        spec.baseline_compare = parse_bool(context, value);
      } else {
        throw InvalidArgument(context + ": unknown [run] key '" + key + "'");
      }
    }
  }

  spec.socket_mode = saw_controller;
  if (spec.name.empty()) {
    throw InvalidArgument(origin + ": scenario has no 'name ='");
  }
  if (spec.sample_every == 0) {
    throw InvalidArgument(origin + ": sample_every must be >= 1");
  }
  if (!spec.churn.empty() && !spec.socket_mode) {
    throw InvalidArgument(origin +
                          ": [churn] requires a [controller] section");
  }
  if (spec.socket_mode && spec.stale_after_slots == 0) {
    throw InvalidArgument(origin +
                          ": [controller] needs stale_after_slots >= 1");
  }
  if (spec.socket_mode && spec.dead_after_slots != 0 &&
      spec.dead_after_slots < spec.stale_after_slots) {
    throw InvalidArgument(origin +
                          ": dead_after_slots must be >= stale_after_slots");
  }
  if (spec.socket_mode && !spec.faults.empty()) {
    throw InvalidArgument(origin +
                          ": [faults] applies to the in-process link; use "
                          "[churn] in socket mode");
  }
  if (spec.shards > 0 && !spec.socket_mode) {
    throw InvalidArgument(origin +
                          ": shards requires a [controller] section");
  }
  // In socket mode the fault-free twin only exists for two-tier scenarios,
  // where it is the single-tier fleet the bit-identity invariant compares
  // against.
  if (spec.socket_mode && spec.baseline_compare && spec.shards == 0) {
    throw InvalidArgument(origin +
                          ": baseline_compare in socket mode requires "
                          "shards >= 1 (it runs the single-tier twin)");
  }
  // A restart only makes sense after a kill of the same node.
  for (const ChurnEvent& ev : spec.churn) {
    if (!ev.restart) continue;
    const bool killed_before = std::any_of(
        spec.churn.begin(), spec.churn.end(), [&](const ChurnEvent& k) {
          return !k.restart && k.node == ev.node && k.slot < ev.slot;
        });
    if (!killed_before) {
      throw InvalidArgument(origin + ": restart of node " +
                            std::to_string(ev.node) +
                            " has no earlier kill");
    }
  }
  if (!saw_horizons && spec.socket_mode) {
    // Socket scenarios default to short-horizon scoring only.
    spec.horizons = {1};
  }
  return spec;
}

ScenarioSpec ScenarioSpec::parse_string(const std::string& text,
                                        const std::string& origin) {
  std::istringstream in(text);
  return parse(in, origin);
}

ScenarioSpec ScenarioSpec::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw InvalidArgument("scenario: cannot open " + path);
  }
  return parse(in, path);
}

}  // namespace resmon::scenario
