#include "trace/trace.hpp"

namespace resmon::trace {

std::string resource_name(std::size_t resource) {
  switch (resource) {
    case kCpu:
      return "CPU";
    case kMemory:
      return "Memory";
    default:
      return "Resource" + std::to_string(resource);
  }
}

std::vector<double> Trace::measurement(std::size_t node, std::size_t t) const {
  std::vector<double> m(num_resources());
  for (std::size_t r = 0; r < num_resources(); ++r) {
    m[r] = value(node, t, r);
  }
  return m;
}

std::vector<double> Trace::series(std::size_t node,
                                  std::size_t resource) const {
  std::vector<double> s(num_steps());
  for (std::size_t t = 0; t < num_steps(); ++t) {
    s[t] = value(node, t, resource);
  }
  return s;
}

InMemoryTrace::InMemoryTrace(std::size_t num_nodes, std::size_t num_steps,
                             std::size_t num_resources)
    : num_nodes_(num_nodes),
      num_steps_(num_steps),
      num_resources_(num_resources),
      data_(num_nodes * num_steps * num_resources, 0.0) {
  RESMON_REQUIRE(num_nodes > 0, "trace needs at least one node");
  RESMON_REQUIRE(num_steps > 0, "trace needs at least one time step");
  RESMON_REQUIRE(num_resources > 0, "trace needs at least one resource");
}

}  // namespace resmon::trace
