// Shared flag handling for resmon_agent / resmon_controller /
// resmon_aggregator.
//
// Agents and the controller must construct the *identical* synthetic trace
// from the shared --dataset/--nodes/--steps/--seed flags: agents read their
// own node's measurements from it, the controller uses it as ground truth
// for RMSE, and aggregators size their shard from its profile. Any
// asymmetry here would silently break the bit-identical equivalence
// between the TCP path and the in-process path, so the construction lives
// in exactly one place.
#pragma once

#include <iostream>
#include <span>
#include <string>
#include <string_view>

#include "collect/fleet_collector.hpp"
#include "common/cli.hpp"
#include "net/wire.hpp"
#include "trace/synthetic.hpp"

#ifndef RESMON_VERSION
#define RESMON_VERSION "unknown"
#endif

namespace resmon::tools {

/// The "NAME VERSION (wire protocol vP)" line: printed alone for
/// --version, and as a startup banner so mismatched binaries are easy to
/// spot in mixed-version deployments.
inline std::string version_line(const std::string& name) {
  return name + " " + RESMON_VERSION + " (wire protocol v" +
         std::to_string(static_cast<int>(net::wire::kProtocolVersion)) + ")";
}

/// Handle --version: print the version line and return true (caller exits 0).
inline bool handle_version(const Args& args, const std::string& name) {
  if (!args.has("version")) return false;
  std::cout << version_line(name) << '\n' << std::flush;
  return true;
}

/// Slots the run processes (the trace is longer; see build_trace).
inline std::size_t run_slots(const Args& args) {
  return static_cast<std::size_t>(args.get_int("steps", 200));
}

/// Fleet size N (--nodes, default 8), with or without a shared trace.
inline std::size_t run_nodes(const Args& args) {
  return static_cast<std::size_t>(args.get_int("nodes", 8));
}

/// Extra trace steps beyond the processed slots so h-step-ahead forecasts
/// always have ground truth.
inline constexpr std::size_t kForecastLookahead = 8;

/// The shared trace's profile: --dataset sized to --nodes and --steps (plus
/// the lookahead). Its num_nodes and num_resources are the fleet's N and d.
inline trace::SyntheticProfile run_profile(const Args& args) {
  trace::SyntheticProfile profile =
      trace::profile_by_name(args.get("dataset", "alibaba"));
  profile.num_nodes = run_nodes(args);
  profile.num_steps = run_slots(args) + kForecastLookahead;
  return profile;
}

/// The deterministic trace both sides of the wire share.
inline trace::InMemoryTrace build_trace(const Args& args) {
  return trace::generate(run_profile(args),
                         static_cast<std::uint64_t>(args.get_int("seed", 1)));
}

/// Refuses a flag `known` does not list, as resmon's subcommands do: prints
/// "NAME: unknown flag --FLAG" and `usage` to stderr and returns false, and
/// the caller exits 2 before opening a socket.
inline bool known_flags_only(const Args& args, const std::string& name,
                             std::span<const std::string_view> known,
                             const char* usage) {
  const std::string unknown = args.first_unknown(known);
  if (unknown.empty()) return true;
  std::cerr << name << ": unknown flag --" << unknown << '\n' << usage;
  return false;
}

/// A TCP port flag (0 = ephemeral). Values above 65535 are rejected
/// rather than wrapped by the std::uint16_t cast.
inline std::uint16_t port_flag(const Args& args, const std::string& name) {
  const std::int64_t port = args.get_int(name, 0);
  if (port > 65535) {
    throw InvalidArgument("flag --" + name + ": port out of range: '" +
                          std::to_string(port) + "' (want 0-65535)");
  }
  return static_cast<std::uint16_t>(port);
}

/// One policy instance configured from the shared flags; unset flags take
/// AdaptiveOptions' paper defaults.
inline std::unique_ptr<collect::TransmitPolicy> make_policy(const Args& args) {
  const collect::AdaptiveOptions paper;
  return collect::make_policy_factory(
      collect::policy_kind_from_string(args.get("policy", "adaptive"),
                                       "flag --policy"),
      args.get_double("b", paper.max_frequency),
      {.v0 = args.get_double("v0", paper.v0),
       .gamma = args.get_double("gamma", paper.gamma),
       .clamp_queue = args.get_bool("clamp-queue")})();
}

}  // namespace resmon::tools
