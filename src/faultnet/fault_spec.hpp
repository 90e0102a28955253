// FaultSpec: the seeded, declarative fault schedule of resmon::faultnet.
//
// One spec describes every fault the chaos harness can inject into the
// uplink — per-frame probabilistic faults (drop, duplicate, corrupt-bytes,
// delay, reorder) and slot-window faults (stall = half-open silence,
// partition = connection severed and unreachable). The same spec drives
// every injection point: FaultyLink for in-process pipelines,
// AgentFaultHook for the real TCP agent, and controller_block_hook for
// controller-side partitions. All randomness is derived by hashing
// (seed, node, step, fault-kind), never from shared RNG state, so a given
// spec produces the identical fault realization regardless of process
// interleaving, thread count, or call order — the property the chaos-soak
// CI job keys on.
//
// Textual grammar (the --fault-spec flag; clauses separated by ';'):
//
//   drop=P            drop each frame with probability P
//   dup=P             deliver each frame twice with probability P
//   corrupt=P         flip one payload byte with probability P (the frame
//                     then fails its CRC-32 check at the receiver)
//   delay=P:K         with probability P, delay a frame by 1..K slots
//   reorder=P         shuffle a delivered batch with probability P
//                     (link-level only; a TCP stream cannot reorder)
//   stall=A-B         slots [A, B] inclusive: hold all traffic, flush
//                     after the window (half-open connection)
//   partition=A-B     slots [A, B] inclusive: traffic is lost and the
//                     connection is severed; reconnects fail
//   nodes=1,3,5       restrict every fault to these node ids (default all)
//   seed=S            fault-hash seed (default 1)
//
// `stall` and `partition` may repeat to schedule several windows. An empty
// string parses to the empty spec (no faults).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace resmon::faultnet {

/// One inclusive slot window [from, to].
struct SlotWindow {
  std::size_t from = 0;
  std::size_t to = 0;

  bool contains(std::size_t step) const { return step >= from && step <= to; }
  bool operator==(const SlotWindow&) const = default;
};

/// Parsed fault schedule. Default-constructed = no faults.
struct FaultSpec {
  double drop = 0.0;       ///< per-frame drop probability
  double duplicate = 0.0;  ///< per-frame duplication probability
  double corrupt = 0.0;    ///< per-frame byte-corruption probability
  double reorder = 0.0;    ///< per-batch shuffle probability (link level)
  double delay = 0.0;      ///< per-frame delay probability
  std::size_t max_delay_slots = 0;  ///< K of delay=P:K (uniform in [1, K])
  std::vector<SlotWindow> stalls;
  std::vector<SlotWindow> partitions;
  /// Node ids the faults apply to; empty = every node.
  std::vector<std::size_t> nodes;
  std::uint64_t seed = 1;

  /// Parse the --fault-spec grammar documented above. Throws
  /// InvalidArgument naming the offending clause on any syntax error,
  /// probability outside [0,1], or inverted window.
  static FaultSpec parse(const std::string& text);

  /// Canonical textual form (round-trips through parse()).
  std::string to_string() const;

  /// True when the spec injects nothing at all.
  bool empty() const;

  /// True when the spec's faults target `node` (the nodes= filter).
  bool applies_to(std::size_t node) const;

  /// True when `step` falls inside any stall window.
  bool stalled_at(std::size_t step) const;

  /// True when `step` falls inside any partition window.
  bool partitioned_at(std::size_t step) const;

  bool operator==(const FaultSpec&) const = default;
};

}  // namespace resmon::faultnet
