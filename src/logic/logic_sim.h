// Two-valued logic simulation over a LogicNetlist ("propagate logic value
// from primary inputs to primary outputs, for input pattern I" in the
// paper's Fig. 13 flow).
//
// Besides the one-shot simulate(), the simulator offers an allocation-free
// simulateInto() for reused buffers, a bit-parallel simulateWords() that
// evaluates up to 64 patterns at once (the estimation plan's pattern
// blocks), and an event-driven simulateDelta() that re-simulates only the
// fanout cone of the source bits that changed - the building block of the
// estimation plan's incremental re-estimation.
//
// Construction compiles the netlist into topologically ordered CSR arrays
// (per-gate truth word from gates::truthTable, input nets, output net, net
// fanout as topological positions; 32-bit indices), so simulation reads no
// Gate struct and evaluates each gate with one table read.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "logic/logic_netlist.h"
#include "util/rng.h"

namespace nanoleak::logic {

/// Reusable scratch for LogicSimulator::simulateDelta (one per caller;
/// not shared between threads).
struct DeltaSimScratch {
  /// Worklist: bit p set = the gate at topological position p is pending
  /// evaluation. All zero between calls; maintained by simulateDelta.
  std::vector<std::uint64_t> pending;
};

/// Caches the topological order of a netlist and evaluates input patterns.
class LogicSimulator {
 public:
  explicit LogicSimulator(const LogicNetlist& netlist);

  /// Values for every net given values for the source nets (primary inputs
  /// followed by DFF outputs, see LogicNetlist::sourceNets()).
  std::vector<bool> simulate(const std::vector<bool>& source_values) const;

  /// Like simulate(), but writes into a caller-owned buffer (resized to
  /// the netlist's net count); no allocation once the buffer has capacity.
  void simulateInto(const std::vector<bool>& source_values,
                    std::vector<bool>& values) const;

  /// Bit-parallel simulateInto() of up to 64 patterns: bit i of
  /// words[net] is the net's value under patterns[i]; the bits from
  /// patterns.size() up hold the all-zero pattern. Resizes `words` to the
  /// net count; no allocation once it has capacity.
  void simulateWords(std::span<const std::vector<bool>> patterns,
                     std::vector<std::uint64_t>& words) const;

  /// Event-driven incremental re-simulation. `values` must hold this
  /// netlist's per-net values for some earlier source pattern (as produced
  /// by simulate()/simulateInto()); it is updated in place to match
  /// `source_values`, evaluating only gates reachable from the flipped
  /// source bits. Outputs (cleared first):
  ///  - `dirty_gates`: every gate at least one of whose input values
  ///    changed, in topological order (these are exactly the gates whose
  ///    input vector index changed);
  ///  - `changed_nets`: every net whose value flipped, each listed once.
  /// No allocation once the output vectors and `scratch` have capacity.
  void simulateDelta(const std::vector<bool>& source_values,
                     std::vector<bool>& values,
                     std::vector<GateId>& dirty_gates,
                     std::vector<NetId>& changed_nets,
                     DeltaSimScratch& scratch) const;

  /// Number of source values simulate() expects.
  std::size_t sourceCount() const { return sources_.size(); }

  /// Gates in topological order (inputs before outputs).
  const std::vector<GateId>& order() const { return order_; }

  /// Position of a gate in order() (inverse permutation).
  std::size_t topoPosition(GateId gate) const { return topo_position_[gate]; }

 private:
  void checkSourceCount(std::size_t got) const;
  /// Output of the gate at topological position `pos` for current values.
  bool evaluate(std::size_t pos, const std::vector<bool>& values) const;
  /// evaluate() on 64 patterns at once, one bit each.
  std::uint64_t evaluateWord(std::size_t pos,
                             const std::vector<std::uint64_t>& words) const;

  std::size_t net_count_ = 0;
  std::vector<GateId> order_;
  std::vector<std::size_t> topo_position_;
  std::vector<NetId> sources_;

  // Compiled gates, indexed by topological position: the inputs of the
  // gate at position p are input_net_[input_offset_[p] .. input_offset_[p
  // + 1]) in pin order; truth_[p] is gates::truthTable() of its kind.
  std::vector<std::uint32_t> truth_;
  std::vector<std::uint32_t> input_offset_;
  std::vector<std::uint32_t> input_net_;
  std::vector<std::uint32_t> output_net_;
  // Net fanout as topological positions of the reading gates: net n feeds
  // fanout_pos_[fanout_offset_[n] .. fanout_offset_[n + 1]).
  std::vector<std::uint32_t> fanout_offset_;
  std::vector<std::uint32_t> fanout_pos_;
};

/// Draws a uniform random source pattern.
std::vector<bool> randomPattern(std::size_t bits, Rng& rng);

}  // namespace nanoleak::logic
