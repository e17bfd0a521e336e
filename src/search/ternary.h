/// @file
/// Three-valued (0/1/unknown) circuit propagation with an assignment trail.
///
/// The branch-and-bound optimizer assigns source nets (primary inputs and
/// DFF outputs) one at a time; TernaryPropagator maintains, incrementally,
/// every net value those partial assignments already imply. A gate output
/// becomes known as soon as the known subset of its input pins forces one
/// logic level over all completions of the unknown pins (a controlling
/// value on a NAND pin, for example, fixes the output long before the
/// remaining pins are assigned).
///
/// The propagator mirrors a SAT solver's assignment trail: assign() opens
/// a decision level and records each net that transitions unknown -> known,
/// and backtrack() undoes exactly the latest level. Propagation is monotone
/// (values only ever move unknown -> known within a level, and an implied
/// value can never be contradicted by later decisions), which is what makes
/// the trail a complete undo log.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "gates/gate_library.h"
#include "logic/logic_netlist.h"

namespace nanoleak::search {

/// One net's three-valued logic level.
enum class Ternary : unsigned char {
  kFalse = 0,
  kTrue = 1,
  kUnknown = 2,
};

/// Incremental three-valued simulation of a LogicNetlist under a growing
/// partial source assignment.
///
/// The netlist must outlive the propagator and stay unmodified. One
/// propagator belongs to one search; it is not thread-safe (searches on
/// different threads each build their own).
class TernaryPropagator {
 public:
  /// Compiles propagation structures for `netlist` (validated, acyclic).
  explicit TernaryPropagator(const logic::LogicNetlist& netlist);

  /// Number of assignable sources (primary inputs then DFF outputs, the
  /// same ordering EstimationPlan::estimate() expects).
  std::size_t sourceCount() const { return sources_.size(); }
  /// Number of decision levels currently on the trail.
  std::size_t level() const { return level_start_.size(); }
  /// Current three-valued level of a net.
  Ternary value(logic::NetId net) const { return value_[net]; }
  /// True when source `s` has been assigned at some open level.
  bool sourceAssigned(std::size_t s) const {
    return value_[sources_[s]] != Ternary::kUnknown;
  }

  /// Opens a decision level: assigns source `s` (currently unknown) to
  /// `v` and propagates every implied gate output.
  void assign(std::size_t s, bool v);
  /// Undoes the latest decision level (requires level() > 0).
  void backtrack();

  /// Nets set unknown -> known by the latest assign(), in propagation
  /// order (the decision net first). Valid until the next assign() or
  /// backtrack().
  std::span<const logic::NetId> lastImplied() const;

  /// Bitmask over input-vector indices of gate `g` consistent with the
  /// current net knowledge (bit v set = vector v still possible). Never
  /// zero; a singleton once all input pins are known.
  std::uint32_t possibleVectors(logic::GateId g) const;

 private:
  void enqueueFanout(logic::NetId net);
  /// Re-evaluates gate `g`; records its output on the trail when the
  /// possible vectors now agree on one level.
  void evaluateGate(logic::GateId g);

  const logic::LogicNetlist& netlist_;
  std::vector<logic::NetId> sources_;
  std::vector<Ternary> value_;
  std::vector<std::uint32_t> truth_;     // per gate, gates::truthTable()
  std::vector<std::size_t> topo_pos_;    // per gate, topological position
  std::vector<logic::GateId> topo_gate_;  // inverse of topo_pos_

  // Assignment trail: nets set at each level; level_start_[l] indexes the
  // first trail entry of level l.
  std::vector<logic::NetId> trail_;
  std::vector<std::size_t> level_start_;

  // Propagation worklist: binary min-heap of topological positions with a
  // queued flag per gate (the simulateDelta idiom), so gates re-evaluate
  // in dependency order and at most once per wave.
  std::vector<std::size_t> heap_;
  std::vector<char> queued_;
};

}  // namespace nanoleak::search
