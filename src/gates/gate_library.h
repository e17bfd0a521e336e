// Static CMOS standard-cell library.
//
// Every cell is described by one or more stages; each stage is a switch
// expression (series/parallel tree of input or internal signals) that forms
// the NMOS pull-down network, with the PMOS pull-up generated as its dual.
// The same expression tree supplies the cell's truth function, so logic
// simulation and transistor topology can never disagree.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace nanoleak::gates {

/// Cell kinds available to logic netlists.
///
/// kDff is a sequential boundary element: it has no transistor topology
/// here; the logic layer treats its D pin as a pseudo primary output and
/// its Q pin as a pseudo primary input (the paper does the same for the
/// ISCAS89 circuits).
enum class GateKind {
  kInv,
  kBuf,
  kNand2,
  kNand3,
  kNand4,
  kNor2,
  kNor3,
  kNor4,
  kAnd2,
  kAnd3,
  kAnd4,
  kOr2,
  kOr3,
  kOr4,
  kXor2,
  kXnor2,
  kAoi21,
  kOai21,
  kMux2,
  kDff,
};

/// All combinational kinds (everything except kDff).
std::span<const GateKind> combinationalKinds();

const char* toString(GateKind kind);

/// Number of input pins of the cell (kMux2: in0, in1, select).
int inputCount(GateKind kind);

/// True for kinds with a transistor topology (everything except kDff).
bool hasTopology(GateKind kind);

// ---------------------------------------------------------------------------
// Switch-network description.
// ---------------------------------------------------------------------------

/// Reference to a signal inside a cell: an external input pin or the output
/// of an earlier internal stage.
struct SignalRef {
  enum class Source { kInput, kInternal };
  Source source = Source::kInput;
  int index = 0;

  static SignalRef input(int index) {
    return SignalRef{Source::kInput, index};
  }
  static SignalRef internal(int index) {
    return SignalRef{Source::kInternal, index};
  }
};

/// Series/parallel switch expression over signals.
struct SwitchExpr {
  enum class Kind { kLeaf, kSeries, kParallel };
  Kind kind = Kind::kLeaf;
  SignalRef signal;                  // kLeaf only
  std::vector<SwitchExpr> children;  // kSeries / kParallel

  static SwitchExpr leaf(SignalRef signal);
  static SwitchExpr series(std::vector<SwitchExpr> children);
  static SwitchExpr parallel(std::vector<SwitchExpr> children);

  /// Structural dual: series <-> parallel (yields the PMOS network).
  SwitchExpr dual() const;

  /// True if the network conducts for the given signal values.
  bool conducts(std::span<const bool> inputs,
                std::span<const bool> internals) const;

  /// Number of switches (transistors) in the network.
  int switchCount() const;
};

/// One static CMOS stage: out = NOT(pull-down conducts).
struct Stage {
  SwitchExpr pull_down;
};

/// A cell: stages evaluated in order; stage i drives internal signal i;
/// the last stage drives the cell's output pin.
struct CellTopology {
  int num_inputs = 0;
  std::vector<Stage> stages;

  /// Transistors in the full cell (pull-down + dual pull-up per stage).
  int transistorCount() const;
};

/// Topology of a cell kind; requires hasTopology(kind).
const CellTopology& cellTopology(GateKind kind);

/// Truth table of a combinational kind: bit v holds the cell output for
/// input vector v (pin k's value in bit k of v, matching
/// core::vectorIndex()). Derived once per kind from the switch networks
/// (evaluateStages), so logic simulation and transistor topology still
/// cannot disagree. Throws nanoleak::Error for kDff.
std::uint32_t truthTable(GateKind kind);

/// Truth function of the cell: a read of truthTable(kind).
/// `inputs.size()` must equal inputCount(kind).
bool evaluateGate(GateKind kind, std::span<const bool> inputs);

/// Evaluates all stage outputs (internal signals); last entry is the cell
/// output. Used for seeding DC solves with logic levels.
std::vector<bool> evaluateStages(GateKind kind, std::span<const bool> inputs);

}  // namespace nanoleak::gates
