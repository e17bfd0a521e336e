#include "gates/gate_library.h"

#include <array>
#include <cstdint>
#include <map>
#include <utility>

#include "util/error.h"

namespace nanoleak::gates {

namespace {

constexpr std::array<GateKind, 19> kCombinational = {
    GateKind::kInv,   GateKind::kBuf,   GateKind::kNand2, GateKind::kNand3,
    GateKind::kNand4, GateKind::kNor2,  GateKind::kNor3,  GateKind::kNor4,
    GateKind::kAnd2,  GateKind::kAnd3,  GateKind::kAnd4,  GateKind::kOr2,
    GateKind::kOr3,   GateKind::kOr4,   GateKind::kXor2,  GateKind::kXnor2,
    GateKind::kAoi21, GateKind::kOai21, GateKind::kMux2};
// truthTable() indexes its per-kind array by enum value.
static_assert(static_cast<std::size_t>(GateKind::kDff) ==
                  kCombinational.size(),
              "combinational kinds must precede kDff in GateKind");

}  // namespace

std::span<const GateKind> combinationalKinds() { return kCombinational; }

const char* toString(GateKind kind) {
  switch (kind) {
    case GateKind::kInv:
      return "INV";
    case GateKind::kBuf:
      return "BUF";
    case GateKind::kNand2:
      return "NAND2";
    case GateKind::kNand3:
      return "NAND3";
    case GateKind::kNand4:
      return "NAND4";
    case GateKind::kNor2:
      return "NOR2";
    case GateKind::kNor3:
      return "NOR3";
    case GateKind::kNor4:
      return "NOR4";
    case GateKind::kAnd2:
      return "AND2";
    case GateKind::kAnd3:
      return "AND3";
    case GateKind::kAnd4:
      return "AND4";
    case GateKind::kOr2:
      return "OR2";
    case GateKind::kOr3:
      return "OR3";
    case GateKind::kOr4:
      return "OR4";
    case GateKind::kXor2:
      return "XOR2";
    case GateKind::kXnor2:
      return "XNOR2";
    case GateKind::kAoi21:
      return "AOI21";
    case GateKind::kOai21:
      return "OAI21";
    case GateKind::kMux2:
      return "MUX2";
    case GateKind::kDff:
      return "DFF";
  }
  return "?";
}

int inputCount(GateKind kind) {
  switch (kind) {
    case GateKind::kInv:
    case GateKind::kBuf:
    case GateKind::kDff:
      return 1;
    case GateKind::kNand2:
    case GateKind::kNor2:
    case GateKind::kAnd2:
    case GateKind::kOr2:
    case GateKind::kXor2:
    case GateKind::kXnor2:
      return 2;
    case GateKind::kNand3:
    case GateKind::kNor3:
    case GateKind::kAnd3:
    case GateKind::kOr3:
    case GateKind::kAoi21:
    case GateKind::kOai21:
    case GateKind::kMux2:
      return 3;
    case GateKind::kNand4:
    case GateKind::kNor4:
    case GateKind::kAnd4:
    case GateKind::kOr4:
      return 4;
  }
  return 0;
}

bool hasTopology(GateKind kind) { return kind != GateKind::kDff; }

// --------------------------------------------------------------------------
// SwitchExpr
// --------------------------------------------------------------------------

SwitchExpr SwitchExpr::leaf(SignalRef signal) {
  SwitchExpr e;
  e.kind = Kind::kLeaf;
  e.signal = signal;
  return e;
}

SwitchExpr SwitchExpr::series(std::vector<SwitchExpr> children) {
  require(children.size() >= 1, "SwitchExpr::series: needs children");
  SwitchExpr e;
  e.kind = Kind::kSeries;
  e.children = std::move(children);
  return e;
}

SwitchExpr SwitchExpr::parallel(std::vector<SwitchExpr> children) {
  require(children.size() >= 1, "SwitchExpr::parallel: needs children");
  SwitchExpr e;
  e.kind = Kind::kParallel;
  e.children = std::move(children);
  return e;
}

SwitchExpr SwitchExpr::dual() const {
  switch (kind) {
    case Kind::kLeaf:
      return *this;
    case Kind::kSeries: {
      std::vector<SwitchExpr> duals;
      duals.reserve(children.size());
      for (const SwitchExpr& child : children) {
        duals.push_back(child.dual());
      }
      return parallel(std::move(duals));
    }
    case Kind::kParallel: {
      std::vector<SwitchExpr> duals;
      duals.reserve(children.size());
      for (const SwitchExpr& child : children) {
        duals.push_back(child.dual());
      }
      return series(std::move(duals));
    }
  }
  return *this;
}

bool SwitchExpr::conducts(std::span<const bool> inputs,
                          std::span<const bool> internals) const {
  switch (kind) {
    case Kind::kLeaf: {
      if (signal.source == SignalRef::Source::kInput) {
        require(signal.index >= 0 &&
                    static_cast<std::size_t>(signal.index) < inputs.size(),
                "SwitchExpr::conducts: input index out of range");
        return inputs[static_cast<std::size_t>(signal.index)];
      }
      require(signal.index >= 0 &&
                  static_cast<std::size_t>(signal.index) < internals.size(),
              "SwitchExpr::conducts: internal index out of range");
      return internals[static_cast<std::size_t>(signal.index)];
    }
    case Kind::kSeries:
      for (const SwitchExpr& child : children) {
        if (!child.conducts(inputs, internals)) {
          return false;
        }
      }
      return true;
    case Kind::kParallel:
      for (const SwitchExpr& child : children) {
        if (child.conducts(inputs, internals)) {
          return true;
        }
      }
      return false;
  }
  return false;
}

int SwitchExpr::switchCount() const {
  if (kind == Kind::kLeaf) {
    return 1;
  }
  int count = 0;
  for (const SwitchExpr& child : children) {
    count += child.switchCount();
  }
  return count;
}

int CellTopology::transistorCount() const {
  int count = 0;
  for (const Stage& stage : stages) {
    count += 2 * stage.pull_down.switchCount();
  }
  return count;
}

// --------------------------------------------------------------------------
// Cell registry
// --------------------------------------------------------------------------

namespace {

SwitchExpr in(int k) { return SwitchExpr::leaf(SignalRef::input(k)); }
SwitchExpr sig(int j) { return SwitchExpr::leaf(SignalRef::internal(j)); }

CellTopology makeInv() {
  CellTopology cell;
  cell.num_inputs = 1;
  cell.stages.push_back(Stage{in(0)});
  return cell;
}

CellTopology makeBuf() {
  CellTopology cell;
  cell.num_inputs = 1;
  cell.stages.push_back(Stage{in(0)});   // internal 0 = NOT a
  cell.stages.push_back(Stage{sig(0)});  // out = NOT internal = a
  return cell;
}

CellTopology makeNand(int n) {
  CellTopology cell;
  cell.num_inputs = n;
  std::vector<SwitchExpr> chain;
  for (int k = 0; k < n; ++k) {
    chain.push_back(in(k));
  }
  cell.stages.push_back(Stage{SwitchExpr::series(std::move(chain))});
  return cell;
}

CellTopology makeNor(int n) {
  CellTopology cell;
  cell.num_inputs = n;
  std::vector<SwitchExpr> bank;
  for (int k = 0; k < n; ++k) {
    bank.push_back(in(k));
  }
  cell.stages.push_back(Stage{SwitchExpr::parallel(std::move(bank))});
  return cell;
}

CellTopology makeAnd(int n) {
  CellTopology cell = makeNand(n);
  cell.stages.push_back(Stage{sig(0)});  // inverter stage
  return cell;
}

CellTopology makeOr(int n) {
  CellTopology cell = makeNor(n);
  cell.stages.push_back(Stage{sig(0)});
  return cell;
}

CellTopology makeXor() {
  // na = NOT a; nb = NOT b; out = NOT((a AND b) OR (na AND nb)) = a XOR b.
  CellTopology cell;
  cell.num_inputs = 2;
  cell.stages.push_back(Stage{in(0)});  // internal 0 = na
  cell.stages.push_back(Stage{in(1)});  // internal 1 = nb
  cell.stages.push_back(Stage{SwitchExpr::parallel(
      {SwitchExpr::series({in(0), in(1)}),
       SwitchExpr::series({sig(0), sig(1)})})});
  return cell;
}

CellTopology makeXnor() {
  // out = NOT((a AND nb) OR (na AND b)) = a XNOR b.
  CellTopology cell;
  cell.num_inputs = 2;
  cell.stages.push_back(Stage{in(0)});
  cell.stages.push_back(Stage{in(1)});
  cell.stages.push_back(Stage{SwitchExpr::parallel(
      {SwitchExpr::series({in(0), sig(1)}),
       SwitchExpr::series({sig(0), in(1)})})});
  return cell;
}

CellTopology makeAoi21() {
  // out = NOT((a AND b) OR c)
  CellTopology cell;
  cell.num_inputs = 3;
  cell.stages.push_back(Stage{SwitchExpr::parallel(
      {SwitchExpr::series({in(0), in(1)}), in(2)})});
  return cell;
}

CellTopology makeOai21() {
  // out = NOT((a OR b) AND c)
  CellTopology cell;
  cell.num_inputs = 3;
  cell.stages.push_back(Stage{SwitchExpr::series(
      {SwitchExpr::parallel({in(0), in(1)}), in(2)})});
  return cell;
}

CellTopology makeMux2() {
  // inputs: a (0), b (1), s (2); out = s ? b : a.
  // ns = NOT s; y = NOT((a AND ns) OR (b AND s)); out = NOT y.
  CellTopology cell;
  cell.num_inputs = 3;
  cell.stages.push_back(Stage{in(2)});  // internal 0 = ns
  cell.stages.push_back(Stage{SwitchExpr::parallel(
      {SwitchExpr::series({in(0), sig(0)}),
       SwitchExpr::series({in(1), in(2)})})});  // internal 1 = NOT(mux)
  cell.stages.push_back(Stage{sig(1)});         // out = mux
  return cell;
}

const std::map<GateKind, CellTopology>& registry() {
  static const std::map<GateKind, CellTopology> cells = [] {
    std::map<GateKind, CellTopology> m;
    m.emplace(GateKind::kInv, makeInv());
    m.emplace(GateKind::kBuf, makeBuf());
    m.emplace(GateKind::kNand2, makeNand(2));
    m.emplace(GateKind::kNand3, makeNand(3));
    m.emplace(GateKind::kNand4, makeNand(4));
    m.emplace(GateKind::kNor2, makeNor(2));
    m.emplace(GateKind::kNor3, makeNor(3));
    m.emplace(GateKind::kNor4, makeNor(4));
    m.emplace(GateKind::kAnd2, makeAnd(2));
    m.emplace(GateKind::kAnd3, makeAnd(3));
    m.emplace(GateKind::kAnd4, makeAnd(4));
    m.emplace(GateKind::kOr2, makeOr(2));
    m.emplace(GateKind::kOr3, makeOr(3));
    m.emplace(GateKind::kOr4, makeOr(4));
    m.emplace(GateKind::kXor2, makeXor());
    m.emplace(GateKind::kXnor2, makeXnor());
    m.emplace(GateKind::kAoi21, makeAoi21());
    m.emplace(GateKind::kOai21, makeOai21());
    m.emplace(GateKind::kMux2, makeMux2());
    return m;
  }();
  return cells;
}

}  // namespace

const CellTopology& cellTopology(GateKind kind) {
  if (!hasTopology(kind)) {
    throwError(std::string("cellTopology: ") + toString(kind) +
               " has no transistor topology");
  }
  return registry().at(kind);
}

std::vector<bool> evaluateStages(GateKind kind, std::span<const bool> inputs) {
  const CellTopology& cell = cellTopology(kind);
  if (inputs.size() != static_cast<std::size_t>(cell.num_inputs)) {
    throwError(std::string("evaluateStages: wrong input arity for ") +
               toString(kind));
  }
  // Contiguous buffer for internal signals (std::vector<bool> cannot back a
  // span); no cell has more than a handful of stages.
  std::array<bool, 32> internals{};
  require(cell.stages.size() <= internals.size(),
          "evaluateStages: too many stages");
  std::vector<bool> outputs;
  outputs.reserve(cell.stages.size());
  for (std::size_t i = 0; i < cell.stages.size(); ++i) {
    const bool conducting = cell.stages[i].pull_down.conducts(
        inputs, std::span<const bool>(internals.data(), i));
    internals[i] = !conducting;
    outputs.push_back(internals[i]);
  }
  return outputs;
}

std::uint32_t truthTable(GateKind kind) {
  static const std::array<std::uint32_t, kCombinational.size()> tables = [] {
    std::array<std::uint32_t, kCombinational.size()> t{};
    for (GateKind k : kCombinational) {
      const auto pins = static_cast<std::size_t>(inputCount(k));
      for (std::uint32_t v = 0; v < (1u << pins); ++v) {
        std::array<bool, 8> in{};
        for (std::size_t p = 0; p < pins; ++p) {
          in[p] = ((v >> p) & 1u) != 0;
        }
        if (evaluateStages(k, std::span<const bool>(in.data(), pins)).back()) {
          t[static_cast<std::size_t>(k)] |= 1u << v;
        }
      }
    }
    return t;
  }();
  if (!hasTopology(kind)) {
    throwError(std::string("truthTable: ") + toString(kind) +
               " has no combinational truth function");
  }
  return tables[static_cast<std::size_t>(kind)];
}

bool evaluateGate(GateKind kind, std::span<const bool> inputs) {
  const std::uint32_t table = truthTable(kind);
  if (inputs.size() != static_cast<std::size_t>(inputCount(kind))) {
    throwError(std::string("evaluateGate: wrong input arity for ") +
               toString(kind));
  }
  std::uint32_t index = 0;
  for (std::size_t pin = 0; pin < inputs.size(); ++pin) {
    index |= static_cast<std::uint32_t>(inputs[pin]) << pin;
  }
  return ((table >> index) & 1u) != 0;
}

}  // namespace nanoleak::gates
