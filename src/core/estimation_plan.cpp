#include "core/estimation_plan.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>

#include "obs/metrics.h"
#include "util/error.h"

namespace nanoleak::core {

using logic::DriverKind;
using logic::GateId;
using logic::NetId;

namespace {

/// Full evaluation is cheaper than the incremental bookkeeping once this
/// fraction of the gates is dirty.
constexpr std::size_t kDeltaFallbackNum = 1;
constexpr std::size_t kDeltaFallbackDen = 4;

/// Evaluation-path counters, one count per pattern: which path each
/// estimateDelta() call took, plus estimate.cold for direct estimate()
/// calls and estimate.blocked for patterns the block kernel evaluated.
struct EstimateMetrics {
  obs::Counter cold = obs::counter("estimate.cold");
  obs::Counter unchanged = obs::counter("estimate.unchanged");
  obs::Counter fallback_full = obs::counter("estimate.fallback_full");
  obs::Counter incremental = obs::counter("estimate.incremental");
  obs::Counter blocked = obs::counter("estimate.blocked");
};

const EstimateMetrics& estimateMetrics() {
  static const EstimateMetrics m;
  return m;
}

/// Byte i of kSpreadBits[b] is bit i of b: one pin's block value byte
/// turned into that pin's bit of every pattern's vector index.
static_assert(kBlockPatterns == 8, "one byte of pin values per block");
constexpr std::array<std::uint64_t, 256> kSpreadBits = [] {
  std::array<std::uint64_t, 256> spread{};
  for (std::uint64_t b = 0; b < 256; ++b) {
    for (std::size_t i = 0; i < 8; ++i) {
      spread[b] |= ((b >> i) & 1) << (8 * i);
    }
  }
  return spread;
}();

/// Gates per tile of estimateBlock()'s second pass: 160 KB of per-gate
/// results per pattern, eight patterns' worth within a core's L2.
constexpr logic::GateId kTileGates = 4096;

/// Pattern i's vector index from a gate's packed block indices.
std::uint32_t blockVector(std::uint64_t vectors, std::size_t i) {
  return static_cast<std::uint32_t>((vectors >> (8 * i)) & 0xff);
}

/// The order-free sums of a breakdown's three components.
using LeakageSum = util::OrderFreeSum<3>;

/// A breakdown as the values LeakageSum adds, and back.
std::array<double, 3> components(const device::LeakageBreakdown& leakage) {
  return {leakage.subthreshold, leakage.gate, leakage.btbt};
}
device::LeakageBreakdown breakdown(const std::array<double, 3>& sum) {
  return {sum[0], sum[1], sum[2]};
}

/// Leakage cells must be below this magnitude [A]: interpolated leakage
/// then stays within the order-free sum's range (|v| <= 2).
constexpr double kMaxLeakageCell = 1.0;

/// Why an estimate with or without loading cannot read `table`, or null:
/// a value the plan copies (the nominal pin currents, axis points and
/// cells with loading, the isolated nominal without) that is not finite,
/// or a leakage cell of kMaxLeakageCell or more in magnitude.
const char* tableFault(const VectorTable& table, bool with_loading) {
  const std::array<double, 3> isolated = components(table.isolated_nominal);
  std::array<std::span<const double>, 3> cells = {isolated};
  std::array<std::span<const double>, 3> others = {};
  if (with_loading) {
    cells = {table.subthreshold.values(), table.gate.values(),
             table.btbt.values()};
    others = {table.pin_current, table.il_axis.points(),
              table.ol_axis.points()};
  }
  const auto all = [](std::span<const double> values, auto predicate) {
    return std::all_of(values.begin(), values.end(), predicate);
  };
  const auto finite = [](double x) { return std::isfinite(x); };
  for (const auto& group : {cells, others}) {
    for (std::span<const double> values : group) {
      if (!all(values, finite)) {
        return "holds a non-finite value";
      }
    }
  }
  for (std::span<const double> values : cells) {
    if (!all(values, [](double x) { return std::abs(x) < kMaxLeakageCell; })) {
      return "holds a leakage cell of 1 A or more";
    }
  }
  return nullptr;
}

}  // namespace

bool favoursBlocks(std::span<const std::vector<bool>> patterns) {
  if (patterns.size() < 2) {
    return true;
  }
  const std::size_t bits = patterns[0].size();
  const std::size_t needed =
      (patterns.size() - 1) * bits * kDeltaFallbackNum;
  std::size_t changed = 0;
  for (std::size_t i = 1; i < patterns.size(); ++i) {
    if (patterns[i].size() != bits) {
      return false;
    }
    for (std::size_t b = 0; b < bits; ++b) {
      changed += patterns[i][b] != patterns[i - 1][b] ? 1 : 0;
    }
    if (changed * kDeltaFallbackDen >= needed) {
      return true;
    }
  }
  return false;
}

std::vector<gates::GateKind> estimationKinds(
    const logic::LogicNetlist& netlist) {
  // std::set iterates in enum order, making the result order stable.
  std::set<gates::GateKind> kinds;
  for (const logic::Gate& gate : netlist.gates()) {
    kinds.insert(gate.kind);
  }
  if (!netlist.dffs().empty()) {
    kinds.insert(gates::GateKind::kInv);
  }
  return {kinds.begin(), kinds.end()};
}

EstimationPlan::EstimationPlan(const logic::LogicNetlist& netlist,
                               const LeakageLibrary& library,
                               EstimatorOptions options)
    : netlist_(netlist),
      library_(library),
      options_(options),
      gate_count_(netlist.gateCount()),
      net_count_(netlist.netCount()),
      simulator_(netlist) {
  std::size_t pin_count = 0;
  for (const logic::Gate& gate : netlist_.gates()) {
    pin_count += gate.inputs.size();
  }
  require(std::max({gate_count_, net_count_, pin_count}) < kNoDriver,
          "EstimationPlan: netlist exceeds 32-bit indices");
  for (const logic::Gate& gate : netlist_.gates()) {
    if (!library_.has(gate.kind)) {
      throwError(std::string("EstimationPlan: library missing tables for ") +
                 gates::toString(gate.kind));
    }
  }
  has_dffs_ = !netlist_.dffs().empty();
  if (has_dffs_) {
    require(library_.has(gates::GateKind::kInv),
            "EstimationPlan: INV tables required for DFF boundary model");
    for (std::size_t level = 0; level < 2; ++level) {
      const VectorTable& inv = library_.table(gates::GateKind::kInv, level);
      require(inv.pin_current.size() == 1,
              "EstimationPlan: INV table needs one pin current");
      if (!std::isfinite(inv.pin_current[0])) {
        throwError("EstimationPlan: INV vector " + std::to_string(level) +
                   " holds a non-finite value");
      }
      dff_pin_current_[level] =
          options_.with_loading ? inv.pin_current[0] : 0.0;
    }
    dff_load_count_.resize(net_count_);
    for (NetId net = 0; net < net_count_; ++net) {
      dff_load_count_[net] = netlist_.dffLoadCount(net);
    }
  }

  // CSR gate inputs + per-gate table blocks.
  pin_offset_.assign(gate_count_ + 1, 0);
  gate_output_.resize(gate_count_);
  gate_block_.resize(gate_count_);
  std::map<gates::GateKind, std::uint32_t> kind_block;
  for (GateId g = 0; g < gate_count_; ++g) {
    const logic::Gate& gate = netlist_.gate(g);
    pin_offset_[g + 1] =
        pin_offset_[g] + static_cast<Index>(gate.inputs.size());
    gate_output_[g] = static_cast<Index>(gate.output);
    auto it = kind_block.find(gate.kind);
    if (it == kind_block.end()) {
      it = kind_block
               .emplace(gate.kind,
                        appendKindTables(gate.kind, gate.inputs.size()))
               .first;
    }
    gate_block_[g] = it->second;
  }
  pin_net_.resize(pin_offset_[gate_count_]);
  pin_loadable_.resize(pin_offset_[gate_count_]);
  for (GateId g = 0; g < gate_count_; ++g) {
    const logic::Gate& gate = netlist_.gate(g);
    for (std::size_t pin = 0; pin < gate.inputs.size(); ++pin) {
      const NetId net = gate.inputs[pin];
      pin_net_[pin_offset_[g] + pin] = static_cast<Index>(net);
      // Primary-input nets are ideally driven: loading on them cannot
      // shift the pin voltage (matches the golden model, which binds PI
      // nets to rails).
      pin_loadable_[pin_offset_[g] + pin] =
          netlist_.driverKind(net) != DriverKind::kPrimaryInput;
    }
  }

  // CSR net fanout + driver map.
  fanout_offset_.assign(net_count_ + 1, 0);
  net_driver_gate_.assign(net_count_, kNoDriver);
  for (NetId net = 0; net < net_count_; ++net) {
    fanout_offset_[net + 1] = fanout_offset_[net] +
                              static_cast<Index>(netlist_.fanout(net).size());
    if (netlist_.driverKind(net) == DriverKind::kGate) {
      net_driver_gate_[net] = static_cast<Index>(netlist_.driverGate(net));
    }
  }
  fanout_slot_.resize(fanout_offset_[net_count_]);
  fanout_gate_.resize(fanout_offset_[net_count_]);
  for (NetId net = 0; net < net_count_; ++net) {
    std::size_t k = fanout_offset_[net];
    for (const logic::PinRef& pin : netlist_.fanout(net)) {
      fanout_slot_[k] = pin_offset_[pin.gate] + static_cast<Index>(pin.pin);
      fanout_gate_[k] = static_cast<Index>(pin.gate);
      // LogicNetlist::addGate appends fanout in (gate, pin) order; the
      // block path's injections are only exact while that holds.
      require(k == fanout_offset_[net] ||
                  fanout_slot_[k] > fanout_slot_[k - 1],
              "EstimationPlan: net fanout not in (gate, pin) order");
      ++k;
    }
  }
}

std::uint32_t EstimationPlan::appendKindTables(gates::GateKind kind,
                                               std::size_t pins) {
  const std::vector<VectorTable>& tables = library_.tables(kind);
  if (tables.size() != (std::size_t{1} << pins)) {
    throwError(std::string("EstimationPlan: table count mismatch for ") +
               gates::toString(kind));
  }
  const auto first = static_cast<std::uint32_t>(blocks_.size());
  const bool loaded = options_.with_loading;
  for (std::size_t vector = 0; vector < tables.size(); ++vector) {
    const VectorTable& table = tables[vector];
    const std::size_t rows = table.il_axis.size();
    const std::size_t cols = table.ol_axis.size();
    const auto shaped = [&](const Grid2D& grid) {
      return grid.rows() == rows && grid.cols() == cols;
    };
    if (table.pin_current.size() != pins || !shaped(table.subthreshold) ||
        !shaped(table.gate) || !shaped(table.btbt)) {
      throwError(std::string("EstimationPlan: malformed table for ") +
                 gates::toString(kind));
    }
    if (const char* fault = tableFault(table, loaded)) {
      throwError(std::string("EstimationPlan: ") + gates::toString(kind) +
                 " vector " + std::to_string(vector) + " " + fault);
    }
    require(rows <= std::numeric_limits<std::uint16_t>::max() &&
                cols <= std::numeric_limits<std::uint16_t>::max(),
            "EstimationPlan: loading axis too long");
    // Without loading a table compiles to one point at IL = OL = 0 that
    // holds the isolated nominal, with zero pin currents: every gate then
    // sees IL = OL = +0, and the lookup returns the isolated value bit for
    // bit (a one-point axis locates to {0, 0}, and Bilinear returns its
    // one cell unchanged).
    const TableBlock block{static_cast<std::uint32_t>(arena_.size()),
                           static_cast<std::uint16_t>(loaded ? rows : 1),
                           static_cast<std::uint16_t>(loaded ? cols : 1),
                           static_cast<std::uint16_t>(pins)};
    require(block.end() <= std::numeric_limits<std::uint32_t>::max(),
            "EstimationPlan: table arena exceeds 32-bit offsets");
    blocks_.push_back(block);
    if (!loaded) {
      arena_.insert(arena_.end(), pins + 2, 0.0);  // pins, IL axis, OL axis
      arena_.push_back(table.isolated_nominal.subthreshold);
      arena_.push_back(table.isolated_nominal.gate);
      arena_.push_back(table.isolated_nominal.btbt);
      continue;
    }
    arena_.insert(arena_.end(), table.pin_current.begin(),
                  table.pin_current.end());
    arena_.insert(arena_.end(), table.il_axis.points().begin(),
                  table.il_axis.points().end());
    arena_.insert(arena_.end(), table.ol_axis.points().begin(),
                  table.ol_axis.points().end());
    for (std::size_t cell = 0; cell < rows * cols; ++cell) {
      arena_.push_back(table.subthreshold.values()[cell]);
      arena_.push_back(table.gate.values()[cell]);
      arena_.push_back(table.btbt.values()[cell]);
    }
  }
  return first;
}

void EstimationPlan::checkWorkspace(const EstimationWorkspace& ws) const {
  require(ws.plan_ == this,
          "EstimationPlan: workspace belongs to a different plan");
}

void EstimationPlan::checkSourceCount(std::size_t got) const {
  if (got != sourceCount()) {
    throwError("EstimationPlan: expected " + std::to_string(sourceCount()) +
               " source values, got " + std::to_string(got));
  }
}

void EstimationPlan::refreshGateVector(EstimationWorkspace& ws,
                                       GateId g) const {
  std::uint32_t index = 0;
  for (std::size_t pin = 0; pin < pin_offset_[g + 1] - pin_offset_[g];
       ++pin) {
    if (ws.values_[pin_net_[pin_offset_[g] + pin]]) {
      index |= std::uint32_t{1} << pin;
    }
  }
  ws.block_[g] = gate_block_[g] + index;
}

void EstimationPlan::loadNominalPinCurrents(EstimationWorkspace& ws,
                                            GateId g) const {
  const TableBlock& block = blocks_[ws.block_[g]];
  const double* nominal = arena_.data() + block.pinCurrent();
  double* slots = ws.pin_current_.data() + pin_offset_[g];
  for (std::size_t pin = 0; pin < block.pins; ++pin) {
    slots[pin] = nominal[pin];
  }
}

double EstimationPlan::netInjection(const EstimationWorkspace& ws,
                                    NetId net) const {
  double sum = 0.0;
  for (std::size_t k = fanout_offset_[net]; k < fanout_offset_[net + 1];
       ++k) {
    sum += ws.pin_current_[fanout_slot_[k]];
  }
  if (has_dffs_) {
    // DFF D pins load their nets like an inverter input at the net's level.
    sum += static_cast<double>(dff_load_count_[net]) *
           dff_pin_current_[ws.values_[net] ? 1 : 0];
  }
  return sum;
}

void EstimationPlan::refreshGateEstimate(EstimationWorkspace& ws,
                                         GateId g) const {
  double il_total = 0.0;
  for (std::size_t slot = pin_offset_[g]; slot < pin_offset_[g + 1];
       ++slot) {
    if (!pin_loadable_[slot]) {
      continue;
    }
    // Loading from the *other* gates on the net (the paper's IL-IN):
    // subtract this pin's own contribution from the net total.
    const double others =
        ws.net_injection_[pin_net_[slot]] - ws.pin_current_[slot];
    il_total += std::abs(others);
  }
  GateEstimate& estimate = ws.per_gate_[g];
  estimate.il = il_total;
  estimate.ol = std::abs(ws.net_injection_[gate_output_[g]]);
  lookupLeakage(blocks_[ws.block_[g]], estimate);
}

void EstimationPlan::lookupLeakage(const TableBlock& block,
                                   GateEstimate& estimate) const {
  // IL and OL are located once for all three components.
  const double* arena = arena_.data();
  const Bilinear at(
      locateOnAxis(arena + block.ilAxis(), block.rows, estimate.il),
      locateOnAxis(arena + block.olAxis(), block.cols, estimate.ol),
      block.rows, block.cols, 3);
  const double* cells = arena + block.cells();
  estimate.leakage.subthreshold = at(cells);
  estimate.leakage.gate = at(cells + 1);
  estimate.leakage.btbt = at(cells + 2);
}

void EstimationPlan::computeAllFromValues(EstimationWorkspace& ws) const {
  for (GateId g = 0; g < gate_count_; ++g) {
    refreshGateVector(ws, g);
    loadNominalPinCurrents(ws, g);
  }
  for (NetId net = 0; net < net_count_; ++net) {
    ws.net_injection_[net] = netInjection(ws, net);
  }
  for (GateId g = 0; g < gate_count_; ++g) {
    refreshGateEstimate(ws, g);
  }
  // Summed in a pass of its own into a local: in the loop above, the sum's
  // bins would go through memory around every call.
  LeakageSum sum;
  for (const GateEstimate& estimate : ws.per_gate_) {
    sum.add(components(estimate.leakage));
  }
  ws.total_sum_ = sum;
  ws.total_ = breakdown(sum.values());
}

void EstimationPlan::finishResult(const EstimationWorkspace& ws,
                                  EstimateResult& out) const {
  out.total = ws.total_;
  out.per_gate = ws.per_gate_;
}

void EstimationPlan::evaluateFull(const std::vector<bool>& source_values,
                                  EstimationWorkspace& ws) const {
  estimateMetrics().cold.increment();
  ws.sizeFullPath();
  simulator_.simulateInto(source_values, ws.values_);
  computeAllFromValues(ws);
  ws.warm_ = true;
}

void EstimationPlan::estimate(const std::vector<bool>& source_values,
                              EstimationWorkspace& ws,
                              EstimateResult& out) const {
  checkWorkspace(ws);
  checkSourceCount(source_values.size());
  evaluateFull(source_values, ws);
  finishResult(ws, out);
}

EstimateResult EstimationPlan::estimate(
    const std::vector<bool>& source_values, EstimationWorkspace& ws) const {
  EstimateResult out;
  estimate(source_values, ws, out);
  return out;
}

void EstimationPlan::estimateDelta(const std::vector<bool>& source_values,
                                   EstimationWorkspace& ws,
                                   EstimateResult& out) const {
  evaluateDelta(source_values, ws);
  finishResult(ws, out);
}

device::LeakageBreakdown EstimationPlan::estimateDeltaTotal(
    const std::vector<bool>& source_values, EstimationWorkspace& ws) const {
  evaluateDelta(source_values, ws);
  return ws.total_;
}

void EstimationPlan::evaluateDelta(const std::vector<bool>& source_values,
                                   EstimationWorkspace& ws) const {
  checkWorkspace(ws);
  checkSourceCount(source_values.size());
  if (!ws.warm_) {
    evaluateFull(source_values, ws);
    return;
  }
  simulator_.simulateDelta(source_values, ws.values_, ws.dirty_gates_,
                           ws.changed_nets_, ws.sim_scratch_);
  if (ws.changed_nets_.empty()) {
    // Same pattern as the previous call: the workspace result stands.
    estimateMetrics().unchanged.increment();
    return;
  }

  if (ws.dirty_gates_.size() * kDeltaFallbackDen >=
      gate_count_ * kDeltaFallbackNum) {
    estimateMetrics().fallback_full.increment();
    computeAllFromValues(ws);
    return;
  }

  estimateMetrics().incremental.increment();

  // 1. Dirty gates changed input vector: new tables, new nominal pin
  //    currents.
  for (GateId g : ws.dirty_gates_) {
    refreshGateVector(ws, g);
    loadNominalPinCurrents(ws, g);
  }

  // 2. Nets whose injection can have moved: every input net of a dirty
  //    gate (its pin currents changed), plus value-flipped nets carrying
  //    DFF loads (their boundary INV current flipped tables).
  ws.dirty_nets_.clear();
  const auto markNet = [&](NetId net) {
    if (!ws.net_mark_[net]) {
      ws.net_mark_[net] = 1;
      ws.dirty_nets_.push_back(net);
    }
  };
  for (GateId g : ws.dirty_gates_) {
    for (std::size_t slot = pin_offset_[g]; slot < pin_offset_[g + 1];
         ++slot) {
      markNet(pin_net_[slot]);
    }
  }
  if (has_dffs_) {
    for (NetId net : ws.changed_nets_) {
      if (dff_load_count_[net] > 0) {
        markNet(net);
      }
    }
  }
  for (NetId net : ws.dirty_nets_) {
    ws.net_injection_[net] = netInjection(ws, net);
  }

  // 3. Gates whose IL/OL or table changed: the dirty gates themselves,
  //    every gate with a pin on a dirty net, and the driver of each dirty
  //    net (its OL reads that net's injection).
  ws.touched_gates_.clear();
  const auto markGate = [&](GateId g) {
    if (!ws.gate_mark_[g]) {
      ws.gate_mark_[g] = 1;
      ws.touched_gates_.push_back(g);
    }
  };
  for (GateId g : ws.dirty_gates_) {
    markGate(g);
  }
  for (NetId net : ws.dirty_nets_) {
    for (std::size_t k = fanout_offset_[net]; k < fanout_offset_[net + 1];
         ++k) {
      markGate(fanout_gate_[k]);
    }
    if (net_driver_gate_[net] != kNoDriver) {
      markGate(net_driver_gate_[net]);
    }
  }
  // The total's sum trades each touched gate's old leakage for its new
  // one; it is order-free, so it ends where a full evaluation's would.
  for (GateId g : ws.touched_gates_) {
    ws.total_sum_.remove(components(ws.per_gate_[g].leakage));
    refreshGateEstimate(ws, g);
    ws.total_sum_.add(components(ws.per_gate_[g].leakage));
  }
  ws.total_ = breakdown(ws.total_sum_.values());

  for (NetId net : ws.dirty_nets_) {
    ws.net_mark_[net] = 0;
  }
  for (GateId g : ws.touched_gates_) {
    ws.gate_mark_[g] = 0;
  }
}

void EstimationPlan::estimateBlock(std::span<const std::vector<bool>> patterns,
                                   EstimationWorkspace& ws,
                                   std::span<EstimateResult> out) const {
  require(out.size() == patterns.size(),
          "EstimationPlan::estimateBlock: one result per pattern");
  evaluateBlock(patterns, ws, out.data(), nullptr);
}

void EstimationPlan::estimateBlockTotals(
    std::span<const std::vector<bool>> patterns, EstimationWorkspace& ws,
    std::span<device::LeakageBreakdown> totals) const {
  require(totals.size() == patterns.size(),
          "EstimationPlan::estimateBlockTotals: one total per pattern");
  evaluateBlock(patterns, ws, nullptr, totals.data());
}

void EstimationPlan::evaluateBlock(std::span<const std::vector<bool>> patterns,
                                   EstimationWorkspace& ws,
                                   EstimateResult* out,
                                   device::LeakageBreakdown* totals) const {
  checkWorkspace(ws);
  require(patterns.size() <= kBlockPatterns,
          "EstimationPlan::estimateBlock: too many patterns for one block");
  for (const std::vector<bool>& pattern : patterns) {
    checkSourceCount(pattern.size());
  }
  const std::size_t count = patterns.size();
  if (count == 0) {
    return;
  }

  estimateMetrics().blocked.add(count);
  if (!ws.block_scratch_) {
    ws.block_scratch_ = std::make_unique<EstimationWorkspace::BlockScratch>();
  }
  EstimationWorkspace::BlockScratch& scratch = *ws.block_scratch_;
  simulator_.simulateWords(patterns, scratch.values);
  scatterBlock(count, ws);
  if (out != nullptr) {
    for (std::size_t i = 0; i < count; ++i) {
      out[i].per_gate.clear();
      out[i].per_gate.reserve(gate_count_);
    }
  }

  // Second pass: each gate's IL/OL and leakage for every pattern, and the
  // totals' order-free sums, one lane per (component, pattern) so that
  // every gate's adds are one vectorized loop; a tile is one fold
  // interval. The pass runs in tiles of gates, and each result grows by
  // one tile just before the pass writes it: a result's fresh memory is
  // then initialized while in cache and first touched in address order.
  // (Sizing the results up front streams them through memory twice;
  // appending gate by gate touches the pages of eight results interleaved,
  // which left later, unrelated work measurably slower.)
  static_assert(kTileGates == util::OrderFreeSum<1>::kFoldInterval);
  util::OrderFreeSum<3 * kBlockPatterns> total;
  const double* arena = arena_.data();
  const double* injection = scratch.injection.data();
  for (GateId tile = 0; tile < gate_count_; tile += kTileGates) {
    const GateId tile_end = std::min(gate_count_, tile + kTileGates);
    std::array<GateEstimate*, kBlockPatterns> per_gate{};
    if (out != nullptr) {
      for (std::size_t i = 0; i < count; ++i) {
        out[i].per_gate.resize(tile_end);
        per_gate[i] = out[i].per_gate.data();
      }
    }
    for (GateId g = tile; g < tile_end; ++g) {
      const std::uint64_t vectors = scratch.vectors[g];
      std::array<const TableBlock*, kBlockPatterns> block;
      for (std::size_t i = 0; i < count; ++i) {
        block[i] = &blocks_[gate_block_[g] + blockVector(vectors, i)];
      }
      // refreshGateEstimate() per pattern: each pin sees its net minus its
      // own nominal current.
      std::array<GateEstimate, kBlockPatterns> estimate;
      for (std::size_t slot = pin_offset_[g]; slot < pin_offset_[g + 1];
           ++slot) {
        if (!pin_loadable_[slot]) {
          continue;
        }
        const double* net = injection + pin_net_[slot] * kBlockPatterns;
        const std::size_t pin = slot - pin_offset_[g];
        for (std::size_t i = 0; i < count; ++i) {
          estimate[i].il +=
              std::abs(net[i] - arena[block[i]->pinCurrent() + pin]);
        }
      }
      const double* output = injection + gate_output_[g] * kBlockPatterns;
      for (std::size_t i = 0; i < count; ++i) {
        estimate[i].ol = std::abs(output[i]);
        lookupLeakage(*block[i], estimate[i]);
      }
      // Lanes past `count` add the zero leakage they were made with.
      std::array<double, 3 * kBlockPatterns> leakage;
      for (std::size_t i = 0; i < kBlockPatterns; ++i) {
        leakage[i] = estimate[i].leakage.subthreshold;
        leakage[kBlockPatterns + i] = estimate[i].leakage.gate;
        leakage[2 * kBlockPatterns + i] = estimate[i].leakage.btbt;
      }
      total.add(leakage);
      if (out != nullptr) {
        for (std::size_t i = 0; i < count; ++i) {
          per_gate[i][g] = estimate[i];
        }
      }
    }
  }
  for (std::size_t i = 0; i < count; ++i) {
    const device::LeakageBreakdown sum{total.value(i),
                                       total.value(kBlockPatterns + i),
                                       total.value(2 * kBlockPatterns + i)};
    if (out != nullptr) {
      out[i].total = sum;
    } else {
      totals[i] = sum;
    }
  }
}

void EstimationPlan::scatterBlock(std::size_t count,
                                  EstimationWorkspace& ws) const {
  EstimationWorkspace::BlockScratch& scratch = *ws.block_scratch_;
  const std::uint64_t* values = scratch.values.data();
  scratch.vectors.resize(gate_count_);
  scratch.injection.assign(net_count_ * kBlockPatterns, 0.0);
  const double* arena = arena_.data();
  double* injection = scratch.injection.data();
  for (GateId g = 0; g < gate_count_; ++g) {
    const std::size_t first = pin_offset_[g];
    const std::size_t pins = pin_offset_[g + 1] - first;
    std::uint64_t vectors = 0;
    for (std::size_t pin = 0; pin < pins; ++pin) {
      vectors |= kSpreadBits[values[pin_net_[first + pin]] & 0xff] << pin;
    }
    scratch.vectors[g] = vectors;
    // Gates ascending, pins ascending: each net receives its pin currents
    // in fanout order, as netInjection() adds them.
    std::array<const double*, kBlockPatterns> nominal;
    for (std::size_t i = 0; i < count; ++i) {
      const TableBlock& block =
          blocks_[gate_block_[g] + blockVector(vectors, i)];
      nominal[i] = arena + block.pinCurrent();
    }
    for (std::size_t pin = 0; pin < pins; ++pin) {
      double* net = injection + pin_net_[first + pin] * kBlockPatterns;
      for (std::size_t i = 0; i < count; ++i) {
        net[i] += nominal[i][pin];
      }
    }
  }
  if (has_dffs_) {
    // The DFF term after the fanout sum, on every net (a load count of 0
    // included), as netInjection() adds it.
    for (NetId net = 0; net < net_count_; ++net) {
      const double loads = static_cast<double>(dff_load_count_[net]);
      double* row = injection + net * kBlockPatterns;
      for (std::size_t i = 0; i < count; ++i) {
        row[i] += loads * dff_pin_current_[(values[net] >> i) & 1];
      }
    }
  }
}

EstimationWorkspace::EstimationWorkspace(const EstimationPlan& plan)
    : plan_(&plan) {}

void EstimationWorkspace::sizeFullPath() {
  if (full_path_sized_) {
    return;
  }
  const EstimationPlan& plan = *plan_;
  values_.resize(plan.net_count_);
  block_.resize(plan.gate_count_);
  pin_current_.resize(plan.pin_net_.size());
  net_injection_.resize(plan.net_count_);
  per_gate_.resize(plan.gate_count_);
  net_mark_.assign(plan.net_count_, 0);
  gate_mark_.assign(plan.gate_count_, 0);
  // Worst-case sizes up front, so no estimateDelta() outcome allocates.
  dirty_gates_.reserve(plan.gate_count_);
  touched_gates_.reserve(plan.gate_count_);
  changed_nets_.reserve(plan.net_count_);
  dirty_nets_.reserve(plan.net_count_);
  full_path_sized_ = true;
}

EstimateResult referenceEstimate(const logic::LogicNetlist& netlist,
                                 const LeakageLibrary& library,
                                 const EstimatorOptions& options,
                                 const std::vector<bool>& source_values,
                                 int levels) {
  require(levels >= 1, "referenceEstimate: levels must be >= 1");
  std::vector<bool> values;
  logic::LogicSimulator(netlist).simulateInto(source_values, values);
  const std::size_t gate_count = netlist.gateCount();
  std::vector<const VectorTable*> table(gate_count);
  for (GateId g = 0; g < gate_count; ++g) {
    std::vector<bool> inputs;
    for (NetId net : netlist.gate(g).inputs) {
      inputs.push_back(values[net]);
    }
    const std::size_t vector = vectorIndex(inputs);
    table[g] = &library.table(netlist.gate(g).kind, vector);
    if (const char* fault = tableFault(*table[g], options.with_loading)) {
      throwError(std::string("referenceEstimate: ") +
                 gates::toString(netlist.gate(g).kind) + " vector " +
                 std::to_string(vector) + " " + fault);
    }
  }

  EstimateResult result;
  result.per_gate.resize(gate_count);
  LeakageSum total;
  if (!options.with_loading) {
    for (GateId g = 0; g < gate_count; ++g) {
      result.per_gate[g].leakage = table[g]->isolated_nominal;
      total.add(components(result.per_gate[g].leakage));
    }
    result.total = breakdown(total.values());
    return result;
  }

  std::vector<std::vector<double>> current(gate_count);
  for (GateId g = 0; g < gate_count; ++g) {
    current[g] = table[g]->pin_current;
  }
  for (int level = 0; level < levels; ++level) {
    std::vector<double> injection(netlist.netCount());
    for (NetId net = 0; net < netlist.netCount(); ++net) {
      double sum = 0.0;
      for (const logic::PinRef& ref : netlist.fanout(net)) {
        sum += current[ref.gate][static_cast<std::size_t>(ref.pin)];
      }
      if (!netlist.dffs().empty()) {
        sum += static_cast<double>(netlist.dffLoadCount(net)) *
               library.table(gates::GateKind::kInv, values[net] ? 1 : 0)
                   .pin_current[0];
      }
      injection[net] = sum;
    }
    for (GateId g = 0; g < gate_count; ++g) {
      const logic::Gate& gate = netlist.gate(g);
      double il = 0.0;
      for (std::size_t pin = 0; pin < gate.inputs.size(); ++pin) {
        const NetId net = gate.inputs[pin];
        if (netlist.driverKind(net) != DriverKind::kPrimaryInput) {
          il += std::abs(injection[net] - current[g][pin]);
        }
      }
      result.per_gate[g].il = il;
      result.per_gate[g].ol = std::abs(injection[gate.output]);
    }
    if (level + 1 < levels) {
      for (GateId g = 0; g < gate_count; ++g) {
        for (std::size_t pin = 0; pin < current[g].size(); ++pin) {
          current[g][pin] = table[g]->pinCurrentAt(static_cast<int>(pin),
                                                   result.per_gate[g].il,
                                                   result.per_gate[g].ol);
        }
      }
    }
  }
  for (GateId g = 0; g < gate_count; ++g) {
    GateEstimate& estimate = result.per_gate[g];
    estimate.leakage = table[g]->lookup(estimate.il, estimate.ol);
    total.add(components(estimate.leakage));
  }
  result.total = breakdown(total.values());
  return result;
}

}  // namespace nanoleak::core
