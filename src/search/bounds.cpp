#include "search/bounds.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "obs/trace.h"
#include "util/error.h"

namespace nanoleak::search {

using logic::GateId;
using logic::NetId;

namespace {

/// Worst-case |current| pin `pin` of a gate kind can inject into its net:
/// the largest nominal |current| over the kind's input vectors.
double maxAbsPinCurrent(const std::vector<core::VectorTable>& tables,
                        std::size_t pin) {
  double m = 0.0;
  for (const core::VectorTable& t : tables) {
    m = std::max(m, std::abs(t.pin_current[pin]));
  }
  return m;
}

/// Index of the first axis point >= cap (the whole axis when cap exceeds
/// it). Grid points up to this index bound any interpolation clamped to
/// [0, cap]: boundary values are convex combinations of the bracketing
/// columns, so extremes over the reachable rectangle are attained at
/// grid-point sums within the capped index range.
std::size_t capIndex(const core::Axis& axis, double cap) {
  for (std::size_t i = 0; i < axis.size(); ++i) {
    if (axis[i] >= cap) {
      return i;
    }
  }
  return axis.size() - 1;
}

/// One (kind, vector) table's grid-point sums sub + gate + btbt, reduced
/// to the min and max over every rectangle [0, i] x [0, j]: cell (i, j),
/// row-major over the (IL, OL) grid, holds that rectangle's extrema. Each
/// cell takes the extrema of the rectangle above it and of row i's cells
/// [0, j], in that order, and std::min/max keep the earlier of two equal
/// values, so a cell is bit-identical to a row-major scan of its
/// rectangle (the sign of an extreme zero included).
struct RectangleExtrema {
  std::vector<double> lo;
  std::vector<double> hi;
};

RectangleExtrema rectangleExtrema(const core::VectorTable& t) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t cols = t.ol_axis.size();
  const std::size_t cells = t.il_axis.size() * cols;
  const std::vector<double>& sub = t.subthreshold.values();
  const std::vector<double>& gate = t.gate.values();
  const std::vector<double>& btbt = t.btbt.values();
  RectangleExtrema out{std::vector<double>(cells),
                       std::vector<double>(cells)};
  double row_lo = kInf;
  double row_hi = -kInf;
  for (std::size_t k = 0; k < cells; ++k) {
    if (k % cols == 0) {
      row_lo = kInf;
      row_hi = -kInf;
    }
    const double s = sub[k] + gate[k] + btbt[k];
    row_lo = std::min(row_lo, s);
    row_hi = std::max(row_hi, s);
    out.lo[k] = std::min(k < cols ? kInf : out.lo[k - cols], row_lo);
    out.hi[k] = std::max(k < cols ? -kInf : out.hi[k - cols], row_hi);
  }
  return out;
}

/// The possible-vector mask of a gate with `inputs` pins: every vector.
std::uint32_t allVectors(std::size_t inputs) {
  const std::size_t nv = std::size_t{1} << inputs;
  return nv >= 32 ? 0xffffffffu : ((1u << nv) - 1u);
}

/// What the intervals read of one gate kind, built once per kind.
struct KindBounds {
  const std::vector<core::VectorTable>* tables = nullptr;
  std::vector<double> pin_max;            // maxAbsPinCurrent per pin
  std::vector<RectangleExtrema> extrema;  // per vector, with loading
};

}  // namespace

LeakageBounds::LeakageBounds(const core::EstimationPlan& plan) {
  OBS_SPAN("search.bounds");
  const logic::LogicNetlist& netlist = plan.netlist();
  const core::LeakageLibrary& library = plan.library();
  const bool with_loading = plan.options().with_loading;

  offset_.assign(netlist.gateCount() + 1, 0);
  for (GateId g = 0; g < netlist.gateCount(); ++g) {
    offset_[g + 1] =
        offset_[g] + (std::size_t{1} << netlist.gate(g).inputs.size());
  }
  vmin_.resize(offset_.back());
  vmax_.resize(offset_.back());

  // The tables of every kind in the netlist, indexed by the kind's value.
  const auto slot = [](gates::GateKind kind) {
    return static_cast<std::size_t>(kind);
  };
  std::vector<KindBounds> kinds;
  for (const logic::Gate& gate : netlist.gates()) {
    if (slot(gate.kind) >= kinds.size()) {
      kinds.resize(slot(gate.kind) + 1);
    }
    KindBounds& kind = kinds[slot(gate.kind)];
    if (kind.tables != nullptr) {
      continue;
    }
    kind.tables = &library.tables(gate.kind);
    require(kind.tables->size() == (std::size_t{1} << gate.inputs.size()),
            "LeakageBounds: table count mismatch");
    for (std::size_t pin = 0; pin < gate.inputs.size(); ++pin) {
      kind.pin_max.push_back(maxAbsPinCurrent(*kind.tables, pin));
    }
    if (with_loading) {
      for (const core::VectorTable& t : *kind.tables) {
        kind.extrema.push_back(rectangleExtrema(t));
      }
    }
  }

  // Worst-case |injection| every net can carry: the sum over its fanout
  // pins of each pin's worst-case |current|, plus DFF D-pin loads (the
  // boundary model charges an INV input current per D pin).
  std::vector<double> net_max_abs(netlist.netCount(), 0.0);
  double dff_pin_max = 0.0;
  if (!netlist.dffs().empty()) {
    dff_pin_max = maxAbsPinCurrent(library.tables(gates::GateKind::kInv), 0);
  }
  if (with_loading) {
    for (NetId net = 0; net < netlist.netCount(); ++net) {
      double sum = 0.0;
      for (const logic::PinRef& ref : netlist.fanout(net)) {
        sum += kinds[slot(netlist.gate(ref.gate).kind)]
                   .pin_max[static_cast<std::size_t>(ref.pin)];
      }
      sum += static_cast<double>(netlist.dffLoadCount(net)) * dff_pin_max;
      net_max_abs[net] = sum;
    }
  }

  for (GateId g = 0; g < netlist.gateCount(); ++g) {
    const logic::Gate& gate = netlist.gate(g);
    const KindBounds& kind = kinds[slot(gate.kind)];
    const std::vector<core::VectorTable>& tables = *kind.tables;
    if (!with_loading) {
      for (std::size_t v = 0; v < tables.size(); ++v) {
        const double exact = tables[v].isolated_nominal.total();
        vmin_[offset_[g] + v] = exact - kRelativeSlack * std::abs(exact);
        vmax_[offset_[g] + v] = exact + kRelativeSlack * std::abs(exact);
      }
      continue;
    }

    // Reachable loading caps of this gate. IL sums |others| over loadable
    // pins (nets not driven by a primary input); |others| on a net is at
    // most the net's worst-case total minus nothing (a sound over-cover:
    // we do not subtract the pin's own contribution, which only widens
    // the cap). OL is |injection| of the output net.
    double il_cap = 0.0;
    for (NetId in : gate.inputs) {
      if (netlist.driverKind(in) != logic::DriverKind::kPrimaryInput) {
        il_cap += net_max_abs[in];
      }
    }
    const double ol_cap = net_max_abs[gate.output];

    for (std::size_t v = 0; v < tables.size(); ++v) {
      const core::VectorTable& t = tables[v];
      const std::size_t k = capIndex(t.il_axis, il_cap) * t.ol_axis.size() +
                            capIndex(t.ol_axis, ol_cap);
      const double lo = kind.extrema[v].lo[k];
      const double hi = kind.extrema[v].hi[k];
      vmin_[offset_[g] + v] = lo - kRelativeSlack * std::abs(lo);
      vmax_[offset_[g] + v] = hi + kRelativeSlack * std::abs(hi);
    }
  }
}

double LeakageBounds::maskMin(GateId g, std::uint32_t mask) const {
  require(mask != 0, "LeakageBounds: empty vector mask");
  double lo = std::numeric_limits<double>::infinity();
  const std::size_t base = offset_[g];
  for (std::uint32_t m = mask; m != 0; m &= m - 1) {
    const unsigned v = static_cast<unsigned>(std::countr_zero(m));
    lo = std::min(lo, vmin_[base + v]);
  }
  return lo;
}

double LeakageBounds::maskMax(GateId g, std::uint32_t mask) const {
  require(mask != 0, "LeakageBounds: empty vector mask");
  double hi = -std::numeric_limits<double>::infinity();
  const std::size_t base = offset_[g];
  for (std::uint32_t m = mask; m != 0; m &= m - 1) {
    const unsigned v = static_cast<unsigned>(std::countr_zero(m));
    hi = std::max(hi, vmax_[base + v]);
  }
  return hi;
}

std::vector<double> staticImpact(const core::EstimationPlan& plan,
                                 const LeakageBounds& bounds) {
  OBS_SPAN("search.impact");
  const logic::LogicNetlist& netlist = plan.netlist();
  const std::vector<GateId> order = netlist.topologicalOrder();

  // Flat copies in topological order of what the passes read: each gate's
  // input nets (CSR), output net and bound width over all its vectors.
  std::vector<std::size_t> input_offset(order.size() + 1, 0);
  std::vector<NetId> input_net;
  std::vector<NetId> output(order.size());
  std::vector<double> width(order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    const logic::Gate& gate = netlist.gate(order[k]);
    input_net.insert(input_net.end(), gate.inputs.begin(), gate.inputs.end());
    input_offset[k + 1] = input_net.size();
    output[k] = gate.output;
    const std::uint32_t all = allVectors(gate.inputs.size());
    width[k] = bounds.maskMax(order[k], all) - bounds.maskMin(order[k], all);
  }

  // One pass per 64 sources: reach[net] holds the sources of this word
  // whose cone reaches the net, a gate's word is the OR of its input nets'
  // words, and each source in it adds the gate's width, so every impact
  // sums its cone in topological order.
  const std::vector<NetId> sources = netlist.sourceNets();
  std::vector<double> impact(sources.size(), 0.0);
  std::vector<std::uint64_t> reach(netlist.netCount());
  for (std::size_t base = 0; base < sources.size(); base += 64) {
    std::fill(reach.begin(), reach.end(), 0);
    const std::size_t word = std::min<std::size_t>(64, sources.size() - base);
    for (std::size_t b = 0; b < word; ++b) {
      reach[sources[base + b]] |= std::uint64_t{1} << b;
    }
    double* const scores = impact.data() + base;
    for (std::size_t k = 0; k < order.size(); ++k) {
      std::uint64_t bits = 0;
      for (std::size_t p = input_offset[k]; p < input_offset[k + 1]; ++p) {
        bits |= reach[input_net[p]];
      }
      reach[output[k]] = bits;
      for (; bits != 0; bits &= bits - 1) {
        scores[std::countr_zero(bits)] += width[k];
      }
    }
  }
  return impact;
}

BoundTracker::BoundTracker(const core::EstimationPlan& plan,
                           const TernaryPropagator& propagator,
                           const LeakageBounds& bounds)
    : netlist_(plan.netlist()), propagator_(propagator), bounds_(bounds) {
  const std::size_t gates = netlist_.gateCount();
  cur_min_.resize(gates);
  cur_max_.resize(gates);
  stamp_.assign(gates, 0);
  for (GateId g = 0; g < gates; ++g) {
    const std::uint32_t all = allVectors(netlist_.gate(g).inputs.size());
    cur_min_[g] = bounds_.maskMin(g, all);
    cur_max_[g] = bounds_.maskMax(g, all);
    sums_.add({kScale * cur_min_[g], kScale * cur_max_[g]});
  }
}

void BoundTracker::setInterval(GateId g, double lo, double hi) {
  sums_.remove({kScale * cur_min_[g], kScale * cur_max_[g]});
  sums_.add({kScale * lo, kScale * hi});
  cur_min_[g] = lo;
  cur_max_[g] = hi;
}

void BoundTracker::push(std::span<const NetId> implied) {
  ++push_id_;
  level_start_.push_back(trail_.size());
  for (NetId net : implied) {
    for (const logic::PinRef& ref : netlist_.fanout(net)) {
      const GateId g = ref.gate;
      if (stamp_[g] == push_id_) {
        continue;  // Already refreshed at this level.
      }
      stamp_[g] = push_id_;
      trail_.push_back(Saved{g, cur_min_[g], cur_max_[g]});
      const std::uint32_t possible = propagator_.possibleVectors(g);
      setInterval(g, bounds_.maskMin(g, possible),
                  bounds_.maskMax(g, possible));
    }
  }
}

void BoundTracker::pop() {
  require(!level_start_.empty(), "BoundTracker: no level to pop");
  const std::size_t start = level_start_.back();
  level_start_.pop_back();
  while (trail_.size() > start) {
    const Saved& s = trail_.back();
    setInterval(s.gate, s.min, s.max);
    trail_.pop_back();
  }
}

}  // namespace nanoleak::search
