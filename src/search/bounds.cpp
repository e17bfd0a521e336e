#include "search/bounds.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

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

}  // namespace

LeakageBounds::LeakageBounds(const core::EstimationPlan& plan) {
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
        const logic::Gate& gate = netlist.gate(ref.gate);
        sum += maxAbsPinCurrent(library.tables(gate.kind),
                                static_cast<std::size_t>(ref.pin));
      }
      sum += static_cast<double>(netlist.dffLoadCount(net)) * dff_pin_max;
      net_max_abs[net] = sum;
    }
  }

  for (GateId g = 0; g < netlist.gateCount(); ++g) {
    const logic::Gate& gate = netlist.gate(g);
    const std::vector<core::VectorTable>& tables = library.tables(gate.kind);
    require(tables.size() == (std::size_t{1} << gate.inputs.size()),
            "LeakageBounds: table count mismatch");
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
      const std::size_t i_cap = capIndex(t.il_axis, il_cap);
      const std::size_t j_cap = capIndex(t.ol_axis, ol_cap);
      double lo = std::numeric_limits<double>::infinity();
      double hi = -std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i <= i_cap; ++i) {
        for (std::size_t j = 0; j <= j_cap; ++j) {
          const double s =
              t.subthreshold.at(i, j) + t.gate.at(i, j) + t.btbt.at(i, j);
          lo = std::min(lo, s);
          hi = std::max(hi, s);
        }
      }
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

BoundTracker::BoundTracker(const core::EstimationPlan& plan,
                           const TernaryPropagator& propagator,
                           const LeakageBounds& bounds)
    : netlist_(plan.netlist()), propagator_(propagator), bounds_(bounds) {
  const std::size_t gates = netlist_.gateCount();
  cur_min_.resize(gates);
  cur_max_.resize(gates);
  stamp_.assign(gates, 0);
  for (GateId g = 0; g < gates; ++g) {
    const std::size_t nv = std::size_t{1} << netlist_.gate(g).inputs.size();
    const std::uint32_t all =
        nv >= 32 ? 0xffffffffu : ((1u << nv) - 1u);
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
