#include "logic/logic_sim.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <string>

#include "util/error.h"

namespace nanoleak::logic {

namespace {

/// Widest gate a 32-bit truth word can hold (2^5 input vectors).
constexpr std::size_t kMaxArity = 5;

}  // namespace

LogicSimulator::LogicSimulator(const LogicNetlist& netlist)
    : net_count_(netlist.netCount()),
      order_(netlist.topologicalOrder()),
      sources_(netlist.sourceNets()) {
  std::size_t pin_count = 0;
  for (const Gate& gate : netlist.gates()) {
    require(gate.inputs.size() <= kMaxArity,
            "LogicSimulator: gate arity too large");
    pin_count += gate.inputs.size();
  }
  constexpr std::size_t kMaxIndex = std::numeric_limits<std::uint32_t>::max();
  require(net_count_ < kMaxIndex && order_.size() < kMaxIndex &&
              pin_count < kMaxIndex,
          "LogicSimulator: netlist too large for 32-bit indices");

  const std::size_t gate_count = order_.size();
  topo_position_.resize(gate_count);
  truth_.resize(gate_count);
  output_net_.resize(gate_count);
  input_offset_.assign(gate_count + 1, 0);
  input_net_.reserve(pin_count);
  for (std::size_t pos = 0; pos < gate_count; ++pos) {
    const Gate& gate = netlist.gate(order_[pos]);
    topo_position_[order_[pos]] = pos;
    truth_[pos] = gates::truthTable(gate.kind);
    output_net_[pos] = static_cast<std::uint32_t>(gate.output);
    for (NetId in : gate.inputs) {
      input_net_.push_back(static_cast<std::uint32_t>(in));
    }
    input_offset_[pos + 1] = static_cast<std::uint32_t>(input_net_.size());
  }

  fanout_offset_.assign(net_count_ + 1, 0);
  fanout_pos_.reserve(pin_count);
  for (NetId net = 0; net < net_count_; ++net) {
    for (const PinRef& pin : netlist.fanout(net)) {
      fanout_pos_.push_back(
          static_cast<std::uint32_t>(topo_position_[pin.gate]));
    }
    fanout_offset_[net + 1] = static_cast<std::uint32_t>(fanout_pos_.size());
  }
}

void LogicSimulator::checkSourceCount(std::size_t got) const {
  if (got != sources_.size()) {
    throwError("LogicSimulator: expected " + std::to_string(sources_.size()) +
               " source values, got " + std::to_string(got));
  }
}

bool LogicSimulator::evaluate(std::size_t pos,
                              const std::vector<bool>& values) const {
  const std::uint32_t begin = input_offset_[pos];
  const std::uint32_t end = input_offset_[pos + 1];
  std::uint32_t index = 0;
  for (std::uint32_t slot = begin; slot < end; ++slot) {
    index |= static_cast<std::uint32_t>(values[input_net_[slot]])
             << (slot - begin);
  }
  return ((truth_[pos] >> index) & 1u) != 0;
}

std::uint64_t LogicSimulator::evaluateWord(
    std::size_t pos, const std::vector<std::uint64_t>& words) const {
  const std::uint32_t begin = input_offset_[pos];
  const std::uint32_t arity = input_offset_[pos + 1] - begin;
  // Shannon expansion of the truth word, lowest pin first: entry v starts
  // all ones where the gate outputs 1 for input vector v, and each pin
  // then merges the entry pairs that differ only in its bit.
  std::array<std::uint64_t, std::size_t{1} << kMaxArity> f;
  const std::uint32_t vectors = 1u << arity;
  for (std::uint32_t v = 0; v < vectors; ++v) {
    f[v] = std::uint64_t{0} - ((truth_[pos] >> v) & 1u);
  }
  for (std::uint32_t pin = 0; pin < arity; ++pin) {
    const std::uint64_t x = words[input_net_[begin + pin]];
    for (std::uint32_t j = 0; j < vectors >> (pin + 1); ++j) {
      f[j] = (x & f[2 * j + 1]) | (~x & f[2 * j]);
    }
  }
  return f[0];
}

std::vector<bool> LogicSimulator::simulate(
    const std::vector<bool>& source_values) const {
  std::vector<bool> values;
  simulateInto(source_values, values);
  return values;
}

void LogicSimulator::simulateInto(const std::vector<bool>& source_values,
                                  std::vector<bool>& values) const {
  checkSourceCount(source_values.size());
  values.assign(net_count_, false);
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    values[sources_[i]] = source_values[i];
  }
  for (std::size_t pos = 0; pos < truth_.size(); ++pos) {
    values[output_net_[pos]] = evaluate(pos, values);
  }
}

void LogicSimulator::simulateWords(std::span<const std::vector<bool>> patterns,
                                   std::vector<std::uint64_t>& words) const {
  require(patterns.size() <= 64,
          "LogicSimulator::simulateWords: at most 64 patterns");
  for (const std::vector<bool>& pattern : patterns) {
    checkSourceCount(pattern.size());
  }
  words.assign(net_count_, 0);
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    std::uint64_t word = 0;
    for (std::size_t p = 0; p < patterns.size(); ++p) {
      word |= std::uint64_t{patterns[p][i]} << p;
    }
    words[sources_[i]] = word;
  }
  for (std::size_t pos = 0; pos < truth_.size(); ++pos) {
    words[output_net_[pos]] = evaluateWord(pos, words);
  }
}

void LogicSimulator::simulateDelta(const std::vector<bool>& source_values,
                                   std::vector<bool>& values,
                                   std::vector<GateId>& dirty_gates,
                                   std::vector<NetId>& changed_nets,
                                   DeltaSimScratch& scratch) const {
  checkSourceCount(source_values.size());
  require(values.size() == net_count_,
          "LogicSimulator::simulateDelta: values buffer must hold a previous "
          "simulation result");
  dirty_gates.clear();
  changed_nets.clear();
  std::vector<std::uint64_t>& pending = scratch.pending;
  const std::size_t words = (truth_.size() + 63) / 64;
  if (pending.size() != words) {
    pending.assign(words, 0);
  }

  // Words [first, last] may hold pending bits.
  std::size_t first = words;
  std::size_t last = 0;
  const auto enqueueFanout = [&](std::size_t net) {
    for (std::uint32_t k = fanout_offset_[net]; k < fanout_offset_[net + 1];
         ++k) {
      const std::uint32_t pos = fanout_pos_[k];
      const std::size_t word = pos / 64;
      pending[word] |= std::uint64_t{1} << (pos % 64);
      first = std::min(first, word);
      last = std::max(last, word);
    }
  };

  for (std::size_t i = 0; i < sources_.size(); ++i) {
    const NetId net = sources_[i];
    if (values[net] == source_values[i]) {
      continue;
    }
    values[net] = source_values[i];
    changed_nets.push_back(net);
    enqueueFanout(net);
  }

  // Gates pop in ascending topological position; a gate's inputs can only
  // be flipped by strictly earlier gates, so each dirty gate is evaluated
  // exactly once, on final input values. A flipped output only queues
  // later positions: in a later word, or higher in the current one, which
  // the inner loop re-reads.
  for (std::size_t word = first; word < words && word <= last; ++word) {
    while (pending[word] != 0) {
      const std::size_t pos =
          word * 64 + static_cast<std::size_t>(std::countr_zero(pending[word]));
      pending[word] &= pending[word] - 1;
      dirty_gates.push_back(order_[pos]);
      const bool output = evaluate(pos, values);
      const std::size_t net = output_net_[pos];
      if (output == values[net]) {
        continue;
      }
      values[net] = output;
      changed_nets.push_back(net);
      enqueueFanout(net);
    }
  }
}

std::vector<bool> randomPattern(std::size_t bits, Rng& rng) {
  std::vector<bool> pattern(bits);
  for (std::size_t i = 0; i < bits; ++i) {
    pattern[i] = rng.bernoulli(0.5);
  }
  return pattern;
}

}  // namespace nanoleak::logic
