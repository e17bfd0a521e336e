#include "engine/plan_cache.h"

#include <ios>
#include <sstream>
#include <utility>

#include "engine/table_cache.h"
#include "util/error.h"

namespace nanoleak::engine {

std::string PlanCache::contentKey(
    const logic::LogicNetlist& netlist, const device::Technology& technology,
    const core::EstimatorOptions& estimator_options,
    const core::CharacterizationOptions& characterization_options) {
  std::ostringstream key;
  // Netlist structure: net ids are dense indices, so (kind, input ids,
  // output id) per gate plus the DFF pin pairs and the primary
  // input/output id lists pin the graph exactly. Names are deliberately
  // omitted - renaming a net cannot change leakage.
  key << "nets:" << netlist.netCount() << "|g:";
  for (const logic::Gate& gate : netlist.gates()) {
    key << gates::toString(gate.kind) << '(';
    for (logic::NetId input : gate.inputs) {
      key << input << ',';
    }
    key << ')' << gate.output << ';';
  }
  key << "|dff:";
  for (const logic::Dff& dff : netlist.dffs()) {
    key << dff.d << '>' << dff.q << ';';
  }
  key << "|pi:";
  for (logic::NetId net : netlist.primaryInputs()) {
    key << net << ',';
  }
  key << "|po:";
  for (logic::NetId net : netlist.primaryOutputs()) {
    key << net << ',';
  }
  // Technology corner: exact hexfloat fingerprint shared with the table
  // cache, so the two caches agree on what "same corner" means.
  key << "|tech:" << TableCache::technologyKey(technology);
  // Estimator + characterization knobs that change the compiled tables.
  key << "|est:" << estimator_options.with_loading;
  key << "|grid:" << std::hexfloat;
  for (double amps : characterization_options.loading_grid) {
    key << amps << ',';
  }
  key << std::defaultfloat << "|solver:"
      << static_cast<int>(characterization_options.solver_path);
  return key.str();
}

std::shared_ptr<const PlanCache::Entry> PlanCache::get(const std::string& key,
                                                       const Builder& build) {
  return cache_.get(key, [&] {
    std::shared_ptr<const Entry> entry = build();
    require(entry && entry->netlist && entry->library && entry->plan,
            "PlanCache: builder must return a fully populated entry");
    return entry;
  });
}

}  // namespace nanoleak::engine
