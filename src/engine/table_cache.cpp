#include "engine/table_cache.h"

#include <ios>
#include <sstream>
#include <utility>

#include "util/error.h"
#include "util/fault.h"

namespace nanoleak::engine {

namespace {

void appendFingerprint(std::ostream& out, const device::DeviceParams& p) {
  // Every numeric member participates: two corners that differ in any
  // model parameter must never share a cache entry. Keep in sync with
  // device::DeviceParams.
  out << p.name << '/' << device::toString(p.polarity) << std::hexfloat;
  for (double value :
       {p.length, p.tox, p.overlap_length, p.junction_depth, p.vth0,
        p.i_spec, p.n0, p.dibl0, p.k_dibl_tox, p.vth_roll, p.l_roll,
        p.body_gamma, p.phi_s, p.vth_tc, p.mu_tc, p.lambda, p.zeta_sat,
        p.theta_vsat, p.jg0, p.alpha_v, p.beta_tox, p.k_gb, p.gate_tc,
        p.halo_doping, p.a_btbt, p.b_btbt, p.vbi, p.tox_nom, p.halo_nom,
        p.k_vth_halo}) {
    out << '/' << value;
  }
  out << std::defaultfloat;
}

/// technologyKey() with `temperatures` (comma-separated) in place of the
/// technology's own temperature.
void appendTechnology(std::ostream& key, const device::Technology& technology,
                      const std::vector<double>& temperatures) {
  key << std::hexfloat << technology.vdd << '/';
  for (std::size_t t = 0; t < temperatures.size(); ++t) {
    key << (t == 0 ? "" : ",") << temperatures[t];
  }
  key << '/' << technology.unit_width_n << '/' << technology.beta_ratio
      << std::defaultfloat << "|n:";
  appendFingerprint(key, technology.nmos);
  key << "|p:";
  appendFingerprint(key, technology.pmos);
}

}  // namespace

TableCache::TableCache()
    : TableCache([](const device::Technology& technology, gates::GateKind kind,
                    const std::vector<double>& temperatures,
                    const core::CharacterizationOptions& options) {
        return core::Characterizer(technology, options)
            .characterizeKind(kind, temperatures);
      }) {}

TableCache::TableCache(Builder builder)
    : builder_(std::move(builder)), cache_("table_cache") {}

std::string TableCache::technologyKey(const device::Technology& technology) {
  std::ostringstream key;
  appendTechnology(key, technology, {technology.temperature_k});
  return key.str();
}

std::string TableCache::cornerKey(
    const device::Technology& technology, gates::GateKind kind,
    const std::vector<double>& temperatures,
    const core::CharacterizationOptions& options) {
  std::ostringstream key;
  key << gates::toString(kind) << '|';
  appendTechnology(key, technology, temperatures);
  key << "|grid:" << std::hexfloat;
  for (double amps : options.loading_grid) {
    key << amps << ',';
  }
  key << std::defaultfloat
      << "|solver:" << static_cast<int>(options.solver_path);
  return key.str();
}

std::shared_ptr<const TableCache::KindAxis> TableCache::axis(
    const device::Technology& technology, gates::GateKind kind,
    const std::vector<double>& temperatures,
    const core::CharacterizationOptions& options) {
  return cache_.get(cornerKey(technology, kind, temperatures, options), [&] {
    FAULT_POINT("table_cache.build");
    auto tables = std::make_shared<const KindAxis>(
        builder_(technology, kind, temperatures, options));
    require(tables->size() == temperatures.size(),
            "TableCache: builder must return one table set per temperature");
    return tables;
  });
}

std::shared_ptr<const TableCache::KindTables> TableCache::kindTables(
    const device::Technology& technology, gates::GateKind kind,
    const core::CharacterizationOptions& options) {
  // characterizeKind(kind) is characterizeKind(kind, {T})[0], so a plain
  // corner and a one-temperature axis are the same entry.
  std::shared_ptr<const KindAxis> tables =
      axis(technology, kind, {technology.temperature_k}, options);
  return {tables, &tables->front()};
}

core::LeakageLibrary TableCache::library(
    const device::Technology& technology,
    const std::vector<gates::GateKind>& kinds,
    const core::CharacterizationOptions& options) {
  return std::move(
      libraries(technology, kinds, {technology.temperature_k}, options)
          .front());
}

std::vector<core::LeakageLibrary> TableCache::libraries(
    const device::Technology& base,
    const std::vector<gates::GateKind>& kinds,
    const std::vector<double>& temperatures,
    const core::CharacterizationOptions& options) {
  core::LeakageLibrary::Meta meta;
  meta.technology_name = base.nmos.name + "/" + base.pmos.name;
  meta.vdd = base.vdd;
  std::vector<core::LeakageLibrary> out;
  out.reserve(temperatures.size());
  for (double temperature_k : temperatures) {
    meta.temperature_k = temperature_k;
    out.emplace_back(meta);
  }
  for (gates::GateKind kind : kinds) {
    const std::shared_ptr<const KindAxis> tables =
        axis(base, kind, temperatures, options);
    for (std::size_t t = 0; t < out.size(); ++t) {
      out[t].insert(kind, (*tables)[t]);
    }
  }
  return out;
}

}  // namespace nanoleak::engine
