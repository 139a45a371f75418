#pragma once

// Input loading for the are_cli tool: the YET, the ELT paths of a command
// line, the one-layer portfolio built from them, and `info`'s ELT lines.

#include <cstddef>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "args.hpp"
#include "core/layer.hpp"
#include "elt/lookup.hpp"
#include "io/binary.hpp"
#include "parallel/fork_join.hpp"

namespace are::tools {

inline yet::YearEventTable load_yet(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open YET file: " + path);
  return io::read_yet_binary(in);
}

inline elt::EventLossTable load_elt(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open ELT file: " + path);
  return io::read_elt_binary(in);
}

/// Every --elt value in command-line order, then the positional .elt paths.
inline std::vector<std::string> elt_paths(const Args& args) {
  std::vector<std::string> paths = args.require_all("elt");
  for (const std::string& positional : args.positional()) {
    if (positional.size() > 4 && positional.substr(positional.size() - 4) == ".elt") {
      paths.push_back(positional);
    }
  }
  if (paths.empty()) throw std::runtime_error("at least one --elt FILE is required");
  return paths;
}

/// `are_cli info` for ELT files: one line per path, in the order given.
inline void describe_elts(std::ostream& out, const std::vector<std::string>& paths) {
  for (const std::string& path : paths) {
    const elt::EventLossTable table = load_elt(path);
    out << "ELT: " << table.size() << " event losses, max event id " << table.max_event()
        << ", total loss " << table.total_loss() << "\n";
  }
}

/// One layer under `terms` covering every ELT at `share`, in the order of
/// `paths`: the kernel sums the ELTs' losses per event in that order. The
/// ELTs load and build their lookup tables on hardware-concurrency workers;
/// when several fail, the error thrown is the first failing path's.
inline core::Portfolio build_portfolio(const std::vector<std::string>& paths,
                                       elt::LookupKind kind, std::size_t catalog_size,
                                       const financial::LayerTerms& terms, double share) {
  core::Layer layer;
  layer.id = 1;
  layer.terms = terms;
  layer.elts.resize(paths.size());
  parallel::fork_join(paths.size(), parallel::hardware_threads(), [&](std::size_t i) {
    const elt::EventLossTable table = load_elt(paths[i]);
    if (!table.empty() && table.max_event() >= catalog_size) {
      throw std::runtime_error("ELT " + paths[i] + " has events beyond the YET catalog universe");
    }
    core::LayerElt& layer_elt = layer.elts[i];
    layer_elt.lookup = elt::make_lookup(kind, table, catalog_size);
    layer_elt.terms.share = share;
    layer_elt.terms.validate();
  });
  core::Portfolio portfolio;
  portfolio.layers.push_back(std::move(layer));
  return portfolio;
}

}  // namespace are::tools
