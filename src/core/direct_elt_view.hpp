#pragma once

#include <cstddef>
#include <vector>

#include "core/layer.hpp"
#include "elt/direct_access_table.hpp"
#include "financial/terms.hpp"

namespace are::core::detail {

/// Raw-pointer view of a direct access table: the fast path shared by
/// every lane type of the trial-block kernel (scalar loads, SIMD gathers).
/// Precondition: Layer::all_direct_access() — every lookup downcasts via
/// as_direct_access(). Keeping this in one place is part of the engines'
/// bit-identity contract: all of them must read the same data/universe
/// pair the same way.
struct DirectElt {
  const double* data;
  std::size_t universe;
  financial::FinancialTerms terms;
};

inline std::vector<DirectElt> direct_view(const Layer& layer) {
  std::vector<DirectElt> view;
  view.reserve(layer.elts.size());
  for (const LayerElt& layer_elt : layer.elts) {
    const elt::DirectAccessTable* table = layer_elt.lookup->as_direct_access();
    view.push_back({table->data(), table->universe(), layer_elt.terms});
  }
  return view;
}

}  // namespace are::core::detail
