#pragma once

#include <stdexcept>
#include <string>

namespace are::core {

/// A coverage window within the contractual year: real treaties incept and
/// expire mid-year, so a layer only responds to occurrences whose YET
/// timestamp falls inside [from, to). This is the first consumer of the
/// timestamps the paper's YET carries alongside each event id. Every
/// engine applies the same semantics: out-of-window occurrences contribute
/// nothing and do not advance the aggregate-terms recurrence.
struct CoverageWindow {
  float from = 0.0f;  // inclusive, fraction of year
  float to = 1.0f;    // exclusive

  constexpr bool covers(float time) const noexcept { return time >= from && time < to; }
  constexpr bool full_year() const noexcept { return from <= 0.0f && to >= 1.0f; }

  void validate() const {
    if (!(from >= 0.0f) || !(to <= 1.0f) || !(from < to)) {
      throw std::invalid_argument("coverage window must satisfy 0 <= from < to <= 1");
    }
  }

  /// Parses "FROM:TO" (fractions of the year, e.g. "0.25:0.75") — the
  /// `--window` flag and the service's `window=` field. Each bound must be
  /// a number consumed whole; throws std::invalid_argument otherwise, and
  /// on a window validate() rejects.
  static CoverageWindow parse(const std::string& spec) {
    const auto reject = [&spec] {
      return std::invalid_argument(
          "window expects FROM:TO (fractions of the year, e.g. 0.25:0.75), got '" + spec + "'");
    };
    const auto bound = [&reject](const std::string& text) {
      std::size_t consumed = 0;
      float value = 0.0f;
      try {
        value = std::stof(text, &consumed);
      } catch (const std::exception&) {
        consumed = 0;
      }
      if (consumed == 0 || consumed != text.size()) throw reject();
      return value;
    };
    const std::size_t colon = spec.find(':');
    if (colon == std::string::npos) throw reject();
    CoverageWindow window{bound(spec.substr(0, colon)), bound(spec.substr(colon + 1))};
    window.validate();
    return window;
  }
};

}  // namespace are::core
