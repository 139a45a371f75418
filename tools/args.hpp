#pragma once

// Minimal dependency-free argument parser for the are_cli tool:
// --key=value / --key value / --flag, with typed access and error
// reporting. A repeated key keeps every value in command-line order; the
// single-value getters read the last one. Numeric getters consume the
// whole value: `--threads 2x` and `--memory-budget-mb 0.5` are errors, not
// 2 and 0. A value that is scaled or narrowed after parsing must fit once
// it is: `--memory-budget-mb 17592186044416` (2^44, whose bytes wrap to 0)
// and `--metrics-port 4294967296` are errors, not an unlimited budget and
// an ephemeral port.

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace are::tools {

class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string token = argv[i];
      if (token.rfind("--", 0) != 0) {
        positional_.push_back(std::move(token));
        continue;
      }
      token = token.substr(2);
      const auto equals = token.find('=');
      if (equals != std::string::npos) {
        values_[token.substr(0, equals)].push_back(token.substr(equals + 1));
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[token].push_back(argv[++i]);
      } else {
        values_[token].push_back("");  // bare flag
      }
    }
  }

  bool has(const std::string& key) const { return values_.count(key) > 0; }

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second.back();
  }

  std::string require(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end() || it->second.back().empty()) {
      throw std::runtime_error("missing required option --" + key);
    }
    return it->second.back();
  }

  /// Every value given for a repeatable key, in command-line order; each
  /// must be non-empty.
  std::vector<std::string> require_all(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return {};
    for (const std::string& value : it->second) {
      if (value.empty()) throw std::runtime_error("missing required option --" + key);
    }
    return it->second;
  }

  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    return parse_u64(key, it->second.back());
  }

  /// get_u64 for a value that is narrowed after parsing: one above `max`
  /// is an error naming the flag.
  std::uint64_t get_u64_at_most(const std::string& key, std::uint64_t fallback,
                                std::uint64_t max) const {
    const std::uint64_t value = get_u64(key, fallback);
    if (value > max) {
      throw std::runtime_error("option --" + key + " expects an integer at most " +
                               std::to_string(max) + ", got '" + get(key, "") + "'");
    }
    return value;
  }

  /// A whole number of MiB, in bytes; a count whose bytes do not fit a
  /// std::size_t is an error naming the flag.
  std::size_t get_mib(const std::string& key, std::uint64_t fallback) const {
    constexpr std::uint64_t kMaxMib = std::numeric_limits<std::size_t>::max() >> 20;
    return static_cast<std::size_t>(get_u64_at_most(key, fallback, kMaxMib)) << 20;
  }

  double get_double(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::string& value = it->second.back();
    std::size_t consumed = 0;
    double parsed = 0.0;
    try {
      parsed = std::stod(value, &consumed);
    } catch (const std::exception&) {
      consumed = 0;
    }
    if (consumed == 0 || consumed != value.size()) {
      throw std::runtime_error("option --" + key + " expects a number, got '" + value + "'");
    }
    return parsed;
  }

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  static std::uint64_t parse_u64(const std::string& key, const std::string& value) {
    std::uint64_t parsed = 0;
    const char* end = value.data() + value.size();
    const auto [stop, error] = std::from_chars(value.data(), end, parsed);
    if (error != std::errc{} || stop != end) {
      throw std::runtime_error("option --" + key + " expects a non-negative integer, got '" +
                               value + "'");
    }
    return parsed;
  }

  std::map<std::string, std::vector<std::string>> values_;
  std::vector<std::string> positional_;
};

}  // namespace are::tools
