// perfbench — the native half of the repository benchmark (perfbench/run.py
// drives it). Each subcommand prints one JSON object on stdout:
//
//   perfbench spin    --seconds S                    host warm-up on all threads
//   perfbench host    --gather-mb M --seconds S      gather and read-bandwidth ceilings
//   perfbench oneshot --yet F --catalog-size N ELT... [--trace] [--sharded ...]
//                     sequential reference report (+ the traced pass of `report`)
//   perfbench desk    --yet F --catalog-size N --terms F ELT... [--trace --requests F]
//                     sequential reference quotes (+ the in-process service pass)
//   perfbench loadgen --socket P --plan F --out F --conns N
//                     open-loop quote client over the serve socket

#include <algorithm>
#include <fstream>
#include <iostream>
#include <thread>

#include "common.hpp"
#include "elt/lookup.hpp"
#include "io/binary.hpp"
#include "perfmodel/cpu_model.hpp"

namespace perfbench {

Options::Options(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      positional_.push_back(token);
      continue;
    }
    const std::string key = token.substr(2);
    std::string value;
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) value = argv[++i];
    if (!values_.emplace(key, value).second) {
      throw std::runtime_error("option --" + key + " given twice");
    }
  }
}

std::string Options::get(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::string Options::require(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end() || it->second.empty()) {
    throw std::runtime_error("missing --" + key);
  }
  return it->second;
}

double Options::number(const std::string& key, double fallback) const {
  return has(key) ? std::stod(require(key)) : fallback;
}

std::string json_string(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void Json::key(const std::string& name) {
  if (!body_.empty()) body_ += ',';
  body_ += json_string(name) + ':';
}

Json& Json::num(const std::string& name, double value) {
  key(name);
  body_ += json_number(value);
  return *this;
}

Json& Json::str(const std::string& name, const std::string& value) {
  key(name);
  body_ += json_string(value);
  return *this;
}

Json& Json::raw(const std::string& name, const std::string& json) {
  key(name);
  body_ += json;
  return *this;
}

int Tracer::open(const std::string& name, const std::string& layer, int parent) {
  const double now = std::chrono::duration<double>(Clock::now() - origin_).count();
  spans_.push_back({name, layer, parent, now, now});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_s =
      std::chrono::duration<double>(Clock::now() - origin_).count();
}

std::string Tracer::json() const {
  std::string out = "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (i != 0) out += ',';
    out += Json()
               .str("name", span.name)
               .str("layer", span.layer)
               .num("parent", span.parent)
               .num("start_s", span.start_s)
               .num("end_s", span.end_s)
               .done();
  }
  return out + "]";
}

are::yet::YearEventTable load_yet(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open YET file: " + path);
  return are::io::read_yet_binary(in);
}

are::elt::EventLossTable load_elt(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open ELT file: " + path);
  return are::io::read_elt_binary(in);
}

are::core::Portfolio make_portfolio(const std::vector<are::elt::EventLossTable>& tables,
                                    std::size_t catalog_size) {
  are::core::Layer layer;
  layer.id = 1;
  for (const auto& table : tables) {
    are::core::LayerElt layer_elt;
    layer_elt.lookup = are::elt::make_lookup(are::elt::LookupKind::kDirectAccess, table,
                                             catalog_size);
    layer.elts.push_back(std::move(layer_elt));
  }
  are::core::Portfolio portfolio;
  portfolio.layers.push_back(std::move(layer));
  return portfolio;
}

double predict_kernel_seconds(const are::core::Portfolio& portfolio,
                              const are::yet::YearEventTable& yet_table, const Options& options) {
  const double threads = std::max(1u, std::thread::hardware_concurrency());
  are::perfmodel::MachineSpec machine;
  machine.physical_cores = static_cast<int>(threads);
  machine.smt_ways = 1;
  machine.mem_bandwidth_gb_per_s = options.number("read-gbps", 0);
  // The per-core memory-level parallelism that makes the model's
  // latency-limited random throughput at `threads` equal the measured
  // gather rate.
  machine.mlp_per_core = options.number("gather-per-s", 0) * machine.mem_latency_ns * 1e-9 /
                         std::pow(threads, machine.contention_exponent);
  const are::core::AccessCounts counts = are::core::predict_access_counts(portfolio, yet_table);
  return are::perfmodel::predict_cpu_time(counts, machine, static_cast<int>(threads)).seconds;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench spin|host|oneshot|desk|loadgen [options]\n";
    return 2;
  }
  const std::string command = argv[1];
  try {
    const perfbench::Options options(argc, argv, 2);
    if (command == "spin") return perfbench::cmd_spin(options);
    if (command == "host") return perfbench::cmd_host(options);
    if (command == "oneshot") return perfbench::cmd_oneshot(options);
    if (command == "desk") return perfbench::cmd_desk(options);
    if (command == "loadgen") return perfbench::cmd_loadgen(options);
    std::cerr << "perfbench: unknown command '" << command << "'\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "perfbench " << command << ": " << error.what() << "\n";
    return 1;
  }
}
