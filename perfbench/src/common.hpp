#pragma once

// Shared pieces of the perfbench tool: a tiny argument reader, a JSON
// writer for the one object each subcommand prints, the in-memory span
// recorder of the traced passes, and the input loading that mirrors
// `are_cli` (files in, direct tables out).

#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "elt/event_loss_table.hpp"
#include "yet/year_event_table.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// `--key value` options plus positional arguments (the ELT paths). Unlike
/// the CLI's parser, a repeated key is an error rather than last-wins.
class Options {
 public:
  Options(int argc, char** argv, int first);
  bool has(const std::string& key) const { return values_.count(key) != 0; }
  std::string get(const std::string& key, const std::string& fallback = "") const;
  std::string require(const std::string& key) const;
  double number(const std::string& key, double fallback) const;
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// Flat JSON object writer: numbers keep all their digits (%.17g).
class Json {
 public:
  Json& num(const std::string& key, double value);
  Json& str(const std::string& key, const std::string& value);
  Json& raw(const std::string& key, const std::string& json);
  std::string done() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& name);
  std::string body_;
};

std::string json_string(const std::string& value);
std::string json_number(double value);

/// Spans recorded in memory by the benchmark's own code around calls into
/// each layer's public functions; written out once, at the end.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  int open(const std::string& name, const std::string& layer, int parent = -1);
  void close(int id);
  std::string json() const;

 private:
  struct Span {
    std::string name;
    std::string layer;
    int parent;
    double start_s;
    double end_s;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(Tracer& tracer, const std::string& name, const std::string& layer, int parent = -1)
      : tracer_(tracer), id_(tracer.open(name, layer, parent)) {}
  ~Scoped() { tracer_.close(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

are::yet::YearEventTable load_yet(const std::string& path);
are::elt::EventLossTable load_elt(const std::string& path);

/// One layer (id 1, default terms, share 1) over direct-access tables —
/// the book `are_cli report|serve` builds from the same files.
are::core::Portfolio make_portfolio(const std::vector<are::elt::EventLossTable>& tables,
                                    std::size_t catalog_size);

/// perfmodel::predict_cpu_time for the kernel on this host: the model's
/// MachineSpec filled with the measured --gather-per-s and --read-gbps.
double predict_kernel_seconds(const are::core::Portfolio& portfolio,
                              const are::yet::YearEventTable& yet_table, const Options& options);

/// The median of a sample (0 when empty).
double median(std::vector<double> values);

int cmd_spin(const Options& options);
int cmd_host(const Options& options);
int cmd_oneshot(const Options& options);
int cmd_desk(const Options& options);
int cmd_loadgen(const Options& options);


}  // namespace perfbench
