// Result line, stats() snapshots and the accounting cross-check.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace storebench {

/// Point-in-time view of the store (taken while no op is in flight).
struct Snapshot {
  traperc::core::StoreStats stats;
  std::uint64_t heap_refills = 0;
  double space_amp = 0;
  double cpu_s = 0;                 ///< process user + system time
  std::uint64_t ctx_switches = 0;   ///< voluntary + involuntary

  static Snapshot take(Deployment& dep);
};

/// Compares the benchmark's tallies between two snapshots against the
/// store's own counters; one line per disagreement.
std::vector<std::string> check_accounting(Deployment& dep,
                                          const Snapshot& before,
                                          const Snapshot& after,
                                          const Tally& tally);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// Prints every metric, any problems, and the JSON result line; returns
  /// the process exit code (0 iff correct).
  int emit(std::vector<std::string> problems, const std::string& mismatch);
};

}  // namespace storebench
