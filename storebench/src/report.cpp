#include "report.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>

namespace storebench {

Snapshot Snapshot::take(Deployment& dep) {
  Snapshot snap;
  snap.stats = dep.store().stats();
  snap.heap_refills = dep.heap_refills();
  snap.space_amp = dep.space_amp();
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  snap.cpu_s = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
               static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
  snap.ctx_switches = static_cast<std::uint64_t>(usage.ru_nvcsw + usage.ru_nivcsw);
  return snap;
}

std::vector<std::string> check_accounting(Deployment& dep,
                                          const Snapshot& before,
                                          const Snapshot& after,
                                          const Tally& tally) {
  std::vector<std::string> problems;
  const auto expect = [&](const char* what, std::uint64_t store_delta,
                          std::uint64_t bench) {
    if (store_delta == bench) return;
    problems.push_back(std::string(what) + ": stats() moved by " +
                       std::to_string(store_delta) + ", benchmark counted " +
                       std::to_string(bench));
  };
  const auto& b = before.stats;
  const auto& a = after.stats;
  expect("ops_succeeded", a.ops_succeeded - b.ops_succeeded, tally.tickets_ok);
  expect("ops_failed", a.ops_failed - b.ops_failed, tally.tickets_failed);
  expect("object_leases.conflicts",
         a.object_leases.conflicts - b.object_leases.conflicts, tally.refused);
  expect("stripe_reads", a.stripe_reads - b.stripe_reads, tally.stripes.reads);
  expect("stripe_writes", a.stripe_writes - b.stripe_writes,
         tally.stripes.writes);
  expect("degraded.stripe_reads",
         a.degraded.stripe_reads - b.degraded.stripe_reads,
         tally.degraded_stripes);
  if (dep.spec().degraded && a.degraded.stripe_reads == 0) {
    problems.push_back("degraded.stripe_reads is 0 on a degraded workload");
  }
  if (!dep.spec().degraded && a.degraded.stripe_reads != 0) {
    problems.push_back("degraded.stripe_reads is " +
                       std::to_string(a.degraded.stripe_reads) +
                       " on a healthy workload");
  }
  if (a.remap.entries_active != 0) {
    problems.push_back("remap.entries_active is " +
                       std::to_string(a.remap.entries_active) + " at the end");
  }
  return problems;
}

int Report::emit(std::vector<std::string> problems,
                 const std::string& mismatch) {
  if (!mismatch.empty()) {
    problems.push_back("oracle mismatch: " + mismatch);
  }
  correct = correct && problems.empty();
  for (const Metric& m : metrics) {
    std::printf("  %-36s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& p : problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    char value[64];
    // JSON has no infinity: a percentile past every failed op is reported
    // as the largest finite double.
    std::snprintf(value, sizeof(value), "%.10g",
                  std::isfinite(m.value) ? m.value : 1.7976931348623157e308);
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace storebench
