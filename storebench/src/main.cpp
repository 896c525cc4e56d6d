// storebench — end-to-end and per-layer benchmark of ShardedObjectStore.
//
//   storebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--trace-out <dir>]
//   storebench --self-test     oracle fault-injection self-test only
//   storebench --layers        per-layer metric -> end-to-end metric map
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. --trace 0 reports the end-to-end
// metrics, --trace 1 the per-layer ones. The exit code is non-zero when the
// oracle rejects a read, the store's stats() disagree with the benchmark's
// own accounting, or a deterministic count fails to repeat.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "bench.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace storebench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out = ".bench_build/traces";
  bool self_test = false;
  bool layers = false;
};

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--self-test") {
      args.self_test = true;
    } else if (flag == "--layers") {
      args.layers = true;
    } else if (const char* v = value(); v == nullptr) {
      return false;
    } else if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--trace-out") {
      args.trace_out = v;
    } else {
      return false;
    }
  }
  return args.self_test || args.layers ||
         (!args.workload.empty() && args.seconds > 0);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Nearest-rank percentile; failed ops (infinite latency) sort last.
double percentile(std::vector<float> latencies, double q) {
  if (latencies.empty()) return 0;
  std::sort(latencies.begin(), latencies.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(latencies.size())));
  return latencies[std::max<std::size_t>(rank, 1) - 1];
}

/// Percentile of latencies in completion order, taken per consecutive chunk
/// of at least 1000 samples (so a p99 has at least ten samples beyond it)
/// and reported as the median over at most 20 chunks: a neighbour's burst
/// on a shared box then moves one chunk, not the reported tail.
double chunked_percentile(const std::vector<float>& latencies, double q) {
  const std::size_t n = latencies.size();
  const std::size_t chunks = std::clamp<std::size_t>(n / 1000, 1, 20);
  std::vector<double> per_chunk;
  for (std::size_t c = 0; c < chunks; ++c) {
    per_chunk.push_back(percentile(
        std::vector<float>(latencies.begin() + c * n / chunks,
                           latencies.begin() + (c + 1) * n / chunks),
        q));
  }
  return median(per_chunk);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

int run_untraced(const Spec& spec, const Args& args) {
  SampleLog log(args.seconds);
  // Set-up (construct, preload, warm-up) runs five times; setup_s is the
  // median, and the last deployment is the one measured.
  std::vector<double> setups;
  std::unique_ptr<Deployment> dep;
  for (int i = 0; i < 5; ++i) {
    dep.reset();
    const std::int64_t t0 = now_ns();
    dep = std::make_unique<Deployment>(spec, args.seed);
    dep->warm_up(args.seed ^ 0x5741524dULL);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const Snapshot before = Snapshot::take(*dep);
  const std::int64_t start = now_ns();
  Tally tally = dep->run(args.seconds, args.seed, log, nullptr);
  const double timed = static_cast<double>(now_ns() - start) / 1e9;
  const Snapshot after_run = Snapshot::take(*dep);
  tally.add(dep->sweep());
  // Peak memory of the measured process, before the statistics below
  // allocate anything.
  const double rss_mb = peak_rss_mb();
  std::vector<std::string> problems =
      check_accounting(*dep, before, Snapshot::take(*dep), tally);
  if (after_run.space_amp != before.space_amp) {
    problems.push_back("space_amp moved during the timed phase");
  }
  if (log.overflowed()) problems.push_back("sample log overflowed");

  // Goodput: verified completions per 1 s window of the timed phase, median
  // over windows (robust to a stall from a neighbour on a shared box).
  const double window = 1.0;
  const auto windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(args.seconds / window));
  std::vector<double> per_window(windows, 0);
  std::vector<float> reads;
  std::vector<float> writes;
  std::vector<float> all;
  std::span<Sample> samples = log.samples();
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.end_ns < b.end_ns; });
  for (const Sample& s : samples) {
    const double at = static_cast<double>(s.end_ns - start) / 1e9;
    const auto w = static_cast<std::size_t>(at / window);
    if (s.verified && at >= 0 && w < windows) per_window[w] += 1 / window;
    (is_write(s.kind) ? writes : reads).push_back(s.latency_us());
    all.push_back(s.latency_us());
  }
  const std::uint64_t ops = tally.attempted - spec.objects;  // minus sweep

  Report report;
  report.correct = problems.empty() && tally.mismatches == 0;
  report.attempted = tally.attempted;
  report.failed = tally.failed + tally.mismatches;
  report.add("goodput_ops_s", median(per_window), "ops/s");
  report.add("read_p50_us", chunked_percentile(reads, 0.50), "us");
  report.add("read_p99_us", chunked_percentile(reads, 0.99), "us");
  report.add("op_p50_us", chunked_percentile(all, 0.50), "us");
  report.add("ok_share",
             static_cast<double>(tally.verified) /
                 static_cast<double>(tally.attempted),
             "ratio");
  report.add("setup_s", median(setups), "s");
  report.add("peak_rss_mb", rss_mb, "MB");
  report.add("space_amp", before.space_amp, "ratio");

  std::printf("workload %s seed %llu: %llu ops in %.2f s (%zu reads, %zu "
              "writes), %llu lease-refused, %llu failed, %llu mismatched\n",
              spec.name, static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(ops), timed, reads.size(),
              writes.size(), static_cast<unsigned long long>(tally.refused),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.mismatches));
  std::printf("op p99 %.1f us over %zu ops\n", chunked_percentile(all, 0.99),
              all.size());
  if (!writes.empty()) {
    std::printf("write latency: p50 %.1f us, p99 %.1f us over %zu writes\n",
                chunked_percentile(writes, 0.50),
                chunked_percentile(writes, 0.99), writes.size());
  }
  std::printf("goodput per %.0f s window: min %.0f, median %.0f, max %.0f ops/s\n",
              window, *std::min_element(per_window.begin(), per_window.end()),
              median(per_window),
              *std::max_element(per_window.begin(), per_window.end()));
  std::printf("timed-phase buffer-pool heap refills: %llu\n",
              static_cast<unsigned long long>(after_run.heap_refills -
                                              before.heap_refills));
  std::printf("set-ups: %.3f %.3f %.3f %.3f %.3f s; oracle history %zu "
              "records\n",
              setups[0], setups[1], setups[2], setups[3], setups[4],
              dep->oracle().history_size());
  return report.emit(problems, dep->first_mismatch());
}

}  // namespace
}  // namespace storebench

int main(int argc, char** argv) {
  using namespace storebench;
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: storebench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> [--trace-out <dir>] | --self-test | "
                 "--layers\n");
    return 2;
  }
  // The oracle proves it catches every fault class before it judges a run.
  std::string log;
  const bool oracle_ok = oracle_self_test(&log);
  if (args.self_test || !oracle_ok) {
    std::fputs(log.c_str(), oracle_ok ? stdout : stderr);
    return oracle_ok ? 0 : 3;
  }
  if (args.layers) {
    print_layer_map(stdout);
    return 0;
  }
  const Spec* spec = find_spec(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "storebench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  return args.trace ? run_traced(*spec, args.seed, args.seconds,
                                 args.trace_out)
                    : run_untraced(*spec, args);
}
