// Shared pieces of the store benchmark: the workload table, the op
// generator, one deployment (store + oracle + completion plumbing), the two
// load generators and the accounting that is cross-checked against stats().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "core/protocol/sharded_store.hpp"
#include "oracle.hpp"
#include "workload/key_chooser.hpp"

namespace storebench {

using traperc::Rng;
using traperc::core::BatchResult;
using traperc::core::ShardedObjectStore;

std::int64_t now_ns();

/// One load shape. Every workload runs on the same deployment: 4 shards,
/// (15, 8) Reed-Solomon TRAP-ERC, 1 KiB chunks (8 KiB stripes).
struct Spec {
  const char* name;
  const char* why;
  std::size_t objects;
  std::size_t object_size;
  double zipf_theta;       ///< zipfian key choice with this theta; 0 = uniform
  double p_range;          ///< share of overwrite_range ops
  double p_full;           ///< share of full overwrites; the rest are reads
  bool streaming;          ///< reads are submit_get_streaming, not submit_get
  bool degraded;           ///< kill {0,8,9,10,11,12}, read with allow_degraded
  unsigned client_threads; ///< closed-loop clients; 0 = one pipelined submitter
  unsigned pool_threads;   ///< ShardedStoreOptions::threads
  std::size_t warmup_ops;  ///< untimed ops before timing (per set-up)
  std::size_t replay_ops;  ///< sampled ops in the traced run's replay
};

const Spec* find_spec(const std::string& name);
const std::vector<Spec>& all_specs();

enum class Kind : std::uint8_t { kGet, kStream, kOverwrite, kRange };
const char* kind_name(Kind kind);
inline bool is_write(Kind kind) {
  return kind == Kind::kOverwrite || kind == Kind::kRange;
}

struct Op {
  Kind kind = Kind::kGet;
  std::size_t obj = 0;
  std::size_t off = 0;  ///< range writes only
  std::size_t len = 0;  ///< range writes only
};

/// Seeded op stream for one client.
class OpGen {
 public:
  OpGen(const Spec& spec, std::uint64_t seed);
  Op next();

 private:
  const Spec& spec_;
  Rng rng_;
  std::unique_ptr<traperc::workload::KeyChooser> keys_;
};

/// Stripe-level protocol operations one op makes (StoreStats deltas).
struct StripeCost {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
};

/// Benchmark-side tallies, compared against the store's own stats().
struct Tally {
  std::uint64_t attempted = 0;   ///< client ops (a streaming get is one)
  std::uint64_t verified = 0;    ///< Ok and oracle-verified
  std::uint64_t refused = 0;     ///< kLeaseConflict
  std::uint64_t failed = 0;      ///< any other error
  std::uint64_t mismatches = 0;  ///< Ok but the oracle rejected the bytes
  std::uint64_t write_attempts = 0;
  std::uint64_t tickets_ok = 0;      ///< async tickets that reported Ok
  std::uint64_t tickets_failed = 0;  ///< async tickets that reported an error
  StripeCost stripes;                ///< expected protocol stripe ops
  std::uint64_t degraded_stripes = 0;  ///< expected degraded stripe serves

  void add(const Tally& other);
};

/// One timed op: when it finished, how long it took, and whether it counts.
struct Sample {
  std::int64_t end_ns = 0;
  float duration_us = 0;  ///< submit -> last callback, as measured
  Kind kind = Kind::kGet;
  bool verified = false;  ///< Ok and oracle-verified

  /// Latency for percentiles: an op that failed or was refused exceeds
  /// every limit.
  [[nodiscard]] float latency_us() const {
    return verified ? duration_us : std::numeric_limits<float>::infinity();
  }
};

/// Fixed-capacity sample store, allocated and touched before timing so the
/// benchmark's own memory does not grow with throughput (peak_rss_mb).
class SampleLog {
 public:
  /// Ops per second of timed phase the log has room for.
  static constexpr std::size_t kMaxOpsPerSecond = 40000;

  explicit SampleLog(double seconds)
      : slots_(static_cast<std::size_t>(seconds * kMaxOpsPerSecond) + 1) {}

  void add(const Sample& sample) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i < slots_.size()) slots_[i] = sample;
  }
  [[nodiscard]] std::span<Sample> samples() {
    return {slots_.data(), std::min(next_.load(), slots_.size())};
  }
  [[nodiscard]] bool overflowed() const { return next_.load() > slots_.size(); }

 private:
  std::vector<Sample> slots_;
  std::atomic<std::size_t> next_{0};
};

/// Completion records keyed by ticket id, filled by the store's callback.
struct Completion {
  BatchResult result;
  std::int64_t t = 0;
};

/// One traced interval: a call the benchmark made into a layer's public
/// function. `parent` is the span that caused it (0 for a root).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  const char* name = "";
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Spans recorded by the traced phase around the client's calls into the
/// store: store_client.op (submit -> last callback) with its child
/// store_client.submit (the submit call itself), plus sampled stats().
struct ClientSpans {
  std::vector<Span> spans;
  std::uint64_t next_id = 0;  ///< set per client thread so ids stay unique
  double in_flight_sum = 0;
  double queue_depth_sum = 0;
  std::uint64_t samples = 0;
};

/// The store under test plus everything the benchmark keeps beside it.
class Deployment {
 public:
  Deployment(const Spec& spec, std::uint64_t seed);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  const Spec& spec() const { return spec_; }
  ShardedObjectStore& store() { return *store_; }
  Oracle& oracle() { return oracle_; }
  std::uint64_t id(std::size_t obj) const { return ids_[obj]; }
  const traperc::core::ReadOptions& read_options() const { return read_; }
  std::size_t stripes_per_object() const;

  /// Runs `spec.warmup_ops` untimed ops through the normal load generators.
  void warm_up(std::uint64_t seed);

  /// Runs the workload for `seconds`, logging every op. `spans` non-null
  /// records the traced phase's client-side spans.
  Tally run(double seconds, std::uint64_t seed, SampleLog& log,
            ClientSpans* spans);

  /// Executes one op through the async surface and waits for it;
  /// `submit_ns` receives the submit call's duration.
  Sample execute_async(const Op& op, Tally& tally,
                       std::int64_t* submit_ns = nullptr);

  /// Reads every object back (sync get) and checks it against the oracle.
  Tally sweep();

  /// Stripe ops `op` makes when it executes.
  StripeCost cost(const Op& op) const;

  /// Sum of StorageNode::bytes_stored() over every node of every shard,
  /// divided by the live user bytes.
  double space_amp();

  /// Buffer-pool heap refills summed over shards.
  std::uint64_t heap_refills();

  std::string first_mismatch() const;

 private:
  Tally drive_closed(std::size_t ops, double seconds, std::uint64_t seed,
                     SampleLog* log, ClientSpans* spans);
  Tally drive_pipelined(std::size_t ops, double seconds, std::uint64_t seed,
                        SampleLog* log, ClientSpans* spans);
  void record_spans(ClientSpans& spans, const Sample& s,
                    std::int64_t submit_ns);
  void sample_stats(ClientSpans& spans);
  Completion wait_ticket(std::uint64_t ticket);
  bool try_take(std::uint64_t ticket, Completion& out);
  void note_mismatch(const std::string& what, const Op& op);
  std::vector<std::uint8_t> payload(const Op& op, std::uint64_t tag) const;

  const Spec& spec_;
  Oracle oracle_;
  std::vector<std::uint64_t> ids_;
  traperc::core::ReadOptions read_;

  std::mutex done_mutex_;
  std::condition_variable done_cv_;
  std::unordered_map<std::uint64_t, Completion> done_;

  mutable std::mutex mismatch_mutex_;
  std::string first_mismatch_;
  /// Last, so it is destroyed first: its callback writes done_.
  std::unique_ptr<ShardedObjectStore> store_;
};

/// Store configuration shared by the deployment and the traced replay.
traperc::core::ProtocolConfig bench_config();

}  // namespace storebench
