#include "trace.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>

#include "core/protocol/cluster.hpp"
#include "core/protocol/lease.hpp"
#include "erasure/erasure_code.hpp"
#include "report.hpp"

namespace storebench {
namespace {

using traperc::core::SimCluster;

struct LayerRow {
  const char* metric;
  const char* unit;
  const char* moves;      ///< end-to-end metric it should move
  const char* exercised;  ///< workloads where the layer does the work
  const char* bypassed;   ///< workloads where it should read ~0 / not move
};

// The layer map: which end-to-end metric each per-layer metric should move,
// and on which workload. README.md carries the same table.
const LayerRow kLayerMap[] = {
    {"store_client.submit_us", "us", "goodput_ops_s, read_p99_us", "bulk_stream", "-"},
    {"store_client.async_overhead_us", "us", "goodput_ops_s, read_p99_us", "bulk_stream", "point_read, sector_update, degraded_read (inline: near 0)"},
    {"store_client.in_flight_mean", "count", "goodput_ops_s", "bulk_stream", "inline workloads (<= 1 per client)"},
    {"store_client.self_share", "ratio", "goodput_ops_s", "bulk_stream", "inline workloads"},
    {"process.ctx_switches_per_op", "1/op", "goodput_ops_s", "bulk_stream (pool handoff)", "point_read (contrast)"},
    {"process.cpu_ms_per_kop", "ms/kop", "goodput_ops_s", "all", "-"},
    {"sharded_store.get_us", "us", "read_p50_us", "point_read, sector_update, degraded_read", "bulk_stream"},
    {"sharded_store.overwrite_us", "us", "op_p50_us, goodput_ops_s", "sector_update, bulk_stream", "point_read, degraded_read"},
    {"sharded_store.range_write_us", "us", "op_p50_us", "sector_update", "all others"},
    {"sharded_store.stream_stripe_us", "us", "read_p50_us", "bulk_stream", "all others"},
    {"sharded_store.self_share", "ratio", "read_p50_us", "all (unattributed facade time)", "-"},
    {"sharded_store.lease_us", "us", "op_p50_us", "sector_update", "point_read, degraded_read (reads take no lease)"},
    {"sharded_store.lease_conflict_share", "ratio", "ok_share", "sector_update", "all others (0)"},
    {"sharded_store.queue_depth_mean", "count", "read_p99_us", "bulk_stream", "-"},
    {"sharded_store.stripes_per_op", "1/op", "goodput_ops_s", "all", "-"},
    {"cluster.read_stripe_us", "us", "read_p50_us", "point_read", "-"},
    {"cluster.write_stripe_us", "us", "op_p50_us", "sector_update, bulk_stream", "point_read, degraded_read (0)"},
    {"cluster.range_write_us", "us", "op_p50_us", "sector_update", "all others (0)"},
    {"cluster.blocks_read_per_op", "1/op", "read_p50_us", "all", "-"},
    {"cluster.blocks_written_per_op", "1/op", "op_p50_us", "sector_update, bulk_stream", "point_read, degraded_read (0)"},
    {"cluster.sim_events_per_stripe", "1/stripe", "read_p50_us", "all", "-"},
    {"cluster.write_amp", "ratio", "op_p50_us, space_amp", "sector_update, bulk_stream", "point_read, degraded_read (0)"},
    {"cluster.self_share", "ratio", "read_p50_us", "point_read", "-"},
    {"repair.degraded_stripe_us", "us", "read_p50_us", "degraded_read", "all others (0)"},
    {"repair.blocks_decoded_per_stripe", "1/stripe", "read_p50_us", "degraded_read", "all others (0)"},
    {"repair.degraded_share", "ratio", "goodput_ops_s", "degraded_read", "all others (0)"},
    {"repair.self_share", "ratio", "read_p50_us", "degraded_read", "all others (0)"},
    {"erasure.reconstruct_us", "us", "read_p50_us", "degraded_read", "all others (0)"},
    {"erasure.encode_us", "us", "-", "sector_update, bulk_stream (reference only)", "point_read, degraded_read (0)"},
    {"erasure.scale_delta_us", "us", "op_p50_us", "sector_update, bulk_stream", "point_read, degraded_read (0)"},
    {"erasure.write_share", "ratio", "op_p50_us", "sector_update, bulk_stream", "point_read, degraded_read (0)"},
    {"erasure.self_share", "ratio", "read_p50_us (degraded_read)", "degraded_read, sector_update", "point_read"},
    {"buffer_pool.heap_refills_per_kop", "1/kop", "peak_rss_mb, read_p99_us", "degraded_read, bulk_stream, sector_update", "point_read (0)"},
    {"trace.overhead_share", "ratio", "-", "all", "-"},
};

/// Replay-side span recorder (single-threaded).
class Tracer {
 public:
  static constexpr std::uint64_t kBase = std::uint64_t{1} << 56;

  std::uint64_t open(const char* name, std::uint64_t parent) {
    spans_.push_back(Span{kBase + spans_.size() + 1, parent, name, now_ns(), 0});
    return spans_.back().id;
  }
  void close(std::uint64_t id) { at(id).end = now_ns(); }
  std::uint64_t add(const char* name, std::uint64_t parent, std::int64_t start,
                    std::int64_t end) {
    spans_.push_back(Span{kBase + spans_.size() + 1, parent, name, start, end});
    return spans_.back().id;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Span& at(std::uint64_t id) { return spans_[id - kBase - 1]; }

  std::vector<Span> spans_;
};

/// Opens a span when a tracer is attached; a no-op otherwise.
std::uint64_t open_if(Tracer* tracer, const char* name, std::uint64_t parent) {
  return tracer != nullptr ? tracer->open(name, parent) : 0;
}
void close_if(Tracer* tracer, std::uint64_t id) {
  if (tracer != nullptr) tracer->close(id);
}

/// Counts from the cluster replay. They depend only on the seed and the op
/// sequence, so two replays of one seed must agree exactly.
struct ReplayCounts {
  std::uint64_t ops = 0;
  std::uint64_t stripe_calls = 0;
  std::uint64_t stripe_reads = 0;
  std::uint64_t blocks_read = 0;
  std::uint64_t blocks_written = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t write_bytes_sent = 0;
  std::uint64_t user_bytes_written = 0;
  std::uint64_t degraded_stripes = 0;
  std::uint64_t blocks_decoded = 0;

  bool operator==(const ReplayCounts&) const = default;
};

/// A benchmark-owned SimCluster with one shard's worth of the workload's
/// stripes, on which the stripe calls of sampled ops are replayed: the
/// facade's own stripe routes are private, so this is where the cluster,
/// repair and erasure layers are timed and counted.
class ClusterReplay {
 public:
  ClusterReplay(const Deployment& dep, std::uint64_t seed)
      : spec_(dep.spec()),
        cluster_(bench_config(), seed),
        k_(cluster_.config().k),
        chunk_(cluster_.config().chunk_len),
        per_object_((dep.stripes_per_object() + 3) / 4) {
    const unsigned n = cluster_.config().n;
    for (std::size_t s = 0; s < spec_.objects * per_object_; ++s) {
      if (!cluster_.write_stripe_sync(s, 0, chunks(s)).ok()) ok_ = false;
    }
    if (spec_.degraded) {
      for (const traperc::NodeId node : {0, 8, 9, 10, 11, 12}) {
        cluster_.fail_node(node);
      }
    }
    survivors_.clear();
    for (unsigned b = 0; b < n; ++b) {
      if (cluster_.node_states()[b]) survivors_.push_back(b);
    }
    blocks_.assign(n, std::vector<std::uint8_t>(chunk_));
    for (unsigned b = 0; b < n; ++b) fill_pattern(b + 1, 0, chunk_, blocks_[b].data());
    out_.assign(chunk_, 0);
    stats0_ = cluster_.stripe_sync_stats();
    events0_ = cluster_.engine().processed();
  }

  /// Local stripe of object stripe `s` on its shard (objects are laid out
  /// round-robin from shard 0, so every shard holds the same local pattern).
  std::size_t local(std::size_t obj, std::size_t s) const {
    return obj * per_object_ + s / 4;
  }

  void read(std::size_t stripe, Tracer* tracer, std::uint64_t parent) {
    ++counts_.stripe_calls;
    ++counts_.stripe_reads;
    const std::uint64_t span = open_if(tracer, "cluster.read_stripe", parent);
    auto got = cluster_.read_stripe_sync(stripe, 0, k_);
    close_if(tracer, span);
    if (got.ok()) {
      recycle(*got);
      return;
    }
    if (!spec_.degraded) {
      ok_ = false;
      return;
    }
    std::vector<traperc::NodeId> avoided;
    const std::uint64_t repair = open_if(tracer, "repair.degraded_stripe", parent);
    auto degraded = cluster_.read_stripe_degraded(stripe, 0, k_, {}, avoided);
    close_if(tracer, repair);
    if (!degraded.ok()) {
      ok_ = false;
      return;
    }
    ++counts_.degraded_stripes;
    std::vector<unsigned> decoded;
    for (unsigned b = 0; b < degraded->size(); ++b) {
      if ((*degraded)[b].decoded) decoded.push_back(b);
    }
    counts_.blocks_decoded += decoded.size();
    recycle(*degraded);
    // The decode itself, replayed on the same code with the survivors' rows.
    const std::uint64_t span_rc = open_if(tracer, "erasure.reconstruct", repair);
    for (const unsigned want : decoded) {
      const unsigned wants[] = {want};
      const auto plan = code().decode_plan(survivors_, wants);
      if (!plan) {
        ok_ = false;
        continue;
      }
      std::vector<const std::uint8_t*> present;
      for (const unsigned b : plan->read_blocks) present.push_back(blocks_[b].data());
      std::uint8_t* outs[] = {out_.data()};
      if (!code().reconstruct(plan->read_blocks, present, wants, outs, chunk_)) {
        ok_ = false;
      }
    }
    close_if(tracer, span_rc);
    decoded_blocks_ += decoded.size();
  }

  void write(std::size_t stripe, Tracer* tracer, std::uint64_t parent) {
    ++counts_.stripe_calls;
    auto images = chunks(stripe);
    const auto sent0 = cluster_.network().stats().bytes_sent;
    const std::uint64_t span = open_if(tracer, "cluster.write_stripe", parent);
    if (!cluster_.write_stripe_sync(stripe, 0, std::move(images)).ok()) ok_ = false;
    close_if(tracer, span);
    counts_.write_bytes_sent += cluster_.network().stats().bytes_sent - sent0;
    counts_.user_bytes_written += k_ * chunk_;
    scale_deltas(0, k_ - 1, tracer, span);
    if (tracer != nullptr) {
      // Reference only: a full-stripe encode of the same bytes. The store's
      // writes never call encode (parity moves by Alg. 1 deltas), so this is
      // not a span and takes no share.
      std::vector<const std::uint8_t*> data;
      std::vector<std::uint8_t*> parity;
      for (unsigned b = 0; b < k_; ++b) data.push_back(blocks_[b].data());
      for (unsigned b = k_; b < blocks_.size(); ++b) parity.push_back(blocks_[b].data());
      const std::int64_t t0 = now_ns();
      code().encode(data, parity, chunk_);
      encode_ns_ += now_ns() - t0;
      ++encodes_;
    }
  }

  void range(std::size_t stripe, std::size_t begin,
             std::span<const std::uint8_t> bytes, Tracer* tracer,
             std::uint64_t parent) {
    ++counts_.stripe_calls;
    const auto sent0 = cluster_.network().stats().bytes_sent;
    const std::uint64_t span = open_if(tracer, "cluster.range_write", parent);
    if (!cluster_.write_stripe_range_sync(stripe, begin, bytes).ok()) ok_ = false;
    close_if(tracer, span);
    counts_.write_bytes_sent += cluster_.network().stats().bytes_sent - sent0;
    counts_.user_bytes_written += bytes.size();
    scale_deltas(static_cast<unsigned>(begin / chunk_),
                 static_cast<unsigned>((begin + bytes.size() - 1) / chunk_),
                 tracer, span);
  }

  void end_op() { ++counts_.ops; }

  ReplayCounts counts() {
    ReplayCounts c = counts_;
    const auto stats = cluster_.stripe_sync_stats();
    c.blocks_read = stats.blocks_read - stats0_.blocks_read;
    c.blocks_written = stats.blocks_written - stats0_.blocks_written;
    c.sim_events = cluster_.engine().processed() - events0_;
    return c;
  }
  bool ok() const { return ok_; }
  double encode_us() const {
    return encodes_ ? static_cast<double>(encode_ns_) / 1e3 / encodes_ : 0;
  }
  std::uint64_t scaled_blocks() const { return scaled_blocks_; }
  std::uint64_t decoded_blocks() const { return decoded_blocks_; }

 private:
  const traperc::erasure::ErasureCode& code() const { return *cluster_.code(); }

  std::vector<std::vector<std::uint8_t>> chunks(std::size_t stripe) {
    std::vector<std::vector<std::uint8_t>> out;
    for (unsigned b = 0; b < k_; ++b) {
      out.push_back(cluster_.buffer_pool().acquire());
      fill_pattern(stripe * 64 + b + (++writes_ << 20), 0, chunk_, out.back().data());
    }
    return out;
  }

  void recycle(std::vector<traperc::core::BlockRead>& reads) {
    for (auto& block : reads) cluster_.buffer_pool().release(std::move(block.value));
  }

  /// The Alg. 1 parity work of writing data blocks [b0, b1]: one scaled
  /// delta per parity node per block, replayed on the cluster's code.
  void scale_deltas(unsigned b0, unsigned b1, Tracer* tracer,
                    std::uint64_t parent) {
    const std::uint64_t span = open_if(tracer, "erasure.scale_delta", parent);
    const unsigned parities = code().parity_count();
    for (unsigned b = b0; b <= b1; ++b) {
      for (unsigned j = 0; j < parities; ++j) {
        code().scale_delta(j, b, blocks_[b], out_);
      }
    }
    close_if(tracer, span);
    scaled_blocks_ += b1 - b0 + 1;
  }

  const Spec& spec_;
  SimCluster cluster_;
  unsigned k_;
  std::size_t chunk_;
  std::size_t per_object_;
  std::vector<unsigned> survivors_;
  std::vector<std::vector<std::uint8_t>> blocks_;
  std::vector<std::uint8_t> out_;
  traperc::core::StripeSyncStats stats0_;
  std::uint64_t events0_ = 0;
  std::uint64_t writes_ = 0;
  ReplayCounts counts_;
  bool ok_ = true;
  std::int64_t encode_ns_ = 0;
  std::uint64_t encodes_ = 0;
  std::uint64_t scaled_blocks_ = 0;
  std::uint64_t decoded_blocks_ = 0;
};

/// Replays the cluster-level stripe calls `op` makes, under `parent`.
void replay_stripes(ClusterReplay& replay, const Deployment& dep, const Op& op,
                    Tracer* tracer, std::uint64_t parent) {
  const std::size_t stripes = dep.stripes_per_object();
  const std::size_t capacity = dep.spec().object_size / stripes;
  switch (op.kind) {
    case Kind::kGet:
    case Kind::kStream:
      for (std::size_t s = 0; s < stripes; ++s) {
        replay.read(replay.local(op.obj, s), tracer, parent);
      }
      break;
    case Kind::kOverwrite:
      for (std::size_t s = 0; s < stripes; ++s) {
        replay.write(replay.local(op.obj, s), tracer, parent);
      }
      break;
    case Kind::kRange: {
      std::vector<std::uint8_t> bytes(op.len);
      fill_pattern(op.obj, op.off, op.off + op.len, bytes.data());
      for (std::size_t s = op.off / capacity; s <= (op.off + op.len - 1) / capacity;
           ++s) {
        const std::size_t begin = std::max(op.off, s * capacity);
        const std::size_t end = std::min(op.off + op.len, (s + 1) * capacity);
        replay.range(replay.local(op.obj, s), begin - s * capacity,
                     std::span(bytes).subspan(begin - op.off, end - begin),
                     tracer, parent);
      }
      break;
    }
  }
  replay.end_op();
}

/// The sync facade call for `op` on the real (otherwise idle) store, with
/// its cluster replay and lease replay as children; booked into `tally`.
void replay_facade(Deployment& dep, ClusterReplay& replay,
                   traperc::core::ObjectLeaseManager& leases, const Op& op,
                   Tracer& tracer, std::uint64_t root, Tally& tally) {
  auto& store = dep.store();
  Oracle& oracle = dep.oracle();
  const std::uint64_t id = dep.id(op.obj);
  const auto& ropts = dep.read_options();
  const StripeCost cost = dep.cost(op);
  ++tally.attempted;
  tally.stripes.reads += cost.reads;
  tally.stripes.writes += cost.writes;
  if (dep.spec().degraded && !is_write(op.kind)) tally.degraded_stripes += cost.reads;
  std::string verdict;
  bool ok = true;
  if (!is_write(op.kind)) {
    const std::int64_t inv = oracle.begin_read(op.obj);
    std::vector<std::uint8_t> bytes;
    if (op.kind == Kind::kGet) {
      const std::uint64_t span = tracer.open("sharded_store.get", root);
      auto got = store.get(id, ropts);
      tracer.close(span);
      ok = got.ok();
      if (ok) bytes = *std::move(got);
      replay_stripes(replay, dep, op, &tracer, span);
    } else {
      for (unsigned s = 0; s < dep.stripes_per_object(); ++s) {
        const std::uint64_t span = tracer.open("sharded_store.stream_stripe", root);
        auto got = store.read_object_stripe(id, s, ropts);
        tracer.close(span);
        ok = ok && got.ok();
        if (got.ok()) bytes.insert(bytes.end(), got->begin(), got->end());
        replay.read(replay.local(op.obj, s), &tracer, span);
      }
      replay.end_op();
    }
    verdict = oracle.end_read(op.obj, inv, now_ns(), ok, 0, bytes);
  } else {
    ++tally.write_attempts;
    const std::uint64_t tag = oracle.next_tag();
    const std::size_t off = op.kind == Kind::kRange ? op.off : 0;
    const std::size_t len = op.kind == Kind::kRange ? op.len : dep.spec().object_size;
    std::vector<std::uint8_t> bytes(len);
    fill_pattern(tag, off, off + len, bytes.data());
    oracle.begin_write(op.obj, tag, off, len, now_ns());
    const std::uint64_t span = tracer.open(
        op.kind == Kind::kRange ? "sharded_store.range_write" : "sharded_store.overwrite",
        root);
    const auto status = op.kind == Kind::kRange ? store.overwrite_range(id, off, bytes)
                                                : store.overwrite(id, bytes);
    tracer.close(span);
    ok = status.ok();
    oracle.end_write(op.obj, tag,
                     ok ? Oracle::WriteOutcome::kOk : Oracle::WriteOutcome::kFailed,
                     now_ns());
    const std::uint64_t lease = tracer.open("sharded_store.lease", span);
    auto token = leases.try_acquire(id);
    if (token.ok()) leases.release(*token);
    tracer.close(lease);
    replay_stripes(replay, dep, op, &tracer, span);
  }
  if (ok && verdict.empty()) {
    ++tally.verified;
  } else if (ok) {
    ++tally.mismatches;
  } else {
    ++tally.failed;
  }
}

/// A sampled op and its twin: the same op on another object. The async
/// call runs the op and the sync facade call and stripe replay run the
/// twin, so each call meets cold data as the workload's ops do, instead of
/// the bytes the previous call just pulled into cache.
std::pair<Op, Op> replay_pair(OpGen& gen) {
  const Op op = gen.next();
  Op twin = op;
  twin.obj = gen.next().obj;
  return {op, twin};
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0 : std::accumulate(v.begin(), v.end(), 0.0) / v.size();
}

double per(double num, double den) { return den > 0 ? num / den : 0; }

std::string layer_of(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? name : std::string(name, dot);
}

}  // namespace

void print_layer_map(std::FILE* out) {
  std::fprintf(out, "workloads (at most 3 threads each; see README.md):\n");
  for (const Spec& spec : all_specs()) {
    std::fprintf(out, "  %-14s %s\n", spec.name, spec.why);
  }
  std::fprintf(out, "\n%-36s %-9s %-28s %-44s %s\n", "per-layer metric", "unit",
               "should move", "exercised on", "bypassed on");
  for (const LayerRow& row : kLayerMap) {
    std::fprintf(out, "%-36s %-9s %-28s %-44s %s\n", row.metric, row.unit,
                 row.moves, row.exercised, row.bypassed);
  }
}

int run_traced(const Spec& spec, std::uint64_t seed, double seconds,
               const std::string& trace_out) {
  Deployment dep(spec, seed);
  dep.warm_up(seed ^ 0x5741524dULL);
  std::vector<std::string> problems;
  Tally total;

  // Phase U: untraced, for goodput and process counters.
  const double phase = seconds * 0.4;
  SampleLog samples(2 * phase);
  const Snapshot s0 = Snapshot::take(dep);
  const Tally tu = dep.run(phase, seed, samples, nullptr);
  const Snapshot s1 = Snapshot::take(dep);
  total.add(tu);

  // Phase T: the same load with client-side spans and sampled stats().
  ClientSpans client;
  const Tally tt = dep.run(phase, seed + 1, samples, &client);
  const Snapshot s2 = Snapshot::take(dep);
  total.add(tt);

  // Phase R: sampled ops replayed one at a time: async op, the sync facade
  // call, and that call's lease and stripe calls on benchmark-owned copies.
  Tracer tracer;
  ClusterReplay replay(dep, seed + 101);
  traperc::core::ObjectLeaseManager leases(
      traperc::core::ShardedStoreOptions{}.object_lease_duration_ns);
  const std::uint64_t replay_seed = Rng(seed).split(99).next_u64();
  {
    OpGen gen(spec, replay_seed);
    for (std::size_t i = 0; i < spec.replay_ops; ++i) {
      const auto [op, twin] = replay_pair(gen);
      const Sample s = dep.execute_async(op, total);
      const std::uint64_t root =
          tracer.add("store_client.op", 0,
                     s.end_ns - static_cast<std::int64_t>(s.duration_us * 1e3f),
                     s.end_ns);
      replay_facade(dep, replay, leases, twin, tracer, root, total);
    }
  }
  // The same op sequence on a fresh replay cluster must give the same counts.
  ClusterReplay again(dep, seed + 101);
  {
    OpGen gen(spec, replay_seed);
    for (std::size_t i = 0; i < spec.replay_ops; ++i) {
      const Op op = replay_pair(gen).second;
      if (op.kind == Kind::kStream) {
        for (unsigned s = 0; s < dep.stripes_per_object(); ++s) {
          again.read(again.local(op.obj, s), nullptr, 0);
        }
        again.end_op();
      } else {
        replay_stripes(again, dep, op, nullptr, 0);
      }
    }
  }
  const ReplayCounts counts = replay.counts();
  if (!(counts == again.counts())) {
    problems.push_back("replay counts did not repeat on a fresh cluster");
  }
  if (!replay.ok() || !again.ok()) problems.push_back("a replayed stripe call failed");
  if (samples.overflowed()) problems.push_back("sample log overflowed");

  total.add(dep.sweep());
  const Snapshot end = Snapshot::take(dep);
  for (auto& p : check_accounting(dep, s0, end, total)) problems.push_back(p);
  if (end.space_amp != s0.space_amp) problems.push_back("space_amp moved");

  // Span arithmetic: self time = duration minus the children's durations.
  // Replayed children are separate executions, attributed by duration.
  std::map<std::uint64_t, double> child_ns;
  for (const Span& sp : tracer.spans()) {
    if (sp.parent != 0) child_ns[sp.parent] += static_cast<double>(sp.end - sp.start);
  }
  std::map<std::string, double> self_ns;
  std::map<std::string, std::vector<double>> dur_us;
  double root_ns = 0;
  std::vector<double> async_overhead_us;
  for (const Span& sp : tracer.spans()) {
    const double d = static_cast<double>(sp.end - sp.start);
    const double children = child_ns.count(sp.id) ? child_ns[sp.id] : 0.0;
    self_ns[layer_of(sp.name)] += std::max(0.0, d - children);
    dur_us[sp.name].push_back(d / 1e3);
    if (sp.parent == 0) {
      root_ns += d;
      async_overhead_us.push_back((d - children) / 1e3);
    }
  }
  const auto share = [&](const char* layer) { return per(self_ns[layer], root_ns); };
  const auto span_mean = [&](const char* name) { return mean(dur_us[name]); };
  const auto span_sum = [&](const char* name) {
    return std::accumulate(dur_us[name].begin(), dur_us[name].end(), 0.0);
  };

  std::vector<double> submit_us;
  for (const Span& sp : client.spans) {
    if (std::strcmp(sp.name, "store_client.submit") == 0) {
      submit_us.push_back(static_cast<double>(sp.end - sp.start) / 1e3);
    }
  }
  const double ops_u = static_cast<double>(tu.attempted);
  const double goodput_u = static_cast<double>(tu.verified) / phase;
  const double goodput_t = static_cast<double>(tt.verified) / phase;
  const double writes_t = static_cast<double>(tt.write_attempts);

  Report report;
  report.attempted = total.attempted;
  report.failed = total.failed + total.mismatches;
  report.correct = total.mismatches == 0;
  report.add("store_client.submit_us", mean(submit_us), "us");
  report.add("store_client.async_overhead_us", mean(async_overhead_us), "us");
  report.add("store_client.in_flight_mean", per(client.in_flight_sum, client.samples), "count");
  report.add("store_client.self_share", share("store_client"), "ratio");
  report.add("process.ctx_switches_per_op",
             per(static_cast<double>(s1.ctx_switches - s0.ctx_switches), ops_u), "1/op");
  report.add("process.cpu_ms_per_kop", per((s1.cpu_s - s0.cpu_s) * 1e3, ops_u / 1e3), "ms/kop");
  report.add("sharded_store.get_us", span_mean("sharded_store.get"), "us");
  report.add("sharded_store.overwrite_us", span_mean("sharded_store.overwrite"), "us");
  report.add("sharded_store.range_write_us", span_mean("sharded_store.range_write"), "us");
  report.add("sharded_store.stream_stripe_us", span_mean("sharded_store.stream_stripe"), "us");
  report.add("sharded_store.self_share", share("sharded_store"), "ratio");
  report.add("sharded_store.lease_us", span_mean("sharded_store.lease"), "us");
  report.add("sharded_store.lease_conflict_share", per(static_cast<double>(tt.refused), writes_t), "ratio");
  report.add("sharded_store.queue_depth_mean", per(client.queue_depth_sum, client.samples), "count");
  report.add("sharded_store.stripes_per_op",
             per(static_cast<double>(s2.stats.stripe_reads - s1.stats.stripe_reads +
                                     s2.stats.stripe_writes - s1.stats.stripe_writes),
                 static_cast<double>(tt.attempted)),
             "1/op");
  report.add("cluster.read_stripe_us", span_mean("cluster.read_stripe"), "us");
  report.add("cluster.write_stripe_us", span_mean("cluster.write_stripe"), "us");
  report.add("cluster.range_write_us", span_mean("cluster.range_write"), "us");
  report.add("cluster.blocks_read_per_op", per(static_cast<double>(counts.blocks_read), counts.ops), "1/op");
  report.add("cluster.blocks_written_per_op", per(static_cast<double>(counts.blocks_written), counts.ops), "1/op");
  report.add("cluster.sim_events_per_stripe", per(static_cast<double>(counts.sim_events), counts.stripe_calls), "1/stripe");
  report.add("cluster.write_amp", per(static_cast<double>(counts.write_bytes_sent), counts.user_bytes_written), "ratio");
  report.add("cluster.self_share", share("cluster"), "ratio");
  report.add("repair.degraded_stripe_us", span_mean("repair.degraded_stripe"), "us");
  report.add("repair.blocks_decoded_per_stripe", per(static_cast<double>(counts.blocks_decoded), counts.degraded_stripes), "1/stripe");
  report.add("repair.degraded_share", per(static_cast<double>(counts.degraded_stripes), counts.stripe_reads), "ratio");
  report.add("repair.self_share", share("repair"), "ratio");
  report.add("erasure.reconstruct_us", per(span_sum("erasure.reconstruct"), replay.decoded_blocks()), "us");
  report.add("erasure.encode_us", replay.encode_us(), "us");
  report.add("erasure.scale_delta_us", per(span_sum("erasure.scale_delta"), replay.scaled_blocks()), "us");
  report.add("erasure.write_share",
             per(span_sum("erasure.scale_delta"),
                 span_sum("sharded_store.overwrite") + span_sum("sharded_store.range_write")),
             "ratio");
  report.add("erasure.self_share", share("erasure"), "ratio");
  report.add("buffer_pool.heap_refills_per_kop",
             per(static_cast<double>(s1.heap_refills - s0.heap_refills), ops_u / 1e3), "1/kop");
  report.add("trace.overhead_share", goodput_u > 0 ? 1 - goodput_t / goodput_u : 0, "ratio");

  std::printf("traced %s seed %llu: untraced %.0f ops/s, traced %.0f ops/s, "
              "%zu replayed ops, %zu client spans, %zu replay spans\n",
              spec.name, static_cast<unsigned long long>(seed), goodput_u, goodput_t,
              spec.replay_ops, client.spans.size(), tracer.spans().size());
  std::printf("self-time shares of replayed op wall time: store_client %.3f, "
              "sharded_store (unattributed) %.3f, cluster %.3f, repair %.3f, "
              "erasure %.3f\n",
              share("store_client"), share("sharded_store"), share("cluster"),
              share("repair"), share("erasure"));
  std::printf("replay counts (repeat exactly per seed): blocks_read %llu, "
              "blocks_written %llu, sim_events %llu over %llu stripe calls, "
              "space_amp %.6f\n",
              static_cast<unsigned long long>(counts.blocks_read),
              static_cast<unsigned long long>(counts.blocks_written),
              static_cast<unsigned long long>(counts.sim_events),
              static_cast<unsigned long long>(counts.stripe_calls), end.space_amp);

  // Spans were kept in memory; write them out now that timing is over.
  std::error_code ec;
  std::filesystem::create_directories(trace_out, ec);
  std::ofstream file(trace_out + "/" + spec.name + ".tsv");
  if (file) {
    file << "id\tparent\tname\tstart_ns\tend_ns\n";
    const std::vector<Span>* lists[] = {&client.spans, &tracer.spans()};
    for (const auto* list : lists) {
      for (const Span& sp : *list) {
        file << sp.id << '\t' << sp.parent << '\t' << sp.name << '\t' << sp.start
             << '\t' << sp.end << '\n';
      }
    }
  } else {
    std::fprintf(stderr, "storebench: cannot write spans under %s\n", trace_out.c_str());
  }
  return report.emit(problems, dep.first_mismatch());
}

}  // namespace storebench
