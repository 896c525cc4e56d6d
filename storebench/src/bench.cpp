#include "bench.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <thread>

namespace storebench {

using traperc::core::ErrorCode;
using traperc::core::ProtocolConfig;
using traperc::core::ShardedStoreOptions;

namespace {

constexpr unsigned kShards = 4;
constexpr std::size_t kChunkLen = 1024;
/// For (15, 8, 1) this starves every block's read quorum; degraded reads
/// then reconstruct from the nine survivors.
constexpr traperc::NodeId kReadStarveKills[] = {0, 8, 9, 10, 11, 12};

// Why each workload exists is also the `why` of BENCHMARK.json; README.md
// maps each per-layer metric to the workloads that exercise it.
const std::vector<Spec> kSpecs = {
    {"point_read",
     "Alg. 2 quorum reads of 8 KiB objects, uniform over 32 MiB; leases, "
     "encode, decode and the pool idle",
     4096, 8192, 0.0, 0.0, 0.0, false, false, 2, 0, 4000, 1500},
    {"sector_update",
     "zipfian 64 KiB objects: 60% 1-512 B range writes, 10% full overwrites, "
     "30% gets; leases, Alg. 1 parity deltas, splices",
     512, 65536, 0.6, 0.6, 0.1, false, false, 2, 0, 1500, 600},
    {"bulk_stream",
     "256 KiB streaming gets and overwrites through the pooled store's async "
     "window: ThreadPool, TaskGroup, StoreClient callbacks",
     128, 262144, 0.0, 0.0, 0.2, true, false, 0, 2, 96, 60},
    {"degraded_read",
     "point_read with read quorums starved by a node-kill set, so every "
     "stripe is served by repair decode",
     4096, 8192, 0.0, 0.0, 0.0, false, true, 2, 0, 2000, 1000},
};

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const std::vector<Spec>& all_specs() { return kSpecs; }

const Spec* find_spec(const std::string& name) {
  for (const Spec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kGet: return "get";
    case Kind::kStream: return "stream_get";
    case Kind::kOverwrite: return "overwrite";
    case Kind::kRange: return "range_write";
  }
  return "?";
}

ProtocolConfig bench_config() {
  ProtocolConfig config = ProtocolConfig::for_code(15, 8, 1);
  config.chunk_len = kChunkLen;
  return config;
}

void Tally::add(const Tally& o) {
  attempted += o.attempted;
  verified += o.verified;
  refused += o.refused;
  failed += o.failed;
  mismatches += o.mismatches;
  write_attempts += o.write_attempts;
  tickets_ok += o.tickets_ok;
  tickets_failed += o.tickets_failed;
  stripes.reads += o.stripes.reads;
  stripes.writes += o.stripes.writes;
  degraded_stripes += o.degraded_stripes;
}

OpGen::OpGen(const Spec& spec, std::uint64_t seed)
    : spec_(spec),
      rng_(seed),
      keys_(traperc::workload::make_key_chooser(
          spec.zipf_theta > 0 ? traperc::workload::KeyDist::kZipfian
                              : traperc::workload::KeyDist::kUniform,
          spec.zipf_theta)) {}

Op OpGen::next() {
  Op op;
  op.obj = keys_->next(rng_, spec_.objects);
  const double roll = rng_.next_double();
  if (roll < spec_.p_range) {
    op.kind = Kind::kRange;
    op.len = 1 + rng_.next_below(512);
    op.off = rng_.next_below(spec_.object_size - op.len + 1);
  } else if (roll < spec_.p_range + spec_.p_full) {
    op.kind = Kind::kOverwrite;
  } else {
    op.kind = spec_.streaming ? Kind::kStream : Kind::kGet;
  }
  return op;
}

Deployment::Deployment(const Spec& spec, std::uint64_t seed)
    : spec_(spec),
      oracle_(spec.objects, spec.object_size, seed, &now_ns) {
  ShardedStoreOptions options;
  options.shards = kShards;
  options.threads = spec.pool_threads;
  options.async_window = 8;
  options.seed = seed;
  store_ = std::make_unique<ShardedObjectStore>(bench_config(), options);
  ids_.reserve(spec.objects);
  std::vector<std::uint8_t> value(spec.object_size);
  for (std::size_t obj = 0; obj < spec.objects; ++obj) {
    const std::uint64_t tag = oracle_.next_tag();
    fill_pattern(tag, 0, spec.object_size, value.data());
    auto id = store_->put(value);
    if (!id.ok()) {
      std::fprintf(stderr, "storebench: preload put failed: %s\n",
                   id.status().to_string().c_str());
      std::exit(2);
    }
    ids_.push_back(*id);
    oracle_.preload(obj, tag);
  }
  if (spec.degraded) {
    for (const traperc::NodeId node : kReadStarveKills) store_->fail_node(node);
    read_.allow_degraded = true;
  }
  store_->on_complete([this](const BatchResult& result) {
    Completion completion{result, now_ns()};
    {
      std::lock_guard lock(done_mutex_);
      done_.emplace(result.ticket.id, std::move(completion));
    }
    done_cv_.notify_all();
  });
}

Deployment::~Deployment() { store_->wait_all(); }

std::size_t Deployment::stripes_per_object() const {
  const std::size_t capacity = store_->stripe_capacity();
  return (spec_.object_size + capacity - 1) / capacity;
}

StripeCost Deployment::cost(const Op& op) const {
  StripeCost cost;
  switch (op.kind) {
    case Kind::kGet:
    case Kind::kStream:
      cost.reads = stripes_per_object();
      break;
    case Kind::kOverwrite:
      cost.writes = stripes_per_object();
      break;
    case Kind::kRange: {
      // One partial-stripe write per touched stripe, plus one protocol read
      // per boundary block the range covers only in part (the splice).
      const std::size_t capacity = store_->stripe_capacity();
      const std::size_t end = op.off + op.len;
      for (std::size_t s = op.off / capacity; s <= (end - 1) / capacity; ++s) {
        ++cost.writes;
        const std::size_t begin = std::max(op.off, s * capacity);
        const std::size_t stop = std::min(end, (s + 1) * capacity);
        for (std::size_t b = begin / kChunkLen; b <= (stop - 1) / kChunkLen;
             ++b) {
          if (std::max(begin, b * kChunkLen) > b * kChunkLen ||
              std::min(stop, (b + 1) * kChunkLen) < (b + 1) * kChunkLen) {
            ++cost.reads;
          }
        }
      }
      break;
    }
  }
  return cost;
}

std::vector<std::uint8_t> Deployment::payload(const Op& op,
                                              std::uint64_t tag) const {
  const std::size_t begin = op.kind == Kind::kRange ? op.off : 0;
  const std::size_t end =
      op.kind == Kind::kRange ? op.off + op.len : spec_.object_size;
  std::vector<std::uint8_t> bytes(end - begin);
  fill_pattern(tag, begin, end, bytes.data());
  return bytes;
}

Completion Deployment::wait_ticket(std::uint64_t ticket) {
  std::unique_lock lock(done_mutex_);
  done_cv_.wait(lock, [&] { return done_.count(ticket) != 0; });
  auto node = done_.extract(ticket);
  return std::move(node.mapped());
}

bool Deployment::try_take(std::uint64_t ticket, Completion& out) {
  std::lock_guard lock(done_mutex_);
  auto node = done_.extract(ticket);
  if (node.empty()) return false;
  out = std::move(node.mapped());
  return true;
}

void Deployment::note_mismatch(const std::string& what, const Op& op) {
  std::lock_guard lock(mismatch_mutex_);
  if (!first_mismatch_.empty()) return;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s of object %zu: ", kind_name(op.kind),
                op.obj);
  first_mismatch_ = buf + what;
}

std::string Deployment::first_mismatch() const {
  std::lock_guard lock(mismatch_mutex_);
  return first_mismatch_;
}

namespace {

Oracle::WriteOutcome write_outcome(const traperc::core::Status& status) {
  if (status == ErrorCode::kLeaseConflict) return Oracle::WriteOutcome::kRefused;
  return status.ok() ? Oracle::WriteOutcome::kOk : Oracle::WriteOutcome::kFailed;
}

/// Books one finished op into the tallies and returns its sample.
Sample finish(const Op& op, const traperc::core::Status& status,
              const std::string& verdict, std::int64_t inv, std::int64_t cmp,
              Tally& tally) {
  Sample sample;
  sample.kind = op.kind;
  sample.end_ns = cmp;
  sample.duration_us = static_cast<float>(cmp - inv) / 1e3f;
  if (status.ok() && verdict.empty()) {
    ++tally.verified;
    sample.verified = true;
  } else if (status.ok()) {
    ++tally.mismatches;
  } else if (status == ErrorCode::kLeaseConflict) {
    ++tally.refused;
  } else {
    ++tally.failed;
  }
  return sample;
}

}  // namespace

Sample Deployment::execute_async(const Op& op, Tally& tally,
                                 std::int64_t* submit_ns) {
  ++tally.attempted;
  const std::uint64_t id = ids_[op.obj];
  if (op.kind == Kind::kGet || op.kind == Kind::kStream) {
    const std::int64_t inv = oracle_.begin_read(op.obj);
    std::vector<std::uint64_t> tickets;
    if (op.kind == Kind::kGet) {
      tickets.push_back(store_->submit_get(id, read_).id);
    } else {
      for (const auto& t : store_->submit_get_streaming(id, read_)) {
        tickets.push_back(t.id);
      }
    }
    if (submit_ns != nullptr) *submit_ns = now_ns() - inv;
    traperc::core::Status status;
    std::vector<std::uint8_t> bytes;
    std::int64_t cmp = inv;
    for (const std::uint64_t ticket : tickets) {
      Completion c = wait_ticket(ticket);
      cmp = std::max(cmp, c.t);
      if (c.result.status.ok()) {
        ++tally.tickets_ok;
        bytes.insert(bytes.end(), c.result.bytes.begin(), c.result.bytes.end());
      } else {
        ++tally.tickets_failed;
        if (status.ok()) status = c.result.status;
      }
    }
    const StripeCost c = cost(op);
    tally.stripes.reads += c.reads;
    if (spec_.degraded) tally.degraded_stripes += c.reads;
    const std::string verdict =
        oracle_.end_read(op.obj, inv, cmp, status.ok(), 0, bytes);
    if (!verdict.empty()) note_mismatch(verdict, op);
    return finish(op, status, verdict, inv, cmp, tally);
  }
  ++tally.write_attempts;
  const std::uint64_t tag = oracle_.next_tag();
  std::vector<std::uint8_t> bytes = payload(op, tag);
  const std::size_t off = op.kind == Kind::kRange ? op.off : 0;
  const std::int64_t inv = now_ns();
  oracle_.begin_write(op.obj, tag, off, bytes.size(), inv);
  const std::uint64_t ticket =
      op.kind == Kind::kRange
          ? store_->submit_overwrite_range(id, op.off, std::move(bytes)).id
          : store_->submit_overwrite(id, std::move(bytes)).id;
  if (submit_ns != nullptr) *submit_ns = now_ns() - inv;
  Completion c = wait_ticket(ticket);
  const traperc::core::Status& status = c.result.status;
  if (status.ok()) {
    ++tally.tickets_ok;
  } else {
    ++tally.tickets_failed;
  }
  const Oracle::WriteOutcome outcome = write_outcome(status);
  if (outcome != Oracle::WriteOutcome::kRefused) {
    const StripeCost cst = cost(op);
    tally.stripes.reads += cst.reads;
    tally.stripes.writes += cst.writes;
  }
  oracle_.end_write(op.obj, tag, outcome, c.t);
  return finish(op, status, {}, inv, c.t, tally);
}

void Deployment::record_spans(ClientSpans& spans, const Sample& s,
                              std::int64_t submit_ns) {
  const std::int64_t start =
      s.end_ns - static_cast<std::int64_t>(s.duration_us * 1e3f);
  const std::uint64_t op_id = ++spans.next_id;
  spans.spans.push_back(Span{++spans.next_id, op_id, "store_client.submit",
                             start, start + submit_ns});
  spans.spans.push_back(Span{op_id, 0, "store_client.op", start, s.end_ns});
}

void Deployment::sample_stats(ClientSpans& spans) {
  const auto stats = store_->stats();
  spans.in_flight_sum += static_cast<double>(stats.in_flight);
  for (const std::size_t depth : stats.shard_queue_depth) {
    spans.queue_depth_sum += static_cast<double>(depth);
  }
  ++spans.samples;
}

Tally Deployment::drive_closed(std::size_t ops, double seconds,
                               std::uint64_t seed, SampleLog* log,
                               ClientSpans* spans) {
  const unsigned threads = spec_.client_threads;
  std::vector<Tally> tallies(threads);
  std::vector<ClientSpans> per_spans(threads);
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> clients;
  for (unsigned t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      OpGen gen(spec_, Rng(seed).split(t).next_u64());
      ClientSpans& mine = per_spans[t];
      mine.next_id = (static_cast<std::uint64_t>(t) + 1) << 40;
      const std::size_t budget = ops / threads;
      for (std::size_t i = 0; ops > 0 ? i < budget : now_ns() < deadline;
           ++i) {
        std::int64_t submit = 0;
        Sample s = execute_async(gen.next(), tallies[t],
                                 spans != nullptr ? &submit : nullptr);
        if (log != nullptr) log->add(s);
        if (spans == nullptr) continue;
        record_spans(mine, s, submit);
        if (i % 128 == 0) sample_stats(mine);
      }
    });
  }
  for (auto& client : clients) client.join();
  Tally total;
  for (unsigned t = 0; t < threads; ++t) {
    total.add(tallies[t]);
    if (spans == nullptr) continue;
    const ClientSpans& mine = per_spans[t];
    spans->spans.insert(spans->spans.end(), mine.spans.begin(),
                        mine.spans.end());
    spans->in_flight_sum += mine.in_flight_sum;
    spans->queue_depth_sum += mine.queue_depth_sum;
    spans->samples += mine.samples;
  }
  return total;
}

Tally Deployment::drive_pipelined(std::size_t ops, double seconds,
                                  std::uint64_t seed, SampleLog* log,
                                  ClientSpans* spans) {
  // One submitter keeps the store's async window full; completions are
  // harvested between submits (the submit itself blocks while the window
  // is full), so the benchmark's own checking never runs on a pool worker.
  struct Pending {
    Op op;
    std::vector<std::uint64_t> tickets;
    std::size_t got = 0;
    std::int64_t inv = 0;
    std::int64_t last = 0;
    std::uint64_t tag = 0;
    std::int64_t submit_ns = 0;
    traperc::core::Status status;
    std::vector<std::uint8_t> bytes;
  };
  Tally tally;
  std::deque<Pending> pending;
  const auto settle = [&](Pending& p) {
    std::string verdict;
    if (p.op.kind == Kind::kStream) {
      const StripeCost c = cost(p.op);
      tally.stripes.reads += c.reads;
      verdict =
          oracle_.end_read(p.op.obj, p.inv, p.last, p.status.ok(), 0, p.bytes);
      if (!verdict.empty()) note_mismatch(verdict, p.op);
    } else {
      const Oracle::WriteOutcome outcome = write_outcome(p.status);
      if (outcome != Oracle::WriteOutcome::kRefused) {
        tally.stripes.writes += cost(p.op).writes;
      }
      oracle_.end_write(p.op.obj, p.tag, outcome, p.last);
    }
    Sample s = finish(p.op, p.status, verdict, p.inv, p.last, tally);
    if (log != nullptr) log->add(s);
    if (spans != nullptr) record_spans(*spans, s, p.submit_ns);
  };
  const auto harvest = [&](bool block) {
    for (auto it = pending.begin(); it != pending.end();) {
      Pending& p = *it;
      while (p.got < p.tickets.size()) {
        Completion c;
        if (block) {
          c = wait_ticket(p.tickets[p.got]);
        } else if (!try_take(p.tickets[p.got], c)) {
          break;
        }
        ++p.got;
        p.last = std::max(p.last, c.t);
        if (c.result.status.ok()) {
          ++tally.tickets_ok;
          p.bytes.insert(p.bytes.end(), c.result.bytes.begin(),
                         c.result.bytes.end());
        } else {
          ++tally.tickets_failed;
          if (p.status.ok()) p.status = c.result.status;
        }
      }
      if (p.got == p.tickets.size()) {
        settle(p);
        it = pending.erase(it);
      } else {
        ++it;
      }
    }
  };

  OpGen gen(spec_, Rng(seed).split(0).next_u64());
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t i = 0; ops > 0 ? i < ops : now_ns() < deadline; ++i) {
    Pending p;
    p.op = gen.next();
    ++tally.attempted;
    const std::uint64_t id = ids_[p.op.obj];
    if (p.op.kind == Kind::kStream) {
      p.inv = oracle_.begin_read(p.op.obj);
      for (const auto& t : store_->submit_get_streaming(id, read_)) {
        p.tickets.push_back(t.id);
      }
    } else {
      ++tally.write_attempts;
      p.tag = oracle_.next_tag();
      std::vector<std::uint8_t> bytes = payload(p.op, p.tag);
      p.inv = now_ns();
      oracle_.begin_write(p.op.obj, p.tag, 0, bytes.size(), p.inv);
      p.tickets.push_back(store_->submit_overwrite(id, std::move(bytes)).id);
    }
    p.last = p.inv;
    p.submit_ns = now_ns() - p.inv;
    if (spans != nullptr && i % 4 == 0) sample_stats(*spans);
    pending.push_back(std::move(p));
    harvest(false);
  }
  harvest(true);
  return tally;
}

void Deployment::warm_up(std::uint64_t seed) {
  if (spec_.client_threads > 0) {
    drive_closed(spec_.warmup_ops, 0, seed, nullptr, nullptr);
  } else {
    drive_pipelined(spec_.warmup_ops, 0, seed, nullptr, nullptr);
  }
}

Tally Deployment::run(double seconds, std::uint64_t seed, SampleLog& log,
                      ClientSpans* spans) {
  return spec_.client_threads > 0
             ? drive_closed(0, seconds, seed, &log, spans)
             : drive_pipelined(0, seconds, seed, &log, spans);
}

Tally Deployment::sweep() {
  Tally tally;
  for (std::size_t obj = 0; obj < spec_.objects; ++obj) {
    Op op;
    op.obj = obj;
    ++tally.attempted;
    const std::int64_t inv = oracle_.begin_read(obj);
    auto got = store_->get(ids_[obj], read_);
    const std::int64_t cmp = now_ns();
    const StripeCost c = cost(op);
    tally.stripes.reads += c.reads;
    if (spec_.degraded) tally.degraded_stripes += c.reads;
    const std::vector<std::uint8_t> empty;
    const std::string verdict = oracle_.end_read(
        obj, inv, cmp, got.ok(), 0, got.ok() ? *got : empty);
    if (!verdict.empty()) note_mismatch(verdict, op);
    finish(op, got.ok() ? traperc::core::Status{} : got.status(), verdict, inv,
           cmp, tally);
  }
  return tally;
}

double Deployment::space_amp() {
  const unsigned n = bench_config().n;
  std::size_t stored = 0;
  for (unsigned s = 0; s < store_->shard_count(); ++s) {
    for (unsigned d = 0; d < n; ++d) {
      stored += store_->shard_cluster(s).node(d).bytes_stored();
    }
  }
  return static_cast<double>(stored) /
         static_cast<double>(spec_.objects * spec_.object_size);
}

std::uint64_t Deployment::heap_refills() {
  std::uint64_t refills = 0;
  for (unsigned s = 0; s < store_->shard_count(); ++s) {
    refills += store_->shard_cluster(s).buffer_pool().stats().heap_refills;
  }
  return refills;
}

}  // namespace storebench
