#include "oracle.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace storebench {

namespace {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

bool covers(std::size_t begin, std::size_t end, std::size_t a, std::size_t b) {
  return begin <= a && b <= end;
}

}  // namespace

void fill_pattern(std::uint64_t tag, std::size_t begin, std::size_t end,
                  std::uint8_t* out) {
  const std::uint64_t key = mix64(tag);
  std::size_t p = begin;
  while (p < end) {
    const std::uint64_t word = mix64(key ^ (p / 8));
    const std::size_t lane_end = std::min(end, (p / 8 + 1) * 8);
    for (; p < lane_end; ++p) {
      *out++ = static_cast<std::uint8_t>(word >> (8 * (p % 8)));
    }
  }
}

Oracle::Oracle(std::size_t objects, std::size_t object_size,
               std::uint64_t tag_salt, Clock clock)
    : size_(object_size), salt_(tag_salt << 32), clock_(clock) {
  objects_.reserve(objects);
  for (std::size_t i = 0; i < objects; ++i) {
    objects_.push_back(std::make_unique<Object>());
  }
}

std::uint64_t Oracle::next_tag() {
  std::lock_guard lock(tag_mutex_);
  return salt_ + next_tag_++;
}

void Oracle::preload(std::size_t obj, std::uint64_t tag) {
  Object& object = *objects_[obj];
  std::lock_guard lock(object.mutex);
  object.writes.clear();
  Write write;
  write.tag = tag;
  write.range = Range{0, size_};
  write.inv = 0;
  write.cmp = 0;
  write.done = true;
  write.live.push_back(write.range);
  object.writes.push_back(std::move(write));
  object.torn_since = -1;
}

void Oracle::begin_write(std::size_t obj, std::uint64_t tag, std::size_t off,
                         std::size_t len, std::int64_t inv) {
  Object& object = *objects_[obj];
  std::lock_guard lock(object.mutex);
  Write write;
  write.tag = tag;
  write.range = Range{off, off + len};
  write.inv = inv;
  write.live.push_back(write.range);
  object.writes.push_back(std::move(write));
}

void Oracle::end_write(std::size_t obj, std::uint64_t tag,
                       WriteOutcome outcome, std::int64_t cmp) {
  Object& object = *objects_[obj];
  std::lock_guard lock(object.mutex);
  const auto it =
      std::find_if(object.writes.begin(), object.writes.end(),
                   [tag](const Write& w) { return w.tag == tag; });
  if (it == object.writes.end()) return;
  switch (outcome) {
    case WriteOutcome::kRefused:
      object.writes.erase(it);  // a refused write never lands
      break;
    case WriteOutcome::kFailed:
      // Some of its bytes may have landed: it stays a candidate, never
      // supersedes anything, and marks the object torn.
      it->failed = true;
      it->cmp = cmp;
      object.torn_since = std::max(object.torn_since, cmp);
      break;
    case WriteOutcome::kOk:
      it->done = true;
      it->cmp = cmp;
      break;
  }
  prune(object);
}

std::int64_t Oracle::begin_read(std::size_t obj) {
  Object& object = *objects_[obj];
  std::lock_guard lock(object.mutex);
  const std::int64_t inv = clock_();
  object.reads.push_back(inv);
  return inv;
}

std::string Oracle::end_read(std::size_t obj, std::int64_t inv,
                             std::int64_t cmp, bool ok, std::size_t off,
                             std::span<const std::uint8_t> bytes) {
  Object& object = *objects_[obj];
  std::lock_guard lock(object.mutex);
  std::string verdict;
  if (ok) {
    if (object.torn_since >= 0 && inv > object.torn_since) {
      verdict = "torn object served Ok";
    } else {
      verdict = check(object, inv, cmp, off, bytes);
    }
  }
  const auto it = std::find(object.reads.begin(), object.reads.end(), inv);
  if (it != object.reads.end()) object.reads.erase(it);
  prune(object);
  return verdict;
}

void Oracle::prune(Object& object) const {
  // A write W is invisible at bytes X to every read not yet answered once an
  // acknowledged W' covering X started after W completed and completed
  // before the oldest read still in flight (later reads start later still).
  std::int64_t horizon = kOpen;
  for (const std::int64_t inv : object.reads) horizon = std::min(horizon, inv);
  for (const Write& later : object.writes) {
    if (!later.done || later.cmp >= horizon) continue;
    if (object.torn_since >= 0 && later.inv > object.torn_since &&
        later.range.begin == 0 && later.range.end == size_) {
      object.torn_since = -1;  // a full overwrite re-established the object
    }
    for (Write& w : object.writes) {
      if (&w == &later || w.cmp >= later.inv) continue;
      std::vector<Range> kept;
      for (const Range& piece : w.live) {
        if (piece.end <= later.range.begin || piece.begin >= later.range.end) {
          kept.push_back(piece);
          continue;
        }
        if (piece.begin < later.range.begin) {
          kept.push_back(Range{piece.begin, later.range.begin});
        }
        if (piece.end > later.range.end) {
          kept.push_back(Range{later.range.end, piece.end});
        }
      }
      w.live = std::move(kept);
    }
  }
  std::erase_if(object.writes, [](const Write& w) { return w.live.empty(); });
}

std::string Oracle::check(const Object& object, std::int64_t ri,
                          std::int64_t rc, std::size_t off,
                          std::span<const std::uint8_t> bytes) const {
  const std::size_t end = off + bytes.size();
  if (end > size_) return "read past the object's end";
  // Elementary segments: every live-piece and write-range edge inside the
  // read, so each write either covers a segment wholly or not at all.
  std::vector<std::size_t> edges{off, end};
  for (const Write& w : object.writes) {
    for (const std::size_t edge : {w.range.begin, w.range.end}) {
      if (edge > off && edge < end) edges.push_back(edge);
    }
    for (const Range& piece : w.live) {
      for (const std::size_t edge : {piece.begin, piece.end}) {
        if (edge > off && edge < end) edges.push_back(edge);
      }
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  std::vector<std::uint64_t> candidates;
  std::vector<std::uint8_t> expected;
  for (std::size_t e = 0; e + 1 < edges.size(); ++e) {
    const std::size_t a = edges[e];
    const std::size_t b = edges[e + 1];
    // Latest start among writes acknowledged before the read began.
    std::int64_t newest = -1;
    for (const Write& w : object.writes) {
      if (w.done && w.cmp < ri && covers(w.range.begin, w.range.end, a, b)) {
        newest = std::max(newest, w.inv);
      }
    }
    candidates.clear();
    for (const Write& w : object.writes) {
      if (w.inv >= rc) continue;  // started after the read was answered
      if (w.cmp < newest) continue;  // superseded before the read began
      const bool live = std::any_of(
          w.live.begin(), w.live.end(),
          [&](const Range& piece) { return covers(piece.begin, piece.end, a, b); });
      if (live) candidates.push_back(w.tag);
    }
    const std::uint8_t* got = bytes.data() + (a - off);
    const std::size_t len = b - a;
    expected.resize(len);
    bool matched = false;
    for (const std::uint64_t tag : candidates) {
      fill_pattern(tag, a, b, expected.data());
      if (std::memcmp(expected.data(), got, len) == 0) {
        matched = true;
        break;
      }
    }
    if (matched) continue;
    // Different stripes or blocks of one segment may come from different
    // concurrent writes: accept byte by byte.
    std::vector<std::vector<std::uint8_t>> images;
    for (const std::uint64_t tag : candidates) {
      images.emplace_back(len);
      fill_pattern(tag, a, b, images.back().data());
    }
    for (std::size_t i = 0; i < len; ++i) {
      const bool byte_ok = std::any_of(
          images.begin(), images.end(),
          [&](const std::vector<std::uint8_t>& image) { return image[i] == got[i]; });
      if (!byte_ok) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "byte %zu reads 0x%02x, which no acknowledged or "
                      "concurrent write produced (%zu candidates)",
                      a + i, got[i], candidates.size());
        return buf;
      }
    }
  }
  return {};
}

std::size_t Oracle::history_size() const {
  std::size_t total = 0;
  for (const auto& object : objects_) {
    std::lock_guard lock(object->mutex);
    total += object->writes.size();
  }
  return total;
}

namespace {

std::int64_t g_test_time = 0;
std::int64_t test_clock() { return g_test_time; }

}  // namespace

bool oracle_self_test(std::string* log) {
  constexpr std::size_t kSize = 4096;
  Oracle oracle(3, kSize, 7, &test_clock);
  bool all_ok = true;
  const auto image = [](std::uint64_t tag) {
    std::vector<std::uint8_t> out(kSize);
    fill_pattern(tag, 0, kSize, out.data());
    return out;
  };
  // One read at [t0, t1] of `obj` returning `bytes`; `want_fault` says
  // whether the oracle must reject it.
  const auto expect = [&](const char* name, std::size_t obj, std::int64_t t0,
                          std::int64_t t1, bool ok,
                          const std::vector<std::uint8_t>& bytes,
                          bool want_fault) {
    g_test_time = t0;
    const std::int64_t inv = oracle.begin_read(obj);
    const std::string verdict = oracle.end_read(obj, inv, t1, ok, 0, bytes);
    const bool faulted = !verdict.empty();
    const bool pass = faulted == want_fault;
    all_ok = all_ok && pass;
    if (log != nullptr) {
      *log += std::string(pass ? "ok   " : "FAIL ") + name + ": " +
              (faulted ? "rejected (" + verdict + ")" : "accepted") + "\n";
    }
  };

  const std::uint64_t a = oracle.next_tag();
  const std::uint64_t b = oracle.next_tag();
  const std::uint64_t c = oracle.next_tag();
  oracle.preload(0, a);
  oracle.preload(1, b);
  oracle.preload(2, c);
  expect("valid: preloaded value", 0, 10, 20, true, image(a), false);

  auto flipped = image(a);
  flipped[100] ^= 0x01;
  expect("fault: flipped byte", 0, 10, 20, true, flipped, true);

  const std::uint64_t w1 = oracle.next_tag();
  oracle.begin_write(0, w1, 0, kSize, 30);
  oracle.end_write(0, w1, Oracle::WriteOutcome::kOk, 40);
  const std::uint64_t w2 = oracle.next_tag();
  oracle.begin_write(0, w2, 0, kSize, 50);
  expect("valid: old value while a write is in flight", 0, 55, 56, true,
         image(w1), false);
  expect("valid: new value while its write is in flight", 0, 55, 56, true,
         image(w2), false);
  oracle.end_write(0, w2, Oracle::WriteOutcome::kOk, 60);
  expect("fault: stale value", 0, 70, 80, true, image(w1), true);
  expect("valid: latest value", 0, 70, 80, true, image(w2), false);

  const std::uint64_t refused = oracle.next_tag();
  oracle.begin_write(0, refused, 0, kSize, 90);
  oracle.end_write(0, refused, Oracle::WriteOutcome::kRefused, 95);
  expect("fault: refused write's bytes", 0, 100, 110, true, image(refused),
         true);

  expect("fault: another object's bytes", 1, 100, 110, true, image(w2), true);

  // A range write in flight: per byte, either value is valid.
  const std::uint64_t w3 = oracle.next_tag();
  oracle.begin_write(0, w3, 1000, 64, 120);
  auto mixed = image(w2);
  fill_pattern(w3, 1000, 1032, mixed.data() + 1000);
  expect("valid: half-applied concurrent range write", 0, 125, 126, true,
         mixed, false);
  oracle.end_write(0, w3, Oracle::WriteOutcome::kOk, 130);
  expect("fault: range write missing after it completed", 0, 140, 150, true,
         mixed, true);
  auto ranged = image(w2);
  fill_pattern(w3, 1000, 1064, ranged.data() + 1000);
  expect("valid: range write applied", 0, 140, 150, true, ranged, false);

  const std::uint64_t torn = oracle.next_tag();
  oracle.begin_write(2, torn, 0, kSize, 160);
  oracle.end_write(2, torn, Oracle::WriteOutcome::kFailed, 170);
  expect("fault: torn object served Ok", 2, 180, 190, true, image(c), true);
  expect("valid: torn object refused", 2, 180, 190, false, {}, false);
  const std::uint64_t heal = oracle.next_tag();
  oracle.begin_write(2, heal, 0, kSize, 200);
  oracle.end_write(2, heal, Oracle::WriteOutcome::kOk, 210);
  expect("valid: full overwrite heals a torn object", 2, 220, 230, true,
         image(heal), false);
  return all_ok;
}

}  // namespace storebench
