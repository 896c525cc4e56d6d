// Read oracle: checks every byte a read returns against the acknowledged
// writes, per object and per byte range.
//
// Every write carries a unique tag, and the byte at absolute object offset p
// of the write tagged t is pattern_byte(t, p) — so the oracle stores write
// ranges and times, never payloads, and bytes copied from another object or
// from a refused write cannot match by accident.
//
// Semantics (atomic register per byte, AWE's object-level promise with the
// lease manager and remap ledger as the separate metadata path): a read
// invoked at ri and answered at rc may return, at byte p, the value of any
// acknowledged write W covering p with W.inv < rc, unless some other
// acknowledged write W' covering p started after W completed and itself
// completed before ri (then W is stale). Writes still in flight count as
// concurrent. A write refused with kLeaseConflict is dropped from the
// history, so its bytes never match. A write that failed any other way may
// have torn the object; an Ok read invoked after that failure is a fault
// until a later full overwrite succeeds.
//
// Times are steady-clock nanoseconds taken by the benchmark before submit
// and after the completion callback, so they bracket the store's own
// linearization points and the check never flags a correct store.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace storebench {

/// Fills out[0 .. end-begin) with bytes [begin, end) of the value written by
/// the write tagged `tag`.
void fill_pattern(std::uint64_t tag, std::size_t begin, std::size_t end,
                  std::uint8_t* out);

class Oracle {
 public:
  static constexpr std::int64_t kOpen = std::numeric_limits<std::int64_t>::max();

  enum class WriteOutcome { kOk, kRefused, kFailed };

  using Clock = std::int64_t (*)();

  /// `objects` objects of `object_size` bytes each; `tag_salt` keeps tags
  /// of different seeds apart. `clock` stamps read invocations (tests
  /// substitute a manual clock).
  Oracle(std::size_t objects, std::size_t object_size, std::uint64_t tag_salt,
         Clock clock);

  /// A fresh unique tag (thread-safe).
  std::uint64_t next_tag();

  /// Records the preload: object `obj` holds the whole value of `tag`,
  /// written before any timed operation.
  void preload(std::size_t obj, std::uint64_t tag);

  /// A write of [off, off + len) invoked at `inv`; its bytes are visible to
  /// reads from now on as a concurrent candidate.
  void begin_write(std::size_t obj, std::uint64_t tag, std::size_t off,
                   std::size_t len, std::int64_t inv);
  void end_write(std::size_t obj, std::uint64_t tag, WriteOutcome outcome,
                 std::int64_t cmp);

  /// Registers a read and returns its invocation time, stamped under the
  /// object's lock so no pruning can race the registration.
  std::int64_t begin_read(std::size_t obj);
  /// Ends the read registered at `inv`. When `ok`, checks `bytes` as the
  /// object's bytes [off, off + bytes.size()); when not ok, only ends it.
  /// Returns an empty string when the read is valid, else a description.
  std::string end_read(std::size_t obj, std::int64_t inv, std::int64_t cmp,
                       bool ok, std::size_t off,
                       std::span<const std::uint8_t> bytes);

  /// Live history records across all objects (bounded-memory check).
  [[nodiscard]] std::size_t history_size() const;

 private:
  struct Range {
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  struct Write {
    std::uint64_t tag = 0;
    Range range;
    std::int64_t inv = 0;
    std::int64_t cmp = kOpen;
    bool done = false;          ///< acknowledged Ok
    bool failed = false;        ///< failed (not refused): may have landed
    std::vector<Range> live;    ///< bytes some future read may still see
  };
  struct Object {
    mutable std::mutex mutex;
    std::vector<Write> writes;
    std::vector<std::int64_t> reads;  ///< invoke times of reads in flight
    std::int64_t torn_since = -1;     ///< failed write's completion time
  };

  void prune(Object& object) const;
  std::string check(const Object& object, std::int64_t ri, std::int64_t rc,
                    std::size_t off,
                    std::span<const std::uint8_t> bytes) const;

  std::size_t size_;
  std::uint64_t salt_;
  Clock clock_;
  std::mutex tag_mutex_;
  std::uint64_t next_tag_ = 1;
  std::vector<std::unique_ptr<Object>> objects_;
};

/// Injects each fault class the oracle must catch (flipped byte, stale
/// value, a refused write's bytes, another object's bytes, a torn object
/// served Ok) plus the valid cases it must accept. Prints one line per case
/// to `log`; true iff every case behaved.
bool oracle_self_test(std::string* log);

}  // namespace storebench
