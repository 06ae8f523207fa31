// Discrete-event core: a deterministic future-event list.
//
// Events are ordered by (time, insertion sequence) so simultaneous events are
// processed in FIFO order, making every run bit-reproducible for a given
// seed regardless of container internals: (time, seq) is a total order, so
// any correct priority queue pops the same sequence.
//
// Internally the queue is a two-gear hybrid tuned for the N = 1e5..1e6
// device regime, where the future-event list outgrows L2 and a flat binary
// or d-ary heap becomes a serial chain of cache misses per pop:
//
//   - Below a size threshold it is a plain implicit 4-ary min-heap over
//     16-byte nodes (seq/device/kind packed into one word with seq in the
//     high bits, so the FIFO tie-break is a single integer compare).
//   - Above the threshold it switches to a calendar queue: events are
//     binned O(1) into fixed-width time buckets.  When a bucket's window
//     arrives it is sorted once and consumed by a bare pointer bump, so the
//     pop path is O(1), branch-predictable, and L1-resident no matter how
//     large the event population grows.  The rare event scheduled *inside*
//     the current window (delay shorter than one bucket width) goes to a
//     tiny side heap that pop() consults with one predictable compare.
//     Bucket width self-tunes from the observed event-time span and
//     re-tunes when the population grows or shrinks by 4x; events beyond
//     the bucket ring's horizon wait in an overflow tier until the ring
//     reaches them.
//
// Buckets partition time and each window is totally ordered by the sorted
// bucket + side heap, so the pop sequence is identical to a single global
// heap — the golden-trace equivalence tests assert this bit-for-bit.
// `reserve()` pre-sizes the heap-gear storage so small-population steady
// state never reallocates; in calendar gear the ring reaches its steady
// footprint after one revolution and is kept across `clear()` for
// workspace reuse.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mec::sim {

/// What happened, dispatched by MecSimulation.  At most four kinds: the
/// packed node layout reserves exactly two bits for the kind.
enum class EventKind : std::uint8_t {
  kArrival,          ///< a new task arrives at `device`
  kLocalDeparture,   ///< `device` finishes its in-service local task
  kOffloadDelivery,  ///< an offloaded task of `device` completes at the edge
  kFault,            ///< a FaultSchedule action fires; `device` holds the
                     ///< action's index into the schedule, not a device id
};

/// Decoded event as handed to the simulation loop (not the storage layout).
struct Event {
  double time = 0.0;
  std::uint64_t seq = 0;  ///< tie-break: earlier-scheduled first
  std::uint32_t device = 0;
  EventKind kind = EventKind::kArrival;
};

/// Min future-event list with deterministic tie-breaking.
class EventQueue {
 public:
  /// Device ids (and kFault action indices) the packed node layout can
  /// hold: 2^20 = 1,048,576.  MecSimulation rejects larger runs at entry.
  static constexpr std::size_t kMaxDevices = std::size_t{1} << 20;

  /// Pre-sizes the live heap (small populations then never reallocate).
  void reserve(std::size_t capacity);

  /// Schedules an event; `time` must be finite and >= 0, and `device`
  /// must fit the packed node layout (device < kMaxDevices).
  void push(double time, EventKind kind, std::uint32_t device);

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  /// Drops all pending events and restarts the tie-break sequence at 0,
  /// keeping allocated capacity (workspace reuse across runs).
  void clear() noexcept;

  /// Time of the next event. Requires non-empty queue.
  double next_time() const;

  /// Device of the next event (for prefetching the state it will touch).
  /// Requires non-empty queue.
  std::uint32_t next_device() const;

  /// Removes and returns the next event. Requires non-empty queue.
  Event pop();

  /// Total events ever scheduled (diagnostics).  Also the sequence number
  /// the *next* push will receive — fault-aware callers use it to remember
  /// which pending event is the live one for a device (lazy cancellation).
  std::uint64_t scheduled_count() const noexcept { return next_seq_; }

  /// True while the queue runs in calendar gear (diagnostics/tests).
  bool calendar_gear() const noexcept { return calendar_; }

  /// Current calendar bucket width in simulated seconds; 0 in heap gear.
  /// Exposed so the gear-switch regression tests can place events exactly
  /// on bucket-window edges.
  double calendar_bucket_width() const noexcept {
    return calendar_ ? width_ : 0.0;
  }

  /// Cumulative heap<->calendar gear switches since the last clear().
  /// Telemetry (obs::Counter::kShardGearSwitches); stays 0 in builds with
  /// MEC_OBS_COUNTERS off — the increments live on the rare rebuild paths.
  std::uint64_t gear_switches() const noexcept { return gear_switches_; }

  /// Cumulative calendar-queue retunes (width/ring resizes) since the last
  /// clear().  Telemetry (obs::Counter::kShardCalendarRetunes).
  std::uint64_t calendar_retunes() const noexcept { return retunes_; }

 private:
  /// 16-byte node; `key` holds (seq << 22) | (device << 2) | kind.  seq is
  /// unique per event and occupies the high bits, so comparing keys compares
  /// insertion sequence — device and kind never affect the order.
  struct Node {
    double time;
    std::uint64_t key;
  };

  static constexpr std::uint64_t kKindBits = 2;
  static constexpr std::uint64_t kDeviceBits = 20;
  static constexpr std::uint64_t kSeqShift = kKindBits + kDeviceBits;
  static_assert(kMaxDevices == std::size_t{1} << kDeviceBits);

  static bool earlier(const Node& a, const Node& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.key < b.key;
  }

  // --- side heap (implicit 4-ary min-heap over side_) ---
  void side_push(const Node& nd);
  void side_sift_down(std::size_t i, const Node& nd);
  void side_pop_root();
  void side_build();  ///< heapify side_ in O(n)

  /// The earliest pending node (requires size_ > 0): min of the sorted
  /// window cursor and the side-heap root.
  const Node& front() const noexcept;

  // --- calendar gear ---
  std::uint64_t bucket_of(double t) const noexcept;
  void try_enter_calendar();
  void rebuild(std::size_t target_size);  ///< retune width/ring from scratch_
  void exit_calendar();
  void gather_all();  ///< move every stored node into scratch_
  void migrate_overflow();
  void advance();  ///< make the next non-empty bucket the sorted window

  std::vector<Node> side_;    ///< all events (heap gear) or in-window pushes
  std::vector<Node> window_;  ///< current bucket, sorted ascending
  std::size_t window_pos_ = 0;  ///< next unconsumed node in window_

  bool calendar_ = false;
  std::vector<std::vector<Node>> buckets_;  ///< ring of unsorted bins
  std::size_t bucket_mask_ = 0;             ///< buckets_.size() - 1 (pow2)
  std::size_t ring_count_ = 0;              ///< nodes currently in the ring
  std::vector<Node> overflow_;              ///< beyond the ring horizon
  std::uint64_t overflow_min_bucket_ = ~std::uint64_t{0};
  double width_ = 0.0;      ///< bucket width (simulated seconds)
  double inv_width_ = 0.0;  ///< 1 / width_
  std::uint64_t base_ = 0;  ///< next bucket index to drain
  std::size_t tuned_size_ = 0;    ///< size at the last (re)tune
  std::size_t switch_check_ = 0;  ///< size at which to attempt the switch
  std::vector<Node> scratch_;     ///< rebuild staging buffer

  std::size_t size_ = 0;  ///< total stored nodes across all tiers
  std::uint64_t next_seq_ = 0;
  std::uint64_t gear_switches_ = 0;  ///< telemetry; see gear_switches()
  std::uint64_t retunes_ = 0;        ///< telemetry; see calendar_retunes()
};

}  // namespace mec::sim
