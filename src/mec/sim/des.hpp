// Discrete-event core: a deterministic future-event list.
//
// Events are ordered by (time, insertion sequence) so simultaneous events are
// processed in FIFO order, making every run bit-reproducible for a given
// seed regardless of container internals: (time, seq) is a total order, so
// any correct priority queue pops the same sequence.
//
// The queue is a monotone radix heap (Ahuja, Mehlhorn, Orlin & Tarjan,
// JACM 1990) over the IEEE-754 bit pattern of the event time, which orders
// non-negative doubles like the times themselves.  A node sits in the bucket
// named by the highest bit in which its time differs from `last_`, the time
// of bucket 0; bucket 0 holds the nodes at exactly `last_` and is consumed
// by a cursor.  When it runs dry, the lowest non-empty bucket gives the new
// `last_` (its minimum) and is redistributed into the buckets below it,
// which are empty at that moment.  Every bucket therefore stays in push
// order, so equal times pop FIFO by seq and the pop sequence is the single
// global (time, seq) order the golden-trace equivalence tests pin.
//
// Pops are monotone in a DES — every push is `now + delay`, delay >= 0 —
// and push() enforces it.  A peek (next_time()/next_device(), the event
// loop's prefetch) may refill bucket 0 before the current event's own
// pushes, so a push that lands below the refilled `last_` goes to a small
// side heap that is drained first.  Each push appends to one of 64 hot
// bucket tails, and a refill is one sequential scan; bucket capacity is kept
// across clear() for workspace reuse.
#pragma once

#include <array>
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

  /// Schedules an event; `time` must be finite and no earlier than the last
  /// popped event (>= 0 before the first pop), and `device` must fit the
  /// packed node layout (device < kMaxDevices).  -0.0 is stored as +0.0.
  void push(double time, EventKind kind, std::uint32_t device);

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  /// Drops all pending events and restarts the tie-break sequence at 0,
  /// keeping allocated capacity (workspace reuse across runs).
  void clear() noexcept;

  /// Time of the next event. Requires non-empty queue.  Not const: a peek
  /// may refill bucket 0.
  double next_time();

  /// Device of the next event (for prefetching the state it will touch).
  /// Requires non-empty queue.
  std::uint32_t next_device();

  /// Removes and returns the next event. Requires non-empty queue.
  Event pop();

  /// Total events ever scheduled (diagnostics).  Also the sequence number
  /// the *next* push will receive — fault-aware callers use it to remember
  /// which pending event is the live one for a device (lazy cancellation).
  std::uint64_t scheduled_count() const noexcept { return next_seq_; }

 private:
  /// 16-byte node: the time's bit pattern and (seq << 22) | (device << 2) |
  /// kind.  seq is unique per event and occupies the high bits, so comparing
  /// keys compares insertion sequence — device and kind never affect order.
  struct Node {
    std::uint64_t bits;
    std::uint64_t key;
  };

  static constexpr std::uint64_t kKindBits = 2;
  static constexpr std::uint64_t kDeviceBits = 20;
  static constexpr std::uint64_t kSeqShift = kKindBits + kDeviceBits;
  static_assert(kMaxDevices == std::size_t{1} << kDeviceBits);

  /// The earliest pending node: the side heap's root, else bucket 0's
  /// cursor (refilled first when it ran dry).  Requires size_ > 0.
  const Node& front();
  void refill();

  /// Bucket b > 0 holds times whose highest bit differing from last_ is
  /// bit b - 1; a non-negative double never differs in the sign bit, so 64
  /// buckets cover every time.
  std::array<std::vector<Node>, 64> buckets_;
  std::uint64_t occupied_ = 0;  ///< bit b > 0 set iff buckets_[b] is non-empty
  std::size_t cursor_ = 0;      ///< next unconsumed node of buckets_[0]
  std::uint64_t last_ = 0;      ///< time bits of bucket 0
  std::vector<Node> side_;      ///< min-heap of pushes below last_
  double last_popped_ = 0.0;
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace mec::sim
