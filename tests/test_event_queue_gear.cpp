// Regression tests pinning the EventQueue's pop order: the sequence must
// equal a single global (time, seq) priority queue through growth past
// 2^14 pending events, steady state and shrinking, at window edges, under
// same-time floods, and for the cases a naive radix heap over the time's bit
// pattern gets wrong (a push below a peek-refilled minimum, -0.0, binade
// crossings, huge times, clear() reuse).  The suite name records the
// queue's earlier two-gear design, whose switch and bucket-window regimes
// these event patterns were written to stress.  The reference is
// std::priority_queue over the same (time, seq) key — any divergence in pop
// order is a determinism break that would silently change every simulation.
#include "mec/sim/des.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <queue>
#include <vector>

#include "mec/common/error.hpp"
#include "mec/random/rng.hpp"

namespace mec::sim {
namespace {

/// Pending-event count the growth tests cross (the old gear-switch size).
constexpr std::size_t kLargeDepth = 16384;

struct RefEvent {
  double time;
  std::uint64_t seq;
  std::uint32_t device;
  EventKind kind;
};

struct RefLater {
  bool operator()(const RefEvent& a, const RefEvent& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

using RefQueue = std::priority_queue<RefEvent, std::vector<RefEvent>, RefLater>;

/// Drives the queue and the reference in lockstep; every pop is compared
/// field for field.  A mismatch records a (non-fatal) failure and flips
/// ok() so driver loops can bail out instead of spinning on a broken
/// queue — both structures are always advanced, even on mismatch.
class Harness {
 public:
  void push(double time, EventKind kind, std::uint32_t device) {
    ref_.push(RefEvent{time, seq_++, device, kind});
    queue_.push(time, kind, device);
  }

  void pop_and_check() {
    if (queue_.empty() || ref_.empty()) {
      ADD_FAILURE() << "queue/reference emptied out of step";
      ok_ = false;
      return;
    }
    const RefEvent expected = ref_.top();
    ref_.pop();
    const double announced = queue_.next_time();
    const std::uint32_t announced_device = queue_.next_device();
    const Event e = queue_.pop();
    EXPECT_EQ(announced, expected.time);
    EXPECT_EQ(announced_device, expected.device);
    EXPECT_EQ(e.time, expected.time);
    EXPECT_EQ(e.seq, expected.seq);
    EXPECT_EQ(e.device, expected.device);
    EXPECT_EQ(e.kind, expected.kind);
    if (e.time != expected.time || e.seq != expected.seq ||
        e.device != expected.device || e.kind != expected.kind)
      ok_ = false;
    last_time_ = e.time;
  }

  void drain_and_check() {
    while (!ref_.empty() && ok_) pop_and_check();
    EXPECT_TRUE(ok_);
    if (ok_) {
      EXPECT_TRUE(queue_.empty());
    }
  }

  /// Restarts both sides; the queue keeps its capacity.
  void clear() {
    queue_.clear();
    ref_ = RefQueue{};
    seq_ = 0;
    last_time_ = 0.0;
  }

  bool ok() const { return ok_; }
  double last_time() const { return last_time_; }
  EventQueue& queue() { return queue_; }
  std::size_t size() const { return queue_.size(); }

 private:
  EventQueue queue_;
  RefQueue ref_;
  std::uint64_t seq_ = 0;
  double last_time_ = 0.0;
  bool ok_ = true;
};

EventKind kind_of(std::uint64_t i) {
  switch (i % 3) {
    case 0: return EventKind::kArrival;
    case 1: return EventKind::kLocalDeparture;
    default: return EventKind::kOffloadDelivery;
  }
}

TEST(EventQueueGear, PopOrderMatchesReferenceAcrossSwitchUpAndExit) {
  Harness h;
  random::Xoshiro256 rng(99);

  // Grow well past 2^14 pending events with simulation-like pushes
  // (scheduled ahead of the current drain point), interleaving pops so the
  // growth happens mid-traffic, not on a quiet pre-filled queue.
  std::uint64_t i = 0;
  while (h.size() < kLargeDepth + 4096) {
    h.push(h.last_time() + 50.0 * random::uniform01(rng), kind_of(i),
           static_cast<std::uint32_t>(i % 1000));
    ++i;
    if (i % 3 == 0) h.pop_and_check();
    ASSERT_TRUE(h.ok());
  }

  // Steady state: push/pop balanced.
  for (std::uint64_t j = 0; j < 20000; ++j) {
    h.push(h.last_time() + 50.0 * random::uniform01(rng), kind_of(j),
           static_cast<std::uint32_t>(j % 1000));
    h.pop_and_check();
    ASSERT_TRUE(h.ok());
  }

  // Shrink to a small queue and keep checking order.
  while (h.size() > kLargeDepth / 4 && h.ok()) h.pop_and_check();
  ASSERT_TRUE(h.ok());

  // Traffic continues on the small queue and the full drain still matches.
  for (std::uint64_t j = 0; j < 2000; ++j)
    h.push(h.last_time() + 10.0 * random::uniform01(rng), kind_of(j),
           static_cast<std::uint32_t>(j % 64));
  h.drain_and_check();
}

TEST(EventQueueGear, SwitchDoesNotFireBelowThreshold) {
  // A pre-filled queue just below 2^14 events, drained without pushes.
  Harness h;
  random::Xoshiro256 rng(5);
  for (std::size_t i = 0; i < kLargeDepth - 1; ++i)
    h.push(100.0 * random::uniform01(rng), kind_of(i),
           static_cast<std::uint32_t>(i % 100));
  h.drain_and_check();
}

TEST(EventQueueGear, EventsExactlyOnBucketWindowEdges) {
  Harness h;
  random::Xoshiro256 rng(17);
  while (h.size() < kLargeDepth + 1000)
    h.push(h.last_time() + 20.0 * random::uniform01(rng),
           EventKind::kArrival, 1);

  // Bursts on regularly spaced edges ahead of the drain point, each with
  // FIFO ties and neighbors just off the edge on both sides.
  const double width = 0.01;
  const double t0 = h.queue().next_time();
  for (int k = 1; k <= 64; ++k) {
    const double edge = t0 + static_cast<double>(k) * width;
    for (std::uint32_t burst = 0; burst < 3; ++burst)
      h.push(edge, EventKind::kLocalDeparture, 100 + burst);
    h.push(edge - width * 1e-12, EventKind::kArrival, 200);
    h.push(edge + width * 1e-12, EventKind::kOffloadDelivery, 201);
  }
  h.drain_and_check();
}

TEST(EventQueueGear, SameTimeFloodStaysFifoThroughSwitch) {
  // A single-instant flood larger than 2^14: every event at one time,
  // order fully decided by insertion sequence.
  Harness h;
  for (std::size_t i = 0; i < kLargeDepth + 2000; ++i)
    h.push(7.25, kind_of(i), static_cast<std::uint32_t>(i % (1u << 20)));
  h.drain_and_check();
}

TEST(EventQueueGear, ShortDelayEventsInsideCurrentWindow) {
  // Events scheduled a tiny delay ahead of the drain point must interleave
  // correctly with the large backlog.
  Harness h;
  random::Xoshiro256 rng(23);
  while (h.size() < kLargeDepth + 1000)
    h.push(h.last_time() + 30.0 * random::uniform01(rng),
           EventKind::kArrival, 1);
  for (int j = 0; j < 5000; ++j) {
    h.push(h.last_time() + 1e-5 * random::uniform01(rng),
           EventKind::kLocalDeparture, 2);
    h.pop_and_check();
    h.pop_and_check();
    ASSERT_TRUE(h.ok());
  }
  h.drain_and_check();
}

TEST(EventQueueRadix, PushBelowThePeekRefilledMinimumPopsFirst) {
  // The event loop peeks the next event right after a pop and before the
  // popped event's own pushes; the peek refills bucket 0 at a later time,
  // so those pushes land below it and must still pop first, in order.
  for (const bool peek_device : {false, true}) {
    Harness h;
    h.push(1.0, EventKind::kArrival, 1);
    h.push(2.0, EventKind::kArrival, 2);
    h.push(2.0, EventKind::kArrival, 3);
    h.pop_and_check();  // t = 1.0
    if (peek_device)
      EXPECT_EQ(h.queue().next_device(), 2u);
    else
      EXPECT_EQ(h.queue().next_time(), 2.0);
    h.push(1.5, EventKind::kLocalDeparture, 4);
    h.push(1.0, EventKind::kOffloadDelivery, 5);  // delay 0
    h.push(1.5, EventKind::kLocalDeparture, 6);   // tie below the minimum
    h.push(2.0, EventKind::kArrival, 7);          // tie at the minimum
    h.pop_and_check();  // t = 1.0, device 5
    h.push(1.25, EventKind::kArrival, 8);  // pushed by an event below it
    h.push(1.5, EventKind::kArrival, 9);
    h.drain_and_check();
  }
}

TEST(EventQueueRadix, RandomPeeksAndZeroDelaysMatchTheReference) {
  // Simulation-shaped traffic where every pop is followed by a peek and by
  // pushes of zero, tiny and typical delays.
  Harness h;
  random::Xoshiro256 rng(31);
  for (std::uint32_t d = 0; d < 3000; ++d)
    h.push(random::exponential(rng, 1.0), EventKind::kArrival, d);
  for (int step = 0; step < 60000 && h.ok(); ++step) {
    h.pop_and_check();
    if (!h.queue().empty()) (void)h.queue().next_device();
    const double now = h.last_time();
    const double u = random::uniform01(rng);
    const double delay = u < 0.1   ? 0.0
                         : u < 0.3 ? 1e-9 * random::uniform01(rng)
                                   : random::exponential(rng, 1.0);
    h.push(now + delay, kind_of(step), static_cast<std::uint32_t>(step % 3000));
    if (u < 0.05) h.push(now, EventKind::kFault, 7);
  }
  h.drain_and_check();
}

TEST(EventQueueRadix, NegativeZeroOrdersAsZero) {
  Harness h;
  h.push(-0.0, EventKind::kArrival, 1);
  h.push(0.0, EventKind::kArrival, 2);
  h.push(-0.0, EventKind::kArrival, 3);
  h.push(std::nextafter(0.0, 1.0), EventKind::kArrival, 4);
  h.push(0.0, EventKind::kArrival, 5);
  EXPECT_EQ(h.queue().next_time(), 0.0);
  EXPECT_FALSE(std::signbit(h.queue().next_time()));
  h.pop_and_check();
  h.push(-0.0, EventKind::kArrival, 6);  // not earlier than the pop
  h.drain_and_check();
}

TEST(EventQueueRadix, BinadeCrossingsAndOneUlpNeighbors) {
  Harness h;
  const double below_one = std::nextafter(1.0, 0.0);
  const double above_one = std::nextafter(1.0, 2.0);
  const double below_two = std::nextafter(2.0, 0.0);
  const double times[] = {2.0,       below_one, 1.0,       below_two, 4.0,
                          above_one, 1.0,       below_one, 0.5,       2.0,
                          std::nextafter(0.5, 0.0), above_one};
  std::uint32_t device = 0;
  for (const double t : times) h.push(t, EventKind::kArrival, device++);
  h.pop_and_check();  // 0.5 - 1 ulp
  h.pop_and_check();  // 0.5
  // Pushes between the neighbors after the drain point moved.
  h.push(below_one, EventKind::kLocalDeparture, 50);
  h.push(std::nextafter(below_two, 0.0), EventKind::kLocalDeparture, 51);
  h.drain_and_check();
}

TEST(EventQueueRadix, HugeTimesOrderAfterEverythingElse) {
  Harness h;
  h.push(1e300, EventKind::kArrival, 1);
  h.push(3.0, EventKind::kArrival, 2);
  h.push(std::nextafter(1e300, 0.0), EventKind::kArrival, 3);
  h.push(1e300, EventKind::kArrival, 4);
  h.push(1e-300, EventKind::kArrival, 5);
  h.pop_and_check();
  h.pop_and_check();
  h.push(1e299, EventKind::kArrival, 6);
  h.drain_and_check();
}

TEST(EventQueueRadix, SameTimeFloodBetweenOtherPushes) {
  Harness h;
  random::Xoshiro256 rng(41);
  for (std::uint32_t i = 0; i < 500; ++i)
    h.push(10.0 * random::uniform01(rng), EventKind::kArrival, i);
  for (int k = 0; k < 100; ++k) h.pop_and_check();
  const double instant = h.last_time() + 1.0;
  for (std::uint32_t i = 0; i < (1u << 15); ++i) {
    h.push(instant, kind_of(i), i);
    if (i % 1000 == 0)
      h.push(h.last_time() + 2.0 * random::uniform01(rng),
             EventKind::kLocalDeparture, 9);
  }
  h.drain_and_check();
}

TEST(EventQueueRadix, ClearAllowsEarlierTimesAndRestartsTheSequence) {
  Harness h;
  for (std::uint32_t i = 0; i < 1000; ++i)
    h.push(100.0 + i, EventKind::kArrival, i);
  for (int k = 0; k < 500; ++k) h.pop_and_check();
  h.clear();
  EXPECT_TRUE(h.queue().empty());
  EXPECT_EQ(h.queue().scheduled_count(), 0u);
  for (std::uint32_t i = 0; i < 1000; ++i)
    h.push(static_cast<double>(1000 - i) * 0.01, EventKind::kArrival, i);
  h.drain_and_check();
}

TEST(EventQueueRadix, PushEarlierThanTheLastPopIsRejected) {
  EventQueue q;
  q.push(2.0, EventKind::kArrival, 1);
  q.push(3.0, EventKind::kArrival, 2);
  EXPECT_EQ(q.pop().time, 2.0);
  EXPECT_THROW(q.push(std::nextafter(2.0, 0.0), EventKind::kArrival, 3),
               ContractViolation);
  EXPECT_THROW(q.push(-1.0, EventKind::kArrival, 3), ContractViolation);
  // The rejected pushes left nothing behind and used no sequence number.
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.scheduled_count(), 2u);
  q.push(2.0, EventKind::kArrival, 4);  // equal to the last pop is fine
  EXPECT_EQ(q.pop().device, 4u);
  EXPECT_EQ(q.pop().device, 2u);
}

}  // namespace
}  // namespace mec::sim
