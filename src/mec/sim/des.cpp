#include "mec/sim/des.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "mec/common/error.hpp"

namespace mec::sim {

namespace {

/// Heap order for the side heap: std::push_heap keeps the *largest* on
/// top, so "less" here means later in (time, seq).
constexpr auto kLater = [](const auto& a, const auto& b) {
  return a.bits != b.bits ? a.bits > b.bits : a.key > b.key;
};

unsigned bucket_of(std::uint64_t bits, std::uint64_t last) noexcept {
  return 64u - static_cast<unsigned>(std::countl_zero(bits ^ last));
}

}  // namespace

void EventQueue::clear() noexcept {
  for (std::vector<Node>& b : buckets_) b.clear();
  occupied_ = 0;
  cursor_ = 0;
  last_ = 0;
  side_.clear();
  last_popped_ = 0.0;
  size_ = 0;
  next_seq_ = 0;
}

void EventQueue::push(double time, EventKind kind, std::uint32_t device) {
  MEC_EXPECTS(std::isfinite(time));
  MEC_EXPECTS(time >= last_popped_);
  MEC_EXPECTS(device < kMaxDevices);
  // Adding +0.0 turns -0.0 into +0.0, whose bit pattern orders correctly.
  const Node nd{std::bit_cast<std::uint64_t>(time + 0.0),
                (next_seq_++ << kSeqShift) |
                    (static_cast<std::uint64_t>(device) << kKindBits) |
                    static_cast<std::uint64_t>(kind)};
  ++size_;
  if (nd.bits < last_) {
    // Only after a peek refilled bucket 0 past the current event's time.
    side_.push_back(nd);
    std::push_heap(side_.begin(), side_.end(), kLater);
    return;
  }
  const unsigned b = bucket_of(nd.bits, last_);
  buckets_[b].push_back(nd);
  occupied_ |= std::uint64_t{1} << b;
}

void EventQueue::refill() {
  // Bucket 0 is spent and the side heap empty: the lowest non-empty bucket
  // holds the minimum.  Every bucket below it is empty, so redistributing
  // it in order keeps each bucket in push order.
  buckets_[0].clear();
  cursor_ = 0;
  const int from = std::countr_zero(occupied_ & ~std::uint64_t{1});
  occupied_ &= ~((std::uint64_t{1} << from) | 1);
  std::vector<Node>& src = buckets_[from];
  std::uint64_t lo = src.front().bits;
  for (const Node& nd : src) lo = std::min(lo, nd.bits);
  last_ = lo;
  for (const Node& nd : src) {
    const unsigned b = bucket_of(nd.bits, lo);
    buckets_[b].push_back(nd);
    occupied_ |= std::uint64_t{1} << b;
  }
  src.clear();
}

const EventQueue::Node& EventQueue::front() {
  MEC_EXPECTS(size_ > 0);
  if (!side_.empty()) return side_.front();
  if (cursor_ == buckets_[0].size()) refill();
  return buckets_[0][cursor_];
}

double EventQueue::next_time() {
  return std::bit_cast<double>(front().bits);
}

std::uint32_t EventQueue::next_device() {
  return static_cast<std::uint32_t>((front().key >> kKindBits) &
                                    (kMaxDevices - 1));
}

Event EventQueue::pop() {
  const Node top = front();
  if (side_.empty()) {
    ++cursor_;
  } else {
    std::pop_heap(side_.begin(), side_.end(), kLater);
    side_.pop_back();
  }
  --size_;
  last_popped_ = std::bit_cast<double>(top.bits);
  return Event{last_popped_, top.key >> kSeqShift,
               static_cast<std::uint32_t>((top.key >> kKindBits) &
                                          (kMaxDevices - 1)),
               static_cast<EventKind>(top.key & ((1u << kKindBits) - 1))};
}

}  // namespace mec::sim
