// Bounded single-producer / single-consumer ring queue.
//
// The sharded replay's ModelPool feeds each inference worker through one of
// these: the coordinator (single producer) pushes batch pointers, the worker
// (single consumer) pops them. This is the software mirror of the Model
// Engine's asynchronous input FIFO (§5.2): a fixed-depth ring with
// acquire/release handoff and no locks on the hot path. Capacity is rounded
// up to a power of two so the head/tail indices wrap with a mask.
//
// Contract: exactly one thread calls try_push / push-side methods and exactly
// one thread calls try_pop / pop-side methods. Either side may also be polled
// from the owning thread (empty()/size() are approximate from the other
// side, exact from the owning side).
#pragma once

#include <atomic>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

namespace fenix::runtime {

template <typename T>
class SpscQueue {
 public:
  /// `capacity` is a minimum; the ring holds the next power of two >= max(2,
  /// capacity) minus one in-flight slot semantics are avoided by keeping one
  /// slot free (a full ring is head - tail == capacity).
  explicit SpscQueue(std::size_t capacity)
      : mask_(round_up_pow2(capacity < 2 ? 2 : capacity) - 1),
        slots_(mask_ + 1) {}

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  /// Producer side. Returns false when the ring is full.
  bool try_push(T value) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail > mask_) return false;  // Full: capacity in flight.
    slots_[head & mask_] = std::move(value);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns nullopt when the ring is empty.
  std::optional<T> try_pop() {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t head = head_.load(std::memory_order_acquire);
    if (tail == head) return std::nullopt;
    std::optional<T> value(std::move(slots_[tail & mask_]));
    tail_.store(tail + 1, std::memory_order_release);
    return value;
  }

  /// Never wraps from either owning thread, whose own cursor is current. From
  /// a third thread the two loads can pair a stale head with a fresh tail and
  /// the unsigned difference wraps; the InferenceBatcher workers
  /// (model_pool.cpp) poll empty() only on their own consumer side.
  std::size_t size() const {
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    return head - tail;
  }
  bool empty() const { return size() == 0; }
  std::size_t capacity() const { return mask_ + 1; }

 private:
  static std::size_t round_up_pow2(std::size_t v) {
    std::size_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  std::size_t mask_;
  std::vector<T> slots_;
  alignas(64) std::atomic<std::size_t> head_{0};  ///< Producer cursor.
  alignas(64) std::atomic<std::size_t> tail_{0};  ///< Consumer cursor.
};

}  // namespace fenix::runtime
