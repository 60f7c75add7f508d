// serve — bounded lock-free submission ring (the engine's MPSC inbox).
//
// Dmitry Vyukov's bounded MPMC queue, used here as a multi-producer /
// single-consumer-at-a-time inbox between Engine::submit() and the engine's
// worker: producers claim cells with one fetch_add on enqueue_pos_ and
// never touch the engine mutex; the draining thread (whichever one holds
// mu_) pops in FIFO-per-producer order. Each cell carries a sequence
// number that encodes its state (empty at lap k / full at lap k), so a
// push is one CAS-free fetch_add plus a release store and a pop is one
// fetch_add plus an acquire load — no per-element allocation, ever.
//
// Why bounded: the engine's admission ticket (Engine::depth_) caps live
// submissions at max_queue before any push, so a ring of 2*max_queue can
// never fill — the bound is a correctness backstop, not a flow-control
// mechanism (Engine::submit still keeps a locked fallback for the
// impossible-overflow case rather than spinning).
//
// Memory ordering contract (see DESIGN.md "Host hot path"):
//  * try_push publishes the element with a release store to the cell's
//    sequence; try_pop acquires it — everything the producer wrote before
//    the push (the Pending, its metrics bumps) is visible to the consumer.
//  * The queue itself is NOT the wakeup channel. Producers pair a seq_cst
//    fence + waiter-count check with the consumer's waiter registration
//    (Engine::wake_worker / WaiterGuard) to close the sleep race.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <utility>

#include "common/check.hpp"

namespace ascan::serve {

template <typename T>
class MpscRing {
 public:
  /// Capacity is rounded up to a power of two >= max(min_capacity, 2).
  explicit MpscRing(std::size_t min_capacity) {
    std::size_t cap = 2;
    while (cap < min_capacity) cap <<= 1;
    mask_ = cap - 1;
    cells_ = std::make_unique<Cell[]>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  /// Multi-producer push. Returns false when the ring is full; `v` is left
  /// untouched in that case so the caller can fall back to a locked path.
  bool try_push(T&& v) {
    Cell* cell;
    std::size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->seq.load(std::memory_order_acquire);
      const auto diff = static_cast<std::ptrdiff_t>(seq) -
                        static_cast<std::ptrdiff_t>(pos);
      if (diff == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // full: the cell is still occupied from last lap
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
    cell->val = std::move(v);
    cell->seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// Consumer pop (safe for concurrent consumers too — the engine calls it
  /// under mu_, so in practice one drainer at a time). Returns false when
  /// the ring is empty.
  bool try_pop(T& out) {
    Cell* cell;
    std::size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->seq.load(std::memory_order_acquire);
      const auto diff = static_cast<std::ptrdiff_t>(seq) -
                        static_cast<std::ptrdiff_t>(pos + 1);
      if (diff == 0) {
        if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // empty (or the producer of this cell mid-publish)
      } else {
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
    out = std::move(cell->val);
    cell->val = T{};  // release payload memory now, not at the next lap
    cell->seq.store(pos + mask_ + 1, std::memory_order_release);
    return true;
  }

  /// Approximate occupancy (producers/consumers may be mid-flight).
  std::size_t size_approx() const {
    const std::size_t enq = enqueue_pos_.load(std::memory_order_relaxed);
    const std::size_t deq = dequeue_pos_.load(std::memory_order_relaxed);
    return enq >= deq ? enq - deq : 0;
  }

 private:
  struct Cell {
    std::atomic<std::size_t> seq{0};
    T val{};
  };

  // Hot indices on separate cache lines so producers hammering
  // enqueue_pos_ do not invalidate the consumer's dequeue_pos_ line.
  alignas(64) std::atomic<std::size_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::size_t> dequeue_pos_{0};
  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_ = 0;
};

}  // namespace ascan::serve
