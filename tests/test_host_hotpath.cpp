// Concurrency tests for the host hot path (DESIGN.md "Host hot path"):
// the lock-free MPSC submission ring and the metrics accumulator.
// These are the two structures the engine trusts with exactly-once
// delivery and exported-counter consistency, so they get direct
// multi-threaded batteries here in addition to the engine-level stress
// suites (test_serve_properties.cpp). Everything is also run under the
// tsan preset (ctest -L serve) — the memory-ordering contracts in
// mpsc_queue.hpp / metrics.hpp are claims these tests give the race
// detector a chance to falsify.
#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/engine.hpp"
#include "serve/metrics.hpp"
#include "serve/mpsc_queue.hpp"
#include "test_helpers.hpp"

namespace ascend {
namespace {

using namespace ascan::serve;
using testing::exact_scan_workload;

// ---------------------------------------------------------------------------
// MpscRing.

TEST(MpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(MpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(MpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(MpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(MpscRing<int>(100).capacity(), 128u);
  EXPECT_EQ(MpscRing<int>(128).capacity(), 128u);
}

TEST(MpscRing, SingleThreadFifoAcrossManyLaps) {
  // Capacity 4: a few hundred elements lap the ring dozens of times, so
  // the per-cell sequence bookkeeping is exercised well past lap 0.
  MpscRing<int> ring(4);
  int next_in = 0, next_out = 0;
  for (int round = 0; round < 100; ++round) {
    while (ring.try_push(int{next_in})) ++next_in;
    EXPECT_EQ(next_in - next_out, static_cast<int>(ring.capacity()));
    int v = -1;
    while (ring.try_pop(v)) {
      EXPECT_EQ(v, next_out);
      ++next_out;
    }
    EXPECT_EQ(next_in, next_out);
  }
}

TEST(MpscRing, FullRingLeavesRejectedValueIntact) {
  MpscRing<std::unique_ptr<int>> ring(2);
  ASSERT_TRUE(ring.try_push(std::make_unique<int>(1)));
  ASSERT_TRUE(ring.try_push(std::make_unique<int>(2)));
  auto rejected = std::make_unique<int>(3);
  ASSERT_FALSE(ring.try_push(std::move(rejected)));
  // The contract: a failed push must not consume the value (the engine
  // falls back to a locked path with the same Pending).
  ASSERT_NE(rejected, nullptr);
  EXPECT_EQ(*rejected, 3);
}

TEST(MpscRing, PopReleasesPayloadImmediately) {
  // The ring stores T by value in its cells; a popped cell must not keep
  // the old payload alive until the next lap overwrites it (a Pending
  // holds whole request vectors — that memory must free at pop time).
  MpscRing<std::shared_ptr<int>> ring(4);
  auto payload = std::make_shared<int>(7);
  std::weak_ptr<int> watch = payload;
  ASSERT_TRUE(ring.try_push(std::move(payload)));
  std::shared_ptr<int> out;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(*out, 7);
  out.reset();
  EXPECT_TRUE(watch.expired()) << "cell kept the payload alive after pop";
}

TEST(MpscRing, MultiProducerDeliversExactlyOnceInProducerOrder) {
  // P producers push tagged sequences while one consumer drains
  // concurrently. Exactly-once: every (producer, seq) arrives once.
  // FIFO-per-producer: each producer's sequence arrives in order (the
  // fetch_add cell claim makes the interleaving arbitrary, but a single
  // producer's pushes are ordered by its program order).
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  MpscRing<std::uint64_t> ring(64);  // small: forces full-ring backoff
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const auto tagged = (static_cast<std::uint64_t>(p) << 32) |
                            static_cast<std::uint64_t>(i);
        while (!ring.try_push(std::uint64_t{tagged})) {
          std::this_thread::yield();  // full: wait for the consumer
        }
      }
    });
  }
  std::vector<int> next_seq(kProducers, 0);
  std::uint64_t received = 0;
  while (received < static_cast<std::uint64_t>(kProducers) * kPerProducer) {
    std::uint64_t v = 0;
    if (!ring.try_pop(v)) {
      std::this_thread::yield();
      continue;
    }
    const int p = static_cast<int>(v >> 32);
    const int seq = static_cast<int>(v & 0xffffffffu);
    ASSERT_LT(p, kProducers);
    ASSERT_EQ(seq, next_seq[static_cast<std::size_t>(p)])
        << "producer " << p << " out of order";
    ++next_seq[static_cast<std::size_t>(p)];
    ++received;
  }
  for (auto& t : producers) t.join();
  std::uint64_t leftover = 0;
  EXPECT_FALSE(ring.try_pop(leftover));  // nothing duplicated or stuck
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_seq[static_cast<std::size_t>(p)], kPerProducer);
  }
}

TEST(MpscRing, PublishedElementIsFullyVisibleToConsumer) {
  // Release/acquire contract: everything the producer wrote into the
  // element before try_push must be visible to the consumer after
  // try_pop. Heap payloads make a torn publish crash or trip tsan/asan.
  struct Fat {
    std::vector<int> data;
    int checksum = 0;
  };
  MpscRing<std::unique_ptr<Fat>> ring(8);
  std::atomic<bool> stop{false};
  std::thread producer([&] {
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      auto f = std::make_unique<Fat>();
      f->data.assign(64, i);
      f->checksum = 64 * i;
      if (!ring.try_push(std::move(f))) std::this_thread::yield();
      ++i;
    }
  });
  int popped = 0;
  while (popped < 20000) {
    std::unique_ptr<Fat> f;
    if (!ring.try_pop(f)) {
      std::this_thread::yield();
      continue;
    }
    int sum = 0;
    for (int v : f->data) sum += v;
    ASSERT_EQ(sum, f->checksum);
    ++popped;
  }
  stop.store(true);
  producer.join();
}

// ---------------------------------------------------------------------------
// Sharded Metrics.

Timing tiny_timing() {
  Timing t;
  t.queue_s = 10e-6;
  t.execute_s = 20e-6;
  t.total_s = 35e-6;
  return t;
}

TEST(Metrics, ConcurrentEventsMergeExactly) {
  // T threads hammer every histogram-coupled event; the final snapshot
  // must account for each exactly once, with the histogram/counter
  // pairings intact.
  Metrics m(/*hbm_peak_bytes_per_s=*/800e9);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 4000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int c = 0; c < kThreads; ++c) {
    threads.emplace_back([&m] {
      for (int i = 0; i < kPerThread; ++i) {
        m.on_submitted();
        m.on_admitted();
        const auto kind = static_cast<OpKind>(i % 4);
        const auto tier = static_cast<SloTier>(i % kSloTierCount);
        if (i % 16 == 0) {
          m.on_failed(tiny_timing());
        } else {
          m.on_completed(kind, tier, tiny_timing());
        }
        if (i % 8 == 0) {
          sim::Report rep;
          rep.time_s = 1e-6;
          rep.launches = 1;
          m.on_batch(/*occupancy=*/4, rep);
        }
        if (i % 4 == 0) m.on_chunk(5e-6);
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto s = m.snapshot();
  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(s.submitted, kTotal);
  EXPECT_EQ(s.admitted, kTotal);
  EXPECT_EQ(s.failed, kTotal / 16);
  EXPECT_EQ(s.completed, kTotal - kTotal / 16);
  EXPECT_EQ(s.batches, kTotal / 8);
  EXPECT_EQ(s.batched_requests, 4 * (kTotal / 8));
  EXPECT_EQ(s.stream_chunks, kTotal / 4);
  EXPECT_EQ(s.chunk_latency.count(), kTotal / 4);
  EXPECT_EQ(s.execute_latency.count(), s.completed);
  EXPECT_EQ(s.total_latency.count(), s.completed + s.failed);
  std::uint64_t by_kind_sum = 0;
  for (const auto v : s.by_kind) by_kind_sum += v;
  EXPECT_EQ(by_kind_sum, s.completed);
  std::uint64_t tier_sum = 0;
  for (const auto& h : s.tier_latency) tier_sum += h.count();
  EXPECT_EQ(tier_sum, s.completed);
  EXPECT_EQ(s.invariant_violations(), "");
}

TEST(Metrics, EverySnapshotDuringTheRaceIsInternallyConsistent) {
  // The export-ordering claim: a reader snapshotting *mid-race* never
  // observes a completion without its admission, or an admission without
  // its submission, and never a histogram/counter pairing torn apart —
  // because writers bump child-before-parent through release/acquire
  // program order and the reader reads in the reverse order.
  Metrics m(800e9);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int c = 0; c < 4; ++c) {
    writers.emplace_back([&] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        m.on_submitted();
        m.on_admitted();
        m.on_completed(static_cast<OpKind>(i % 4),
                       static_cast<SloTier>(i % kSloTierCount), tiny_timing());
        ++i;
      }
    });
  }
  for (int round = 0; round < 200; ++round) {
    const auto s = m.snapshot();
    EXPECT_EQ(s.invariant_violations(), "") << "round " << round;
    EXPECT_LE(s.admitted, s.submitted);
    EXPECT_LE(s.completed + s.failed + s.cancelled, s.admitted);
  }
  stop.store(true);
  for (auto& t : writers) t.join();
  const auto final_snap = m.snapshot();
  EXPECT_EQ(final_snap.invariant_violations(), "");
  EXPECT_EQ(final_snap.completed, final_snap.admitted);
}

// ---------------------------------------------------------------------------
// Engine-level: the hot path end to end — lock-free submission from many
// producers racing a shutdown, every future resolving exactly once.

TEST(HostHotPath, ProducersRacingDrainShutdownAllResolve) {
  Engine engine({.policy = {.max_batch = 8, .max_wait_s = 50e-6},
                 .max_queue = 256});
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 64;
  std::vector<std::vector<std::future<Response>>> futs(kProducers);
  std::vector<std::thread> producers;
  std::atomic<int> submitted{0};
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      futs[static_cast<std::size_t>(p)].reserve(kPerProducer);
      for (int i = 0; i < kPerProducer; ++i) {
        futs[static_cast<std::size_t>(p)].push_back(engine.submit(
            Request::cumsum(exact_scan_workload(128, 7 + i), 64)));
        submitted.fetch_add(1);
      }
    });
  }
  // Begin the drain while producers are still submitting: late arrivals
  // either make it into the queue (and must complete) or reject with
  // Status::Rejected — nothing may hang or vanish.
  while (submitted.load() < kProducers * kPerProducer / 2) {
    std::this_thread::yield();
  }
  engine.shutdown(ShutdownMode::Drain);
  for (auto& t : producers) t.join();

  std::uint64_t ok = 0, rejected = 0;
  for (auto& lane : futs) {
    for (auto& f : lane) {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
                std::future_status::ready);
      const auto r = f.get();
      if (r.ok()) {
        ++ok;
        EXPECT_EQ(r.values_f16.size(), 128u);
      } else {
        EXPECT_EQ(r.status, Status::Rejected);
        ++rejected;
      }
    }
  }
  EXPECT_EQ(ok + rejected,
            static_cast<std::uint64_t>(kProducers) * kPerProducer);
  EXPECT_GT(ok, 0u);
  const auto m = engine.metrics();
  EXPECT_EQ(m.completed, ok);
  EXPECT_EQ(m.invariant_violations(), "");
}

}  // namespace
}  // namespace ascend
