#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "sim/fault.hpp"

namespace ascan::serve {

namespace {

double secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

Clock::duration dur(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

bool valid_tile(std::size_t s) {
  return s == 16 || s == 32 || s == 64 || s == 128;
}

/// Longest slice of a SegmentedCumsum row one serving step takes.
constexpr std::size_t kSegmentedStep = 4096;

/// Scan carry of a row: its partial payload's last element, 0 before the
/// first step.
template <typename T>
T carry_of(const std::vector<T>& payload) {
  return payload.empty() ? T(0.0f) : payload.back();
}

/// Appends one row's slice [from, from + n) of a step's output to the
/// row's payload and, for a streaming row, to its chunk.
template <typename T>
void append_slice(std::vector<T>& payload, std::vector<T>* chunk,
                  const std::vector<T>& out, std::size_t from,
                  std::size_t n) {
  const auto first = out.begin() + static_cast<std::ptrdiff_t>(from);
  const auto last = first + static_cast<std::ptrdiff_t>(n);
  payload.insert(payload.end(), first, last);
  if (chunk != nullptr) chunk->assign(first, last);
}

/// Consumer half of the sleep-race protocol: a worker registers itself
/// BEFORE (re-)checking for work, so a producer that pushed just after the
/// check is guaranteed to observe the registration (both sides seq_cst)
/// and send the wakeup. Scope-bound so a worker busy executing a batch is
/// not registered and producers skip the notify syscall entirely.
class WaiterGuard {
 public:
  explicit WaiterGuard(std::atomic<int>& w) : w_(w) {
    w_.fetch_add(1, std::memory_order_seq_cst);
  }
  ~WaiterGuard() { w_.fetch_sub(1, std::memory_order_seq_cst); }
  WaiterGuard(const WaiterGuard&) = delete;
  WaiterGuard& operator=(const WaiterGuard&) = delete;

 private:
  std::atomic<int>& w_;
};

}  // namespace

Engine::Engine(EngineOptions opt)
    : opt_(std::move(opt)),
      metrics_(opt_.machine.hbm_bandwidth, opt_.device_id),
      session_(opt_.machine),
      inbox_(2 * opt_.max_queue) {
  ASCAN_CHECK(opt_.policy.max_batch >= 1,
              "serve::Engine: max_batch must be >= 1");
  ASCAN_CHECK(opt_.max_queue >= 1, "serve::Engine: max_queue must be >= 1");
  ASCAN_CHECK(opt_.interactive_reserve < opt_.max_queue,
              "serve::Engine: interactive_reserve must leave bulk capacity");
  ASCAN_CHECK(!opt_.steal_source || opt_.steal_poll_s > 0,
              "serve::Engine: steal_poll_s must be positive");
  session_.set_retry_policy(opt_.retry);
  if (opt_.fault_plan.any()) session_.set_fault_plan(opt_.fault_plan);
  worker_ = std::thread([this] { worker_main(); });
}

Engine::~Engine() { shutdown(ShutdownMode::Drain); }

std::string Engine::validate(const Request& r) {
  if (r.x.empty()) return "empty input";
  if (std::isnan(r.deadline_s) || r.deadline_s < 0) {
    return "deadline must be >= 0";
  }
  switch (r.kind) {
    case OpKind::Cumsum:
      if (!valid_tile(r.tile)) return "invalid tile size";
      break;
    case OpKind::SegmentedCumsum:
      if (r.flags.size() != r.x.size()) return "flags length mismatch";
      break;
    case OpKind::TopP:
      if (!valid_tile(r.tile)) return "invalid tile size";
      // NaN must never reach a queue: it breaks GroupKey hash/equality
      // consistency (cluster affinity placement keys on p).
      if (std::isnan(r.p)) return "p must not be NaN";
      if (std::isnan(r.u)) return "u must not be NaN";
      if (!(r.p > 0.0 && r.p <= 1.0)) return "p must be in (0, 1]";
      if (!(r.u >= 0.0 && r.u < 1.0)) return "u must be in [0, 1)";
      break;
    case OpKind::Sort:
      if (!valid_tile(r.tile)) return "invalid tile size";
      break;
  }
  return {};
}

std::future<Response> Engine::submit(Request req) {
  metrics_.on_submitted();
  std::promise<Response> promise;
  std::future<Response> fut = promise.get_future();

  if (std::string err = validate(req); !err.empty()) {
    metrics_.on_rejected_invalid();
    promise.set_value(immediate_response(req.kind, Status::Rejected,
                                         "invalid request: " + err));
    return fut;
  }
  // Lock-free admission. The inflight guard is raised BEFORE the stopping
  // check: a submit that passes the check is visible to shutdown, which
  // waits for inflight == 0 before its final queue drain — so a racing
  // submission is either rejected here or fully served, never stranded
  // with an unresolved future.
  submits_inflight_.fetch_add(1, std::memory_order_seq_cst);
  if (stopping_.load(std::memory_order_seq_cst)) {
    submits_inflight_.fetch_sub(1, std::memory_order_release);
    metrics_.on_rejected_shutdown();
    promise.set_value(immediate_response(req.kind, Status::Rejected,
                                         "engine shutting down"));
    return fut;
  }
  // Bulk admissions stop interactive_reserve slots early, so a bulk
  // overload can never close the latency-sensitive lane. The depth ticket
  // (claim, then undo on over-cap) enforces the bound without mu_ and
  // doubles as the inbox ring's no-overflow guarantee.
  const bool interactive = req.priority == Priority::Interactive;
  const std::size_t cap = interactive
                              ? opt_.max_queue
                              : opt_.max_queue - opt_.interactive_reserve;
  const std::size_t prev = depth_.fetch_add(1, std::memory_order_seq_cst);
  if (prev >= cap) {
    depth_.fetch_sub(1, std::memory_order_seq_cst);
    submits_inflight_.fetch_sub(1, std::memory_order_release);
    metrics_.on_rejected_capacity();
    std::ostringstream os;
    os << "queue full (" << prev << " pending, limit " << cap << " for "
       << (interactive ? "interactive" : "bulk") << " lane)";
    promise.set_value(
        immediate_response(req.kind, Status::Rejected, os.str()));
    return fut;
  }
  if (!interactive) bulk_depth_.fetch_add(1, std::memory_order_relaxed);

  Pending p;
  p.req = std::move(req);
  p.promise = std::move(promise);
  p.enqueued = Clock::now();
  if (p.req.deadline_s > 0) p.deadline = p.enqueued + dur(p.req.deadline_s);
  p.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  // Admission is counted before the publish: the ring's release/acquire
  // pair then orders this bump before the worker-side completion bump, so
  // a metrics snapshot can never observe completed > admitted.
  metrics_.on_admitted();
  const bool singleton = !coalescible(p.req.kind);
  const bool has_deadline = p.deadline != Clock::time_point::max();
  const std::size_t bucket = wake_bucket(p.req);
  if (!inbox_.try_push(std::move(p))) {
    // Unreachable while the depth ticket holds (ring is 2x the admission
    // bound), kept as a correctness backstop: fall back to the locked
    // path rather than spin or drop.
    std::lock_guard<std::mutex> lk(mu_);
    queue_.push(std::move(p));
  }
  submits_inflight_.fetch_sub(1, std::memory_order_release);
  // The formation waiter is only nudged when this arrival may end its
  // window early: singletons pop alone, a coalescible request whose key
  // bucket just reached a multiple of max_batch may have filled a batch,
  // and a deadline may fall before the window closes (the waiter
  // recomputes its wake time). Everything else leaves the deadline-bounded
  // sleeper asleep.
  const std::uint32_t kp =
      key_pending_[bucket].fetch_add(1, std::memory_order_relaxed) + 1;
  const std::size_t mb = std::max<std::size_t>(opt_.policy.max_batch, 1);
  wake_worker(singleton || has_deadline || mb <= 1 || kp % mb == 0);
  return fut;
}

void Engine::drain_inbox_locked() {
  Pending p;
  while (inbox_.try_pop(p)) queue_.push(std::move(p));
}

void Engine::wake_worker(bool nudge_formation) {
  // Producer side of the Dekker-style store/load pairing: publish (the
  // ring push), fence, then read the waiter counts. Either this read sees
  // the consumer's registration (notify below) or the consumer's
  // post-registration drain sees the push — both sides missing is an SB
  // litmus outcome seq_cst forbids. Only the idle wait is unbounded, so
  // only it gets the unconditional notify; the formation wait sleeps on a
  // deadline and is nudged only when the arrival may end it early.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const bool idle = cv_waiters_.load(std::memory_order_seq_cst) != 0;
  const bool form =
      nudge_formation && form_waiters_.load(std::memory_order_seq_cst) != 0;
  if (!idle && !form) return;
  // The empty critical section pins a racing waiter to one side of its
  // wait: it either has not re-checked yet (it will see the work) or it
  // is inside wait() and the notify lands after its mutex release.
  { std::lock_guard<std::mutex> lk(mu_); }
  if (idle) work_cv_.notify_all();
  if (form) form_cv_.notify_all();
}

void Engine::wake_all_waiters() {
  work_cv_.notify_all();
  form_cv_.notify_all();
}

void Engine::note_added(const Pending& p) {
  depth_.fetch_add(1, std::memory_order_seq_cst);
  if (p.req.priority != Priority::Interactive) {
    bulk_depth_.fetch_add(1, std::memory_order_relaxed);
  }
  key_pending_[wake_bucket(p.req)].fetch_add(1, std::memory_order_relaxed);
}

void Engine::note_removed(const Pending& p) {
  depth_.fetch_sub(1, std::memory_order_seq_cst);
  if (p.req.priority != Priority::Interactive) {
    bulk_depth_.fetch_sub(1, std::memory_order_relaxed);
  }
  key_pending_[wake_bucket(p.req)].fetch_sub(1, std::memory_order_relaxed);
}

bool Engine::steal_and_execute(std::unique_lock<std::mutex>& lk) {
  // Lock rule: never hold this engine's mu_ while reaching into a sibling
  // device's queue — the sibling's worker may be about to do the converse.
  lk.unlock();
  std::vector<Pending> batch;
  try {
    batch = opt_.steal_source();
  } catch (...) {
    // A racing sibling shutdown is not this worker's problem.
  }
  if (batch.empty()) {
    lk.lock();
    return false;
  }
  metrics_.on_steal(batch.size());
  execute_batch(std::move(batch), Clock::now(), GroupExec::Stolen);
  lk.lock();
  return true;
}

void Engine::worker_main() {
  try {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      // Wait for local work or a stop. Register in cv_waiters_ BEFORE
      // draining the inbox (consumer half of the wake protocol), so a
      // producer pushing right after the drain sees the registration and
      // notifies. With a steal_source installed the wait is sliced at
      // steal_poll_s so an idle device takes a sibling's bulk backlog
      // instead of sleeping on an empty queue.
      {
        WaiterGuard wg(cv_waiters_);
        drain_inbox_locked();
        while (!stopping_.load() && queue_.empty()) {
          if (opt_.steal_source) {
            work_cv_.wait_for(lk, dur(opt_.steal_poll_s), [&] {
              drain_inbox_locked();
              return stopping_.load() || !queue_.empty();
            });
            if (stopping_.load() || !queue_.empty()) break;
            steal_and_execute(lk);
            drain_inbox_locked();
          } else {
            work_cv_.wait(lk, [&] {
              drain_inbox_locked();
              return stopping_.load() || !queue_.empty();
            });
          }
        }
      }
      if (queue_.empty()) {
        // Stopping with nothing left locally. Drain mode first waits out
        // any submit that passed the stopping check but has not published
        // yet (submits_inflight_), then drains the inbox once more — the
        // "drain serves everything admitted" guarantee covers that race.
        // A draining device also helps its siblings finish before
        // exiting — cluster drain runs at the speed of the busiest
        // device, not the idlest.
        if (stop_mode_ == ShutdownMode::Drain) {
          while (submits_inflight_.load(std::memory_order_seq_cst) != 0) {
            lk.unlock();
            std::this_thread::yield();
            lk.lock();
          }
          drain_inbox_locked();
          if (!queue_.empty()) continue;
          if (opt_.steal_source) {
            while (steal_and_execute(lk)) {
            }
          }
        }
        break;
      }
      if (stopping_.load() && stop_mode_ == ShutdownMode::Cancel) break;

      // Dynamic batching: hold the launch until a full batch is ready or
      // the head request's wait window expires. Shutdown (drain mode)
      // flushes immediately. A queued SLO deadline earlier than the window
      // caps the hold — batching slack must never be the reason a deadline
      // is missed (an already-late deadline ends the wait at once and the
      // pop goes out partial). The wake time is recomputed after every
      // wake, because an arrival may bring an earlier deadline or a new
      // lane head.
      {
        // Formation wait: deadline-bounded, so it lives on form_cv_ and
        // is only nudged by arrivals that may end it early (submit's
        // key-bucket and deadline checks) or by control edges (shutdown,
        // steal hand-off, requeue). Per-arrival notifies here were a
        // measured ~20% of host wall time on underfed devices — a futex
        // round trip per request to evaluate a predicate that almost
        // always said "keep sleeping".
        WaiterGuard wg(form_waiters_);
        for (;;) {
          drain_inbox_locked();
          const auto now = Clock::now();
          if (stopping_.load() || queue_.empty() ||
              queue_.full_batch_ready(opt_.policy, now)) {
            break;
          }
          const auto until =
              std::min(queue_.head_enqueued(opt_.policy, now) +
                           dur(opt_.policy.max_wait_s),
                       queue_.earliest_deadline());
          if (until <= now) break;
          form_cv_.wait_until(lk, until);
        }
      }
      // A thief or a quarantine drain may have emptied the queue while
      // the worker slept; an empty queue while stopping re-enters the
      // drain/cancel epilogue above.
      if (queue_.empty()) continue;
      if (stopping_.load() && stop_mode_ == ShutdownMode::Cancel) break;

      const auto picked = Clock::now();
      std::vector<Pending> batch = queue_.pop_batch(opt_.policy, picked);
      for (const auto& p : batch) note_removed(p);
      lk.unlock();
      execute_batch(std::move(batch), picked);
      lk.lock();
    }
  } catch (...) {
    // The worker must never terminate the process. Anything queued is
    // resolved as Cancelled by shutdown().
  }
}

std::size_t Engine::admit_continuations(std::vector<StreamSlot>& slots,
                                        const GroupKey& key,
                                        std::size_t active) {
  if (active >= opt_.policy.max_batch) return 0;
  std::vector<Pending> extra;
  {
    std::lock_guard<std::mutex> lk(mu_);
    // A cancelling shutdown owns the queue's requests (they resolve as
    // Cancelled); drain mode keeps feeding the launch — continuation
    // admission *is* how an in-flight launch helps drain.
    if (stopping_.load() && stop_mode_ == ShutdownMode::Cancel) return 0;
    drain_inbox_locked();
    extra = queue_.pop_matching(key, opt_.policy.max_batch - active,
                                opt_.policy, Clock::now());
    for (const auto& p : extra) note_removed(p);
  }
  if (extra.empty()) return 0;
  metrics_.on_continuation_admit(extra.size());
  const auto now = Clock::now();
  for (auto& p : extra) {
    StreamSlot s;
    s.p = std::move(p);
    s.picked = now;
    s.exec_begin = now;
    slots.push_back(std::move(s));
  }
  return extra.size();
}

void Engine::deliver_chunk(StreamSlot& slot, StreamChunk chunk,
                           std::uint64_t launch_id) {
  chunk.kind = slot.p.req.kind;
  chunk.device = opt_.device_id;
  chunk.launch_id = launch_id;
  const double latency = secs(Clock::now() - slot.p.enqueued);
  if (slot.resp.chunks_streamed == 0) slot.resp.timing.first_chunk_s = latency;
  slot.resp.chunks_streamed++;
  metrics_.on_chunk(latency);
  // Called with no engine lock held, so the callback may submit() — that
  // is the continuous-admission pattern. A throwing client callback must
  // not poison the launch for its batch neighbours.
  try {
    slot.p.req.on_chunk(chunk);
  } catch (...) {
  }
}

void Engine::finalize_slot(StreamSlot& slot, const Report& report_so_far,
                           std::size_t batch_size, std::uint64_t launch_id) {
  slot.done = true;
  slot.resp.status = Status::Ok;
  slot.resp.kind = slot.p.req.kind;
  slot.resp.report = report_so_far;
  slot.resp.batch_size = batch_size;
  slot.resp.device = opt_.device_id;
  slot.resp.launch_id = launch_id;
  // Latency metrics are stamped now (the request IS complete); the future
  // is fulfilled by the batch pass in execute_batch so waking its waiter
  // doesn't steal the core from the launch's remaining steps.
  stamp_response(slot.p, slot.resp, slot.picked, slot.exec_begin);
}

void Engine::fulfill_finalized(std::vector<StreamSlot>& slots) {
  for (auto& s : slots) {
    if (s.done && !s.fulfilled) {
      s.fulfilled = true;
      s.p.promise.set_value(std::move(s.resp));
    }
  }
}

void Engine::run_group_stepwise(std::vector<StreamSlot>& slots,
                                GroupExec mode) {
  // Copied out: continuation admission may reallocate `slots`, so the
  // step loop holds no reference into it.
  const OpKind kind = slots.front().p.req.kind;
  const GroupKey key = group_key(slots.front().p.req);
  const std::uint64_t launch_id =
      next_launch_id_.fetch_add(1, std::memory_order_relaxed);
  const bool allow_admit = mode == GroupExec::Local && opt_.policy.continuous;
  // Tile-boundary preemption is confined to the resumable scans: their
  // host-side carry makes a park/resume bit-exact (the same property the
  // failover checkpoints lean on). Sort is monolithic and TopP rows are
  // atomic, so neither has a boundary worth parking at. Only Local
  // launches park — a thief must return a stolen batch complete.
  const bool preemptible =
      mode == GroupExec::Local && opt_.policy.preemption &&
      (kind == OpKind::Cumsum || kind == OpKind::SegmentedCumsum);
  // Stolen batches never stream: the thief runs them as one indivisible
  // throughput unit (see GroupExec).
  const auto streams = [&](const StreamSlot& s) {
    return mode != GroupExec::Stolen && static_cast<bool>(s.p.req.on_chunk);
  };
  // Canary-admitted members of the launch (counted at outcome time, since
  // continuation admission can add slots mid-launch): on a Probing device
  // only canary-tagged outcomes count toward readmission — a straggler
  // launch from before the quarantine must not vouch for the device.
  const auto canary_count = [&slots] {
    std::uint32_t n = 0;
    for (const auto& s : slots) n += s.p.req.canary ? 1u : 0u;
    return n;
  };
  // Copy of the aggregate report after the latest completed step, for the
  // partial-accounting path when a later step faults.
  Report partial;
  // Final aggregate report of a completed launch, fed (with the fault
  // outcome) to the cluster health monitor after the launch.
  Report fin;
  try {
    if (kind == OpKind::Sort) {
      // No batched sort kernel (ROADMAP open item) and no meaningful
      // resumable slice — runs monolithic, never streams or admits.
      ASCAN_ASSERT(slots.size() == 1, "sort requests are never coalesced");
      StreamSlot& s = slots.front();
      auto r = session_.sort(s.p.req.x, s.p.req.descending,
                             s.p.req.sort_algo, s.p.req.tile);
      s.resp.sorted_values = std::move(r.values);
      s.resp.indices = std::move(r.indices);
      fin = r.report;
      finalize_slot(s, fin, 1, launch_id);
    } else {
      const Request& head = slots.front().p.req;  // read before any step
      auto ls = kind == OpKind::Cumsum
                    ? session_.cumsum_batched_begin(head.tile,
                                                    head.ul1_schedule)
                : kind == OpKind::SegmentedCumsum
                    ? session_.segmented_cumsum_begin()
                    : session_.top_p_begin(head.p, head.tile);
      // Longest slice one step takes from a row: a Cumsum step is one
      // l-tile column (l = s*s elements); a TopP row is one atomic step.
      const std::size_t max_take =
          kind == OpKind::Cumsum            ? head.tile * head.tile
          : kind == OpKind::SegmentedCumsum ? kSegmentedStep
                                            : SIZE_MAX;
      // Step scratch lives across iterations; clear/assign/resize reuse
      // its capacity instead of reallocating every step.
      std::vector<std::size_t> act;   // slot index of each stepped row
      std::vector<std::size_t> take;  // elements each stepped row takes
      std::vector<half> xs;
      std::vector<std::int8_t> fs;
      std::vector<half> carries_f16;
      std::vector<float> carries_f32;
      ValueResult<half> out_f16;
      ValueResult<float> out_f32;
      std::int32_t token = -1;
      for (;;) {
        const auto step_begin = Clock::now();
        // Pack: pick the rows this step advances — every unfinished row of
        // a scan, the first unfinished row of a TopP launch — and the
        // slice each takes from its offset (the payload produced so far).
        act.clear();
        take.clear();
        std::size_t unfinished = 0;
        for (std::size_t i = 0; i < slots.size(); ++i) {
          const StreamSlot& s = slots[i];
          if (s.done) continue;
          ++unfinished;
          if (kind == OpKind::TopP && !act.empty()) continue;
          act.push_back(i);
          take.push_back(
              std::min(max_take, s.p.req.x.size() - scan_produced(s.resp)));
        }
        if (act.empty()) break;
        std::size_t width = 0;  // Cumsum: the step's padded row length
        switch (kind) {
          case OpKind::Cumsum:
            // Rows are zero-padded to the step's longest take — trailing
            // zeros cannot change any prefix, so each row's first take
            // outputs are exactly the row's own scan continued by its
            // carry.
            width = *std::max_element(take.begin(), take.end());
            xs.assign(act.size() * width, half(0.0f));
            carries_f16.resize(act.size());
            for (std::size_t j = 0; j < act.size(); ++j) {
              const StreamSlot& s = slots[act[j]];
              const auto from = s.p.req.x.begin() +
                                static_cast<std::ptrdiff_t>(
                                    s.resp.values_f16.size());
              std::copy(from, from + static_cast<std::ptrdiff_t>(take[j]),
                        xs.begin() + static_cast<std::ptrdiff_t>(j * width));
              carries_f16[j] = carry_of(s.resp.values_f16);
            }
            out_f16 = session_.cumsum_batched_step(ls, xs, act.size(), width,
                                                   carries_f16);
            break;
          case OpKind::SegmentedCumsum:
            // Rows concatenate with their flags; the Session forces a
            // segment start per row slice and threads each row's fp32
            // carry across steps.
            xs.clear();
            fs.clear();
            carries_f32.resize(act.size());
            for (std::size_t j = 0; j < act.size(); ++j) {
              const StreamSlot& s = slots[act[j]];
              const auto at =
                  static_cast<std::ptrdiff_t>(s.resp.values_f32.size());
              const auto n = static_cast<std::ptrdiff_t>(take[j]);
              xs.insert(xs.end(), s.p.req.x.begin() + at,
                        s.p.req.x.begin() + at + n);
              fs.insert(fs.end(), s.p.req.flags.begin() + at,
                        s.p.req.flags.begin() + at + n);
              carries_f32[j] = carry_of(s.resp.values_f32);
            }
            out_f32 =
                session_.segmented_cumsum_step(ls, xs, fs, take, carries_f32);
            break;
          case OpKind::TopP: {
            // A row's sample is already a multi-kernel pipeline, so one
            // step = one row; its single chunk carries the token.
            const Request& r = slots[act.front()].p.req;
            token = session_.top_p_step(ls, r.x, r.u).index;
            break;
          }
          case OpKind::Sort:
            break;  // monolithic, above
        }
        partial = ls.report;
        // Unpack: append each stepped row's slice to its partial Response,
        // stream it, and finalize the rows the step completed.
        std::size_t seg_off = 0;  // SegmentedCumsum: row's start in out_f32
        for (std::size_t j = 0; j < act.size(); ++j) {
          StreamSlot& s = slots[act[j]];
          const bool stream = streams(s);
          StreamChunk c;
          c.offset = scan_produced(s.resp);
          switch (kind) {
            case OpKind::Cumsum:
              append_slice(s.resp.values_f16,
                           stream ? &c.values_f16 : nullptr, out_f16.values,
                           j * width, take[j]);
              break;
            case OpKind::SegmentedCumsum:
              append_slice(s.resp.values_f32,
                           stream ? &c.values_f32 : nullptr, out_f32.values,
                           seg_off, take[j]);
              seg_off += take[j];
              break;
            case OpKind::TopP:
              s.resp.token = c.token = token;
              break;
            case OpKind::Sort:
              break;
          }
          const bool finished = kind == OpKind::TopP ||
                                scan_produced(s.resp) == s.p.req.x.size();
          if (stream) {
            c.last = finished;
            deliver_chunk(s, std::move(c), launch_id);
          }
          if (finished) {
            finalize_slot(s, ls.report, slots.size(), launch_id);
            --unfinished;
          }
        }
        // One wakeup pass for every row the step finished, before
        // admission so the freed clients' follow-ups can seat here.
        fulfill_finalized(slots);
        if (allow_admit) admit_continuations(slots, key, unfinished);
        if (preemptible &&
            should_preempt(key, slots, secs(Clock::now() - step_begin))) {
          park_unfinished(slots);
          break;
        }
      }
      fin = kind == OpKind::Cumsum ? session_.cumsum_batched_finish(ls)
            : kind == OpKind::SegmentedCumsum
                ? session_.segmented_cumsum_finish(ls)
                : session_.top_p_finish(ls);
    }
    metrics_.on_batch(slots.size(), fin);
  } catch (const ascend::sim::FaultError& e) {
    // The traffic a fault burned must not vanish from the bandwidth
    // figures: completed steps plus the failing attempt are recorded
    // against failed_batches before the fallback path takes over.
    Report burned = partial;
    burned += e.attempt_report();
    metrics_.on_batch_abandoned(burned);
    // Health outcome before rethrow: the cluster's failover_sink (run by
    // execute_batch's catch) must see the post-fault device state.
    if (opt_.outcome_sink) {
      opt_.outcome_sink(true, burned.retries, canary_count());
    }
    throw;
  } catch (...) {
    metrics_.on_batch_abandoned(partial);
    if (opt_.outcome_sink) {
      opt_.outcome_sink(true, partial.retries, canary_count());
    }
    throw;
  }
  if (opt_.outcome_sink) {
    opt_.outcome_sink(false, fin.retries, canary_count());
  }
}

void Engine::execute_batch(std::vector<Pending> batch,
                           Clock::time_point picked, GroupExec mode) {
  const auto exec_begin = Clock::now();
  std::vector<StreamSlot> slots;
  slots.reserve(batch.size());
  for (auto& p : batch) {
    StreamSlot s;
    s.p = std::move(p);
    s.picked = picked;
    s.exec_begin = exec_begin;
    if (s.p.resume.active) {
      // Resume from a tile checkpoint (failover stash or preemption park):
      // the partial Response moves back in, so the scan continues from the
      // last completed tile's carry instead of recomputing the prefix, and
      // the original batch timestamps keep the latency decomposition
      // spanning the whole interruption.
      ResumeState& rs = s.p.resume;
      s.resp = std::move(rs.resp);
      // resumed_from is cross-device provenance: only a checkpoint that
      // left its device (fault stash failed over, or a parked batch
      // drained off a dying device) records it. A resume on the stashing
      // device — preemption park, or the local isolation re-run of a
      // fault on a still-Healthy device — keeps what the Response carries,
      // so an earlier failover stays on the record.
      if (rs.from_device != opt_.device_id) {
        s.resp.resumed_from = rs.from_device;
      }
      if (rs.preempted && scan_produced(s.resp) > 0) {
        metrics_.on_preempted_tile_resumed();
      }
      s.picked = rs.picked;
      s.exec_begin = rs.exec_begin;
      rs.active = false;
      rs.preempted = false;
    }
    // Reserve the full payload up front: steps append tile-sized slices,
    // and growth reallocations mid-launch are pure overhead.
    if (s.p.req.kind == OpKind::Cumsum) {
      s.resp.values_f16.reserve(s.p.req.x.size());
    } else if (s.p.req.kind == OpKind::SegmentedCumsum) {
      s.resp.values_f32.reserve(s.p.req.x.size());
    }
    slots.push_back(std::move(s));
  }
  batch.clear();
  const bool started_solo = slots.size() == 1;
  try {
    run_group_stepwise(slots, mode);
    // Preemption parks leave the launch cleanly (no exception) with
    // their slots unresolved and checkpointed; hand them back to the
    // queue so the interactive work they yielded to runs next.
    requeue_parked(slots);
  } catch (const std::exception& e) {
    // Already-finalized slots stay final (their streamed prefixes and
    // stamped responses are fulfilled below); only unresolved slots take a
    // fallback. With a cluster failover_sink installed, each unresolved
    // member is first offered — carrying its tile checkpoint — for
    // re-dispatch on a healthy sibling; whatever the sink hands back falls
    // through to the local path below.
    if (opt_.failover_sink) {
      std::vector<Pending> offer;
      for (auto& s : slots) {
        if (s.done) continue;
        stash_resume(s);
        offer.push_back(std::move(s.p));
      }
      std::vector<Pending> local = opt_.failover_sink(std::move(offer));
      for (auto& p : local) {
        if (mode == GroupExec::Isolated || started_solo) {
          Response r =
              immediate_response(p.req.kind, Status::Failed, e.what());
          r.device = opt_.device_id;
          resolve(p, std::move(r), p.resume.picked, p.resume.exec_begin);
        } else {
          // The isolation re-run consumes the stashed checkpoint too —
          // a local resume from the last completed tile, under the
          // request-scoped retry policy.
          execute_single(p, p.resume.picked);
        }
      }
    } else {
      for (auto& s : slots) {
        if (s.done) continue;
        if (mode == GroupExec::Isolated || started_solo) {
          Response r =
              immediate_response(s.p.req.kind, Status::Failed, e.what());
          r.device = opt_.device_id;
          resolve(s.p, std::move(r), s.picked, s.exec_begin);
        } else {
          // Fault isolation: the coalesced launch exhausted the
          // engine-level retry policy. Re-run the members individually,
          // each under its request-scoped policy, so one poisoned request
          // cannot take down the batch. A partially-streamed request
          // restarts from offset 0.
          execute_single(s.p, s.picked);
        }
      }
    }
  }
  // Batch-fulfilled futures: every slot that completed in this launch gets
  // its promise set here, in one pass, outside any lock — the waiters all
  // wake after the launch's work is done instead of preempting it.
  fulfill_finalized(slots);
}

bool Engine::should_preempt(const GroupKey& key,
                            const std::vector<StreamSlot>& slots,
                            double step_s) {
  // Only an all-bulk remainder may park: an interactive row riding the
  // launch (continuation admission) is already being served at its own
  // lane's latency — parking it to serve different interactive work
  // would just shuffle the miss around.
  bool any_unfinished = false;
  std::size_t active = 0;
  auto oldest = Clock::time_point::max();
  for (const auto& s : slots) {
    if (s.done) continue;
    if (s.p.req.priority == Priority::Interactive) return false;
    any_unfinished = true;
    active++;
    oldest = std::min(oldest, s.p.enqueued);
  }
  if (!any_unfinished) return false;
  const auto now = Clock::now();
  // Aging composes with preemption exactly as it composes with lane
  // priority: a bulk launch whose oldest row has waited out the
  // starvation guard has earned the device and cannot be parked again.
  if (secs(now - oldest) >
      opt_.policy.aging_factor * opt_.policy.max_wait_s) {
    return false;
  }
  // Interactive requests matching this launch's key can still be seated
  // by continuation admission while rows are free — only then are they
  // no reason to park.
  const bool key_joinable =
      opt_.policy.continuous && active < opt_.policy.max_batch;
  const double horizon =
      opt_.policy.preempt_slack_s > 0 ? opt_.policy.preempt_slack_s : step_s;
  std::lock_guard<std::mutex> lk(mu_);
  // A cancelling shutdown owns the queue; nothing there will run anyway.
  if (stopping_.load() && stop_mode_ == ShutdownMode::Cancel) return false;
  // The interactive request worth yielding to may still be in the inbox.
  drain_inbox_locked();
  const auto dl =
      queue_.earliest_interactive_deadline(key_joinable ? &key : nullptr);
  if (dl == Clock::time_point::max()) return false;
  return dl <= now + dur(horizon);
}

void Engine::park_unfinished(std::vector<StreamSlot>& slots) {
  metrics_.on_preemption();
  for (auto& s : slots) {
    if (s.done) continue;
    s.resp.preemptions++;
    stash_resume(s);
    s.p.resume.preempted = true;
  }
}

void Engine::requeue_parked(std::vector<StreamSlot>& slots) {
  std::vector<Pending> parked;
  for (auto& s : slots) {
    if (!s.done && s.p.resume.active) parked.push_back(std::move(s.p));
  }
  if (parked.empty()) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    // Original seq and enqueue time ride along, so the parked rows
    // re-enter at their old FIFO position among their deadline peers and
    // the aging clock keeps running from the original admission. Even
    // mid-shutdown the push is safe: Drain serves the queue to empty and
    // Cancel's finish_shutdown resolves whatever remains — no future
    // dangles either way. The depth ticket is re-claimed without a cap
    // check: the rows were admitted once and never left the engine.
    for (auto& p : parked) {
      note_added(p);
      queue_.push(std::move(p));
    }
  }
  wake_all_waiters();
}

void Engine::stash_resume(StreamSlot& s) {
  ResumeState& rs = s.p.resume;
  rs.active = true;
  rs.from_device = opt_.device_id;
  rs.preempted = false;
  rs.resp = std::move(s.resp);
  rs.picked = s.picked;
  rs.exec_begin = s.exec_begin;
}

void Engine::execute_single(Pending& p, Clock::time_point picked) {
  ScopedRetryPolicy scope(session_, p.req.retry.value_or(opt_.retry));
  std::vector<Pending> solo;
  solo.push_back(std::move(p));
  execute_batch(std::move(solo), picked, GroupExec::Isolated);
}

void Engine::stamp_response(Pending& p, Response& r, Clock::time_point picked,
                            Clock::time_point exec_begin) {
  const auto now = Clock::now();
  r.timing.queue_s = secs(picked - p.enqueued);
  r.timing.batch_s = secs(exec_begin - picked);
  r.timing.execute_s = secs(now - exec_begin);
  r.timing.total_s = secs(now - p.enqueued);
  if (p.deadline != Clock::time_point::max() && now > p.deadline) {
    r.deadline_missed = true;
    metrics_.on_deadline_miss();
  }
  if (r.status == Status::Ok) {
    metrics_.on_completed(r.kind, p.req.tier, r.timing);
  } else {
    metrics_.on_failed(r.timing);
  }
}

void Engine::resolve(Pending& p, Response r, Clock::time_point picked,
                     Clock::time_point exec_begin) {
  stamp_response(p, r, picked, exec_begin);
  p.promise.set_value(std::move(r));
}

void Engine::begin_shutdown(ShutdownMode mode) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_.load() || stopped_) return;  // the first caller's mode wins
    stop_mode_ = mode;  // before stopping_: the worker reads it under mu_
    stopping_.store(true, std::memory_order_seq_cst);
  }
  wake_all_waiters();
}

void Engine::finish_shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopped_) return;
    ASCAN_CHECK(stopping_.load(),
                "serve::Engine: finish_shutdown before begin_shutdown");
  }
  if (worker_.joinable()) worker_.join();

  // A submit that passed the stopping check before the flag landed may
  // still be publishing; wait it out so the final drain below is really
  // final (its inbox push is then visible, its future resolved here).
  while (submits_inflight_.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }

  // Cancel-mode leftovers (and anything a dead worker abandoned): resolve
  // every remaining future so none dangles.
  std::vector<Pending> leftovers;
  {
    std::lock_guard<std::mutex> lk(mu_);
    leftovers = take_all_locked();
    stopped_ = true;
  }
  for (auto& p : leftovers) {
    metrics_.on_cancelled();
    p.promise.set_value(
        immediate_response(p.req.kind, Status::Cancelled,
                           "engine shutdown cancelled the request"));
  }
}

void Engine::shutdown(ShutdownMode mode) {
  begin_shutdown(mode);
  finish_shutdown();
}

bool Engine::stopped() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stopped_;
}

std::size_t Engine::queue_depth() const {
  // Mu_-free: the admission ticket counts inbox + batcher occupancy. The
  // cluster's placement loop reads every shard's depth per submit, so
  // this must never contend with the shards' own hot paths.
  return depth_.load(std::memory_order_seq_cst);
}

std::size_t Engine::bulk_backlog() const {
  return bulk_depth_.load(std::memory_order_seq_cst);
}

std::vector<Pending> Engine::steal_bulk_batch(std::size_t min_backlog) {
  std::vector<Pending> batch;
  // Cheap pre-check without mu_: a thief probing an empty sibling must
  // not serialize against that sibling's own worker.
  if (bulk_depth_.load(std::memory_order_seq_cst) < min_backlog) return batch;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopped_) return batch;
    // A cancelling shutdown owns its queued requests — they resolve as
    // Cancelled here, not on a thief.
    if (stopping_.load() && stop_mode_ == ShutdownMode::Cancel) return batch;
    drain_inbox_locked();  // the stealable backlog may still be in-flight
    batch = queue_.steal_bulk(opt_.policy, min_backlog);
    for (const auto& p : batch) note_removed(p);
  }
  if (!batch.empty()) metrics_.on_steal_suffered();
  return batch;
}

bool Engine::inject(Pending& p) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_.load() || stopped_) return false;
    // Keep the original enqueue time (total latency spans the failover)
    // but re-sequence into this queue's FIFO order. No admission counting
    // (the request was admitted once, at its original shard) — but the
    // local depth ticket is claimed so queue_depth() stays truthful for
    // placement and the capacity check backs off accordingly.
    p.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    note_added(p);
    queue_.push(std::move(p));
  }
  wake_all_waiters();
  return true;
}

std::vector<Pending> Engine::drain_queue() {
  std::lock_guard<std::mutex> lk(mu_);
  // Shutdown owns the queue's requests (Drain executes them, Cancel
  // resolves them Cancelled in finish_shutdown); draining here would
  // race that accounting.
  if (stopping_.load() || stopped_) return {};
  return take_all_locked();
}

std::vector<Pending> Engine::take_all_locked() {
  drain_inbox_locked();
  std::vector<Pending> out;
  out.reserve(queue_.size());
  const BatchPolicy flush{.max_batch = 1, .max_wait_s = 0};
  while (!queue_.empty()) {
    auto b = queue_.pop_batch(flush, Clock::now());
    for (auto& p : b) {
      note_removed(p);
      out.push_back(std::move(p));
    }
  }
  return out;
}

Engine::DeviceStats Engine::device_stats() const {
  const auto& c = session_.cumulative_retry_stats();
  return {.active_cores = session_.active_cores(),
          .op_calls = c.calls,
          .op_failures = c.failures,
          .retries = c.retries,
          .excluded_cores = c.excluded_cores};
}

}  // namespace ascan::serve
