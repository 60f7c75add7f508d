// serve — request/response vocabulary of the asynchronous serving engine.
//
// A Request is one client-sized unit of work (one scan, one sort, one
// sampling draw); the engine coalesces compatible queued requests into one
// stepwise launch of the Session's begin/step/finish API (cumsum_batched_*,
// segmented_cumsum_*, top_p_*) and scatters each step's results back per
// request. Clients never see the batching: submit() returns a
// std::future<Response> that resolves exactly once, whatever happens
// (success, typed fault, admission rejection, shutdown cancellation).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/ascan.hpp"

namespace ascan::serve {

/// Operator families the serving engine accepts.
enum class OpKind : std::uint8_t {
  Cumsum,           ///< row scan, stepwise cumsum_batched (fp16 out)
  SegmentedCumsum,  ///< segmented scan, stepwise segmented_cumsum (fp32 out)
  Sort,             ///< fp16 radix/baseline sort (per-request launch)
  TopP,             ///< nucleus sampling, stepwise top_p (one row per step)
};

constexpr const char* op_kind_name(OpKind k) {
  switch (k) {
    case OpKind::Cumsum: return "cumsum";
    case OpKind::SegmentedCumsum: return "segmented_cumsum";
    case OpKind::Sort: return "sort";
    case OpKind::TopP: return "top_p";
  }
  return "?";
}

/// Admission lanes. Interactive requests are picked before bulk ones (the
/// latency-sensitive lane of an LLM serving stack); bulk requests are
/// protected from total starvation by an aging factor (see Batcher).
enum class Priority : std::uint8_t { Interactive, Bulk };

/// SLO tiers: a latency-accounting label orthogonal to the Priority lane.
/// The tier selects which per-tier latency histogram a completion lands in
/// (serve::Metrics) and documents the intent of the request's deadline;
/// the *lane* is still chosen by Priority and the *urgency* by the
/// deadline (EDF within each lane — see Batcher). Conventionally Gold and
/// Silver ride the interactive lane and Bronze the bulk lane, but the
/// fields are independent so a tenant can run e.g. deadline-bearing bulk.
enum class SloTier : std::uint8_t { Gold, Silver, Bronze };

inline constexpr std::size_t kSloTierCount = 3;

constexpr const char* slo_tier_name(SloTier t) {
  switch (t) {
    case SloTier::Gold: return "gold";
    case SloTier::Silver: return "silver";
    case SloTier::Bronze: return "bronze";
  }
  return "?";
}

/// Terminal state of a served request.
enum class Status : std::uint8_t {
  Ok,        ///< executed; payload fields are valid
  Rejected,  ///< never admitted (queue full, invalid arguments, shutdown)
  Cancelled, ///< admitted but dropped by a cancelling shutdown
  Failed,    ///< admitted and executed, but the launch failed (typed fault)
};

constexpr const char* status_name(Status s) {
  switch (s) {
    case Status::Ok: return "ok";
    case Status::Rejected: return "rejected";
    case Status::Cancelled: return "cancelled";
    case Status::Failed: return "failed";
  }
  return "?";
}

/// One streamed partial result: the next completed slice of a request
/// being served by a stepwise (tile-granular) launch. Chunks arrive in
/// order with contiguous offsets; concatenating every chunk's payload
/// reproduces the final Response payload bit-exactly (each chunk is a
/// prefix segment — it is never revised by later chunks). For TopP the
/// single chunk carries the token instead of a payload slice.
struct StreamChunk {
  OpKind kind = OpKind::Cumsum;
  std::size_t offset = 0;  ///< element offset of this slice in the result
  std::vector<half> values_f16;   ///< Cumsum slice
  std::vector<float> values_f32;  ///< SegmentedCumsum slice
  std::int32_t token = -1;        ///< TopP (single terminal chunk)
  bool last = false;  ///< final chunk; the future resolves right after
  int device = -1;             ///< simulated device running the launch
  std::uint64_t launch_id = 0; ///< serving launch this slice came from
};

/// Per-chunk delivery callback. Invoked from the serving worker thread with
/// no engine lock held, so the callback may call Engine::submit() (that is
/// the continuous-admission pattern: react to a partial result by queueing
/// more work). It must not block for long — it stalls the whole launch.
/// If the launch fails mid-stream and is retried on the isolation path,
/// streaming restarts from offset 0 (chunks carry offsets precisely so a
/// client can handle the restart by truncating).
using StreamCallback = std::function<void(const StreamChunk&)>;

/// One client request. Use the factory functions; field meaning depends on
/// the op kind. `retry` overrides the engine-wide RetryPolicy for this
/// request when it executes on the fault-isolation (single-request) path.
struct Request {
  OpKind kind = OpKind::Cumsum;
  Priority priority = Priority::Interactive;

  std::vector<half> x;              ///< values / keys / probabilities
  std::vector<std::int8_t> flags;   ///< SegmentedCumsum: segment starts
  double p = 0.9;                   ///< TopP: nucleus mass
  double u = 0.0;                   ///< TopP: uniform variate in [0,1)
  bool descending = false;          ///< Sort
  SortAlgo sort_algo = SortAlgo::Radix;
  std::size_t tile = 128;           ///< matrix tile edge s
  bool ul1_schedule = false;        ///< Cumsum: ScanUL1 row schedule

  std::optional<RetryPolicy> retry;  ///< request-scoped resilience policy

  /// SLO tier label; selects the per-tier latency histogram.
  SloTier tier = SloTier::Silver;
  /// Relative deadline in seconds from submit(); 0 = best-effort (no
  /// deadline). Drives EDF ordering within the request's lane, the
  /// engine's tile-boundary preemption of bulk launches, and the
  /// deadline_misses counter. A missed deadline never cancels the request
  /// — it completes and is counted (Response::deadline_missed).
  double deadline_s = 0;
  /// Tenant identity for the cluster's per-tenant admission quotas; the
  /// empty string is the shared default bucket.
  std::string tenant;
  /// Internal: stamped by the cluster when the request was admitted
  /// through a Probing device's half-open canary slot, so the launch that
  /// serves it can be tagged as a canary verdict for the health monitor
  /// (stragglers must not readmit a device). Clients leave it false.
  bool canary = false;

  /// Optional streaming sink. When set and the request is served by a
  /// stepwise launch, each completed slice is delivered as it finishes;
  /// the future still resolves the full Response afterwards. Ignored
  /// (full-result-only) on stolen batches — see serve::Cluster.
  StreamCallback on_chunk;

  static Request cumsum(std::vector<half> x, std::size_t tile = 128,
                        bool ul1 = false,
                        Priority prio = Priority::Interactive) {
    Request r;
    r.kind = OpKind::Cumsum;
    r.x = std::move(x);
    r.tile = tile;
    r.ul1_schedule = ul1;
    r.priority = prio;
    return r;
  }
  static Request segmented_cumsum(std::vector<half> x,
                                  std::vector<std::int8_t> flags,
                                  Priority prio = Priority::Bulk) {
    Request r;
    r.kind = OpKind::SegmentedCumsum;
    r.x = std::move(x);
    r.flags = std::move(flags);
    r.priority = prio;
    return r;
  }
  static Request sort(std::vector<half> keys, bool descending = false,
                      SortAlgo algo = SortAlgo::Radix,
                      Priority prio = Priority::Bulk) {
    Request r;
    r.kind = OpKind::Sort;
    r.x = std::move(keys);
    r.descending = descending;
    r.sort_algo = algo;
    r.priority = prio;
    return r;
  }
  static Request top_p(std::vector<half> probs, double p, double u,
                       std::size_t tile = 128,
                       Priority prio = Priority::Interactive) {
    Request r;
    r.kind = OpKind::TopP;
    r.x = std::move(probs);
    r.p = p;
    r.u = u;
    r.tile = tile;
    r.priority = prio;
    return r;
  }

  /// Fluent SLO stamp for factory chaining:
  ///   engine.submit(Request::cumsum(x).with_slo(SloTier::Gold, 2e-3));
  Request& with_slo(SloTier t, double deadline = 0) {
    tier = t;
    deadline_s = deadline;
    return *this;
  }
  /// Fluent tenant stamp (cluster per-tenant admission quotas).
  Request& with_tenant(std::string id) {
    tenant = std::move(id);
    return *this;
  }
};

/// Host wall-clock latency decomposition of one request (seconds).
struct Timing {
  double queue_s = 0;    ///< enqueue -> picked by a batch former
  double batch_s = 0;    ///< picked -> batched launch issued (gather/pad)
  double execute_s = 0;  ///< launch issued -> results available
  double total_s = 0;    ///< enqueue -> future fulfilled
  /// enqueue -> first streamed chunk delivered; 0 when nothing streamed.
  double first_chunk_s = 0;
};

/// What the future resolves to. Exactly one of the payload groups is
/// populated on Ok, selected by `kind`; `report` is the simulated Report of
/// the launch that served the request (shared by all `batch_size` members
/// of the same batched launch).
struct Response {
  Status status = Status::Ok;
  std::string reason;  ///< human-readable cause for non-Ok statuses
  OpKind kind = OpKind::Cumsum;

  std::vector<half> values_f16;        ///< Cumsum
  std::vector<float> values_f32;       ///< SegmentedCumsum
  std::vector<half> sorted_values;     ///< Sort
  std::vector<std::int32_t> indices;   ///< Sort
  std::int32_t token = -1;             ///< TopP

  Report report;              ///< simulated profile of the serving launch
  std::size_t batch_size = 0; ///< requests coalesced into that launch
  /// Which simulated device executed the request: the serving Engine's
  /// device_id (a cluster shard index, 0 for a standalone engine). -1 for
  /// requests that never reached a device (rejections).
  int device = -1;
  /// Engine-local execution ordinal of the serving launch. Members of the
  /// same coalesced batch share it; consecutive launches on one device get
  /// increasing ids. 0 for requests that never launched.
  std::uint64_t launch_id = 0;
  /// Chunks delivered to this request's on_chunk callback (0 when the
  /// request didn't stream: no callback, Sort, or a stolen batch).
  std::size_t chunks_streamed = 0;
  /// Device failover provenance: when >= 0, the request's launch faulted
  /// (or was parked) on this device and the request was resumed elsewhere
  /// from its tile checkpoint (compare with `device`, the shard that
  /// finished it). Only a checkpoint that crosses devices sets it: a
  /// resume on the device that stashed the checkpoint — a preemption park,
  /// or a fault that the device's own isolation path re-runs — keeps the
  /// provenance the request already carried (-1 unless an earlier launch
  /// failed over).
  int resumed_from = -1;
  /// Times this request's bulk launch was preempted at a tile boundary
  /// (parked as a checkpoint so a deadline-pressed interactive batch could
  /// run) before completing. 0 for an unpreempted run.
  std::uint32_t preemptions = 0;
  /// The request carried a deadline and resolved after it expired. The
  /// result is still valid — deadlines are accounting, not cancellation.
  bool deadline_missed = false;
  Timing timing;

  bool ok() const { return status == Status::Ok; }
};

/// A terminal response carrying no payload (rejections, cancellations,
/// typed failures). Shared by the Engine and the Cluster front end.
inline Response immediate_response(OpKind kind, Status status,
                                   std::string reason) {
  Response r;
  r.kind = kind;
  r.status = status;
  r.reason = std::move(reason);
  return r;
}

}  // namespace ascan::serve
