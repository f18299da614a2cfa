// bfly::serve wire protocol: JSONL request/response frames for the bflyd
// request daemon (serve/server.hpp) and its clients.
//
// One frame = one JSON object on one line.  Requests name an operation over
// the paper's B_n constructions; every *compute* operation (layout,
// packaging, census, sweep) is a pure function of its parameters, which is
// what makes the serving layer's memoization sound: the request's content
// hash (request_key) names the result forever, and a cache hit is
// byte-identical to a cold compute.
//
// Request frame:
//
//   {"op": "layout" | "packaging" | "census" | "sweep" | "ping" | "stats",
//    "id": "<client correlation token, echoed verbatim>",      (optional)
//    "deadline_ms": <per-request budget, 0 < v <= max>,        (optional)
//    "no_cache": true,                                          (optional)
//    ...op parameters at top level (see parse_request)...}
//
// Response frame (success):
//
//   {"id": "...", "ok": true, "key": "<16 hex>", "cached": true|false,
//    "result": {...}}
//
// The "result" object for a given key is served as the exact byte sequence
// the cold compute produced — the serialized text, not a re-rendered
// document — so replays from the persisted cache and coalesced duplicates
// are bit-identical, and clients may hash the result text.
//
// Response frame (error):
//
//   {"id": "...", "ok": false,
//    "error": {"code": "invalid_request" | "deadline_exceeded" |
//                      "overloaded" | "shutting_down" | "internal",
//              "message": "...", "retry_after_ms": <hint>?}}
//
// "retry_after_ms" accompanies "overloaded" only: a deterministic hint
// derived from queue occupancy and observed service time, never a promise.
//
// See docs/serving.md for the full protocol contract.
#pragma once

#include <string>
#include <string_view>

#include "obs/json.hpp"
#include "sim/sweep.hpp"

namespace bfly::serve {

/// Operations.  kPing / kStats are control operations: admission-exempt,
/// never cached, answered inline by the server.  The other four are compute
/// operations: queued, deadline-governed, memoized by content hash.
enum class Op {
  kPing,
  kStats,
  kLayout,
  kPackaging,
  kCensus,
  kSweep,
};

/// "ping" / "stats" / "layout" / "packaging" / "census" / "sweep".
const char* to_string(Op op);

/// Structured error taxonomy; every failure a client can observe maps to
/// exactly one code (and every code to exactly one ledger bucket — see
/// serve/server.hpp).
enum class ErrorCode {
  kInvalidRequest,    ///< malformed frame, unknown op, out-of-range params
  kDeadlineExceeded,  ///< expired queued, mid-engine, or waiting on a coalesced compute
  kOverloaded,        ///< admission queue full: shed, retry_after_ms attached
  kShuttingDown,      ///< drain in progress (or drain budget exhausted)
  kInternal,          ///< an engine threw (a bug or resource failure, not the client)
};

/// "invalid_request" / "deadline_exceeded" / "overloaded" / "shutting_down" /
/// "internal".
const char* to_string(ErrorCode code);

/// A parsed, validated request.  Parameter fields are meaningful per op; the
/// parser zero-fills the rest, so request_key can hash the whole struct
/// uniformly.
struct Request {
  Op op = Op::kPing;
  std::string id;        ///< echoed verbatim; empty allowed
  u64 deadline_ms = 0;   ///< 0 = use the server default
  bool no_cache = false; ///< bypass memoization: always compute, never store

  // layout (n in [3, 16], layers in [2, 16]): streamed LayoutMetrics of the
  // Section 3/4 recursive grid layout with choose_parameters(n).
  // packaging (n in [1, 16]): the Section 5 hierarchical plan.
  // census (n in [1, 14]): Monte-Carlo link-load census.  The serving bound
  // is tighter than the library's [1, 30]: the census keeps one per-link
  // partial array per worker, and n = 14 keeps that a few MB per request.
  // sweep (n in [1, 14]): one queued-simulation saturation point.
  int n = 0;

  int layers = 2;               ///< layout
  u64 max_offchip_links = 64;   ///< packaging
  i64 chip_side = 20;           ///< packaging
  u64 packets = 0;              ///< census
  u64 seed = 0;                 ///< census, sweep
  double offered_load = 0.0;    ///< sweep
  u64 cycles = 0;               ///< sweep
  u64 warmup_cycles = 0;        ///< sweep
  u64 queue_capacity = 0;       ///< sweep
  u64 shard_count = 0;          ///< sweep (0 = serial engine); speed only, not in the key

  bool is_compute() const { return op != Op::kPing && op != Op::kStats; }
};

/// Work-bounding caps on compute parameters, enforced by parse_request so a
/// hostile client cannot wedge a dispatcher with one giant request.  These
/// are serving-layer policy (the library itself accepts more); oversize
/// values are invalid_request, not silently clamped.
inline constexpr u64 kMaxCensusPackets = u64{1} << 26;
inline constexpr u64 kMaxSweepCycles = u64{1} << 22;
inline constexpr u64 kMaxSweepQueueCapacity = u64{1} << 20;
inline constexpr u64 kMaxSweepShards = 256;

/// Parses and validates one request document.  Throws InvalidArgument with a
/// client-presentable message on: a non-object document, a missing/unknown
/// "op", mistyped fields, out-of-range parameters (per-op bounds above), or
/// a non-integral value in an integer field.
Request parse_request(const json::Value& doc);

/// parse_request over a raw frame line (parses the JSON first; same throws,
/// plus JSON syntax errors).
Request parse_request_line(std::string_view line);

/// Content hash of a compute request as 16 lowercase hex digits: FNV-1a64
/// over the op tag and every parameter that affects the result — and nothing
/// else (id, deadline_ms, and no_cache are delivery metadata).  Sweep
/// requests hash through exec::sweep_point_key with shard_count zeroed (it
/// sets only the speed), so a served sweep point and a serial checkpointed
/// sweep point with the same parameters carry the same key.  Two requests
/// key equal iff their results are byte-identical.
std::string request_key(const Request& request);

/// The SweepPoint a kSweep request describes (already validated).
SweepPoint to_sweep_point(const Request& request);

/// Executes a compute request and returns the result *object* (not the
/// envelope).  Pure: identical requests produce byte-identical
/// serializations.  `cancel` (nullable) is threaded into the engines that
/// poll (census chunks, sweep cycle loops); when it trips mid-compute the
/// partial result must be discarded by the caller — the server answers
/// deadline_exceeded instead.  Throws InvalidArgument / InternalError on
/// engine rejection.  kPing yields {"pong": true}; kStats is *not* handled
/// here (it is server state, not a pure function — see Server).
json::Value execute_request(const Request& request, const CancelToken* cancel,
                            std::size_t engine_threads = 0);

/// Success envelope: {"id", "ok": true, "key", "cached", "result": <result
/// text spliced verbatim>}.  `result_text` must be a serialized JSON value
/// (the compute's dump() or a cache payload); it is embedded byte-for-byte.
std::string build_response_ok(std::string_view id, std::string_view key, bool cached,
                              std::string_view result_text);

/// Error envelope; retry_after_ms > 0 attaches the hint (overloaded only by
/// convention).
std::string build_response_error(std::string_view id, ErrorCode code,
                                 std::string_view message, u64 retry_after_ms = 0);

}  // namespace bfly::serve
