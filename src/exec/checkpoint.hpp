// Sweep checkpoint journal: the persistence half of exec::run_sweep_resumable.
//
// A checkpoint is a JSONL file — one self-contained record per completed
// sweep point, appended durably (util::append_line_durable) the moment the
// point finishes:
//
//   {"v": 6, "key": "<16 hex>",
//    "outcome": {"point": {...}, "tally": {...}, "live": {...},
//                "timeseries": {...}?, "flight": {...}?}}
//
// The optional "timeseries" member (v2+, present iff the point requested a
// telemetry budget) carries the cycle-resolved samples, so a replayed point
// restores its telemetry bitwise — the kill/resume identity in test_exec
// covers the series too.  The optional "flight" member (v3, present iff the
// point requested a flight budget and any packet was sampled) carries the
// per-packet hop traces under the same bitwise replay contract.  The "live"
// member (v4, always present) carries the LiveFaultStats counters a
// scheduled point accumulated — all zeros for static/pristine points.
//
// The key is a *content hash* of the SweepPoint (every routing-relevant
// field, including the full fault-set liveness map), not a grid index: a
// restart matches records to the current request grid by content, so a
// checkpoint survives reordering or extending the grid and can never replay
// an outcome onto a point whose parameters changed.
//
// Bit-exactness: every numeric field is emitted through json::Value, whose
// writer prints non-integral doubles with %.17g — enough digits to round-trip
// IEEE-754 exactly — and all u64 fields an engine can produce are < 2^53,
// where doubles are exact.  Replayed outcomes are therefore bitwise identical
// to the originals, which is what makes the resume-equals-uninterrupted
// guarantee (docs/resilience.md) possible.
//
// Durability: a crash tears at most the final line (single-write O_APPEND +
// fsync discipline).  The loader skips anything unparsable — torn tail,
// stray garbage, records from a future schema version — and reports how many
// lines it skipped, so a damaged journal degrades to re-running a point
// instead of poisoning the resume.
#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>

#include "sim/sweep.hpp"

namespace bfly::exec {

/// Checkpoint record schema version.  v2 added the optional outcome
/// timeseries and folded telemetry_budget into the point key; v3 added the
/// optional flight-recorder payload and folded flight_budget into the key;
/// v4 added the always-present "live" schedule-application counters to the
/// outcome, folded the fault *schedule* content hash into the key, and
/// widened the tally's dropped array to 5 reasons (killed_by_fault); v5
/// folded shard_count into the key; v6 marks the packet kernel's
/// counter-based injection draws, which changed every saturation outcome,
/// so no v5 record may replay.  Older journals are skipped line-by-line on
/// load (their points simply rerun), the same degradation as a torn line.
inline constexpr u64 kCheckpointVersion = 6;

/// Content hash of `point` as 16 lowercase hex digits: FNV-1a over a
/// version tag and every field that affects the outcome (n, offered_load
/// bits, cycles, seed, warmup, queue capacity, telemetry budget, flight
/// budget, routing budgets, the full fault liveness map when faults are
/// attached, and the fault schedule's content hash when one is attached),
/// plus shard_count, which no longer affects it (see the key's body).
/// Points that hash equal give indistinguishable engine runs.
std::string sweep_point_key(const SweepPoint& point);

/// One completed outcome as a single-line checkpoint record (no newline).
std::string encode_checkpoint_line(const std::string& key, const SweepOutcome& outcome);

struct CheckpointLoad {
  /// Recorded outcomes by sweep-point content key (last record wins; records
  /// for points no longer in the grid are harmless and stay unused).
  std::unordered_map<std::string, SweepOutcome> outcomes;
  std::size_t lines_read = 0;     ///< non-blank lines seen
  std::size_t lines_skipped = 0;  ///< torn / corrupt / wrong-version lines
};

/// Reads a checkpoint journal; a missing file is an empty (fresh) checkpoint.
/// Unparsable lines are counted in lines_skipped and otherwise ignored.
CheckpointLoad load_checkpoint(const std::string& path);

}  // namespace bfly::exec
