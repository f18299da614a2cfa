#include "exec/checkpoint.hpp"

#include <bit>
#include <fstream>

#include "obs/json.hpp"
#include "util/fileio.hpp"

namespace bfly::exec {

namespace {

/// Folds the complete liveness map into the hash: link liveness in dense
/// link-index order, then node liveness in (stage * rows + row) order, bit-
/// packed 64 at a time.  Two fault sets hash equal iff every link and node
/// agrees, regardless of how the set was constructed.
void hash_fault_set(util::Fnv1a64* h, const FaultSet& faults) {
  h->update(static_cast<u64>(faults.dimension()));
  u64 word = 0;
  int bits = 0;
  const auto push_bit = [&](bool alive) {
    word = (word << 1) | (alive ? 1u : 0u);
    if (++bits == 64) {
      h->update(word);
      word = 0;
      bits = 0;
    }
  };
  for (u64 link = 0; link < faults.num_links(); ++link) push_bit(faults.link_alive_index(link));
  for (int stage = 0; stage <= faults.dimension(); ++stage) {
    for (u64 row = 0; row < faults.rows(); ++row) push_bit(faults.node_alive(row, stage));
  }
  if (bits > 0) h->update(word);
}

json::Value point_to_json(const SaturationPoint& p) {
  json::Value v = json::Value::object();
  v.set("offered_load", json::Value::number(p.offered_load));
  v.set("throughput", json::Value::number(p.throughput));
  v.set("avg_latency", json::Value::number(p.avg_latency));
  v.set("per_node_injection", json::Value::number(p.per_node_injection));
  v.set("delivered", json::Value::number(p.delivered));
  v.set("max_queue", json::Value::number(p.max_queue));
  v.set("dropped_queue_full", json::Value::number(p.dropped_queue_full));
  return v;
}

json::Value tally_to_json(const FaultTally& t) {
  json::Value v = json::Value::object();
  v.set("delivered", json::Value::number(t.delivered));
  json::Value dropped = json::Value::array();
  for (const u64 d : t.dropped) dropped.push_back(json::Value::number(d));
  v.set("dropped", std::move(dropped));
  v.set("misroutes", json::Value::number(t.misroutes));
  v.set("wraps", json::Value::number(t.wraps));
  return v;
}

SaturationPoint point_from_json(const json::Value& v) {
  SaturationPoint p;
  p.offered_load = v.at("offered_load").as_double();
  p.throughput = v.at("throughput").as_double();
  p.avg_latency = v.at("avg_latency").as_double();
  p.per_node_injection = v.at("per_node_injection").as_double();
  p.delivered = v.at("delivered").as_u64();
  p.max_queue = v.at("max_queue").as_u64();
  p.dropped_queue_full = v.at("dropped_queue_full").as_u64();
  return p;
}

json::Value live_to_json(const LiveFaultStats& s) {
  json::Value v = json::Value::object();
  v.set("fail_events", json::Value::number(s.fail_events));
  v.set("repair_events", json::Value::number(s.repair_events));
  v.set("failovers", json::Value::number(s.failovers));
  v.set("spares_used", json::Value::number(s.spares_used));
  v.set("links_killed", json::Value::number(s.links_killed));
  v.set("links_revived", json::Value::number(s.links_revived));
  return v;
}

LiveFaultStats live_from_json(const json::Value& v) {
  LiveFaultStats s;
  s.fail_events = v.at("fail_events").as_u64();
  s.repair_events = v.at("repair_events").as_u64();
  s.failovers = v.at("failovers").as_u64();
  s.spares_used = v.at("spares_used").as_u64();
  s.links_killed = v.at("links_killed").as_u64();
  s.links_revived = v.at("links_revived").as_u64();
  return s;
}

FaultTally tally_from_json(const json::Value& v) {
  FaultTally t;
  t.delivered = v.at("delivered").as_u64();
  const json::Value& dropped = v.at("dropped");
  BFLY_REQUIRE(dropped.is_array() && dropped.size() == kNumDropReasons,
               "checkpoint tally has wrong dropped arity");
  for (std::size_t i = 0; i < kNumDropReasons; ++i) t.dropped[i] = dropped.at(i).as_u64();
  t.misroutes = v.at("misroutes").as_u64();
  t.wraps = v.at("wraps").as_u64();
  return t;
}

}  // namespace

std::string sweep_point_key(const SweepPoint& point) {
  util::Fnv1a64 h;
  h.update(kCheckpointVersion);
  h.update(static_cast<u64>(point.n));
  // Hash the bit pattern, not a decimal rendering: distinct doubles (and
  // -0.0 vs 0.0) must key distinct records.
  h.update(std::bit_cast<u64>(point.offered_load));
  h.update(point.cycles);
  h.update(point.seed);
  h.update(point.warmup_cycles);
  h.update(point.queue_capacity);
  h.update(point.telemetry_budget);
  h.update(point.flight_budget);
  // shard_count has not changed an outcome since v6, but it stays in the
  // key: perfbench's curve workload journals a serial and a sharded family
  // of otherwise equal points into one file, and checks that the sharded
  // family computes instead of replaying.  Dropping it waits for a change to
  // that workload (ROADMAP item 1).
  h.update(point.shard_count);
  h.update(static_cast<u64>(static_cast<i64>(point.routing.misroute_budget)));
  h.update(static_cast<u64>(static_cast<i64>(point.routing.wrap_budget)));
  if (point.faults == nullptr) {
    h.update(u64{0});
  } else {
    h.update(u64{1});
    hash_fault_set(&h, *point.faults);
  }
  // The live fault timeline is part of the point's identity: two points
  // differing only in their schedule must key distinct records.
  if (point.schedule == nullptr) {
    h.update(u64{0});
  } else {
    h.update(u64{1});
    h.update(point.schedule->content_hash());
  }
  return util::to_hex16(h.digest());
}

std::string encode_checkpoint_line(const std::string& key, const SweepOutcome& outcome) {
  json::Value rec = json::Value::object();
  rec.set("v", json::Value::number(kCheckpointVersion));
  rec.set("key", json::Value::string(key));
  json::Value out = json::Value::object();
  out.set("point", point_to_json(outcome.point));
  out.set("tally", tally_to_json(outcome.tally));
  out.set("live", live_to_json(outcome.live));
  // Telemetry-enabled points persist their samples so replay restores them
  // bitwise; an untelemetered point collected nothing and needs no
  // round-tripping.
  if (!outcome.timeseries.empty()) {
    out.set("timeseries", outcome.timeseries.to_json());
  }
  // Same contract for the flight recorder: persisted only when a sampled
  // trace exists, so replay restores the exact recorder state.
  if (!outcome.flight.empty()) {
    out.set("flight", outcome.flight.to_json());
  }
  rec.set("outcome", std::move(out));
  return rec.dump();
}

CheckpointLoad load_checkpoint(const std::string& path) {
  CheckpointLoad load;
  std::ifstream in(path, std::ios::binary);
  if (!in) return load;  // fresh checkpoint
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    ++load.lines_read;
    try {
      const json::Value rec = json::Value::parse(line);
      BFLY_REQUIRE(rec.is_object(), "checkpoint record must be an object");
      BFLY_REQUIRE(rec.at("v").as_u64() == kCheckpointVersion,
                   "unknown checkpoint record version");
      const std::string& key = rec.at("key").as_string();
      const json::Value& out = rec.at("outcome");
      SweepOutcome outcome;
      outcome.point = point_from_json(out.at("point"));
      outcome.tally = tally_from_json(out.at("tally"));
      outcome.live = live_from_json(out.at("live"));
      // Optional (v2): absent for untelemetered points.
      if (const json::Value* ts = out.find("timeseries")) {
        outcome.timeseries = obs::TimeSeries::from_json(*ts);
      }
      // Optional (v3): absent unless the point sampled at least one packet.
      if (const json::Value* fl = out.find("flight")) {
        outcome.flight = obs::FlightRecorder::from_json(*fl);
      }
      load.outcomes[key] = outcome;
    } catch (const std::exception&) {
      // Torn tail from a crash mid-append, stray corruption, or a future
      // version: skip the line; the point just reruns.
      ++load.lines_skipped;
    }
  }
  return load;
}

}  // namespace bfly::exec
