#include "serve/protocol.hpp"

#include <cmath>
#include <initializer_list>
#include <string>

#include "exec/checkpoint.hpp"
#include "layout/butterfly_layout.hpp"
#include "packaging/hierarchical.hpp"
#include "routing/routing.hpp"
#include "util/check.hpp"
#include "util/fileio.hpp"

namespace bfly::serve {

namespace {

// Doubles are exact integers up to 2^53; the JSON model stores numbers as
// doubles, so integer fields above that cannot round-trip and are rejected.
constexpr double kMaxExactInteger = 9007199254740992.0;  // 2^53

std::string field_error(std::string_view key, std::string_view what) {
  return "field \"" + std::string(key) + "\" " + std::string(what);
}

u64 get_u64(const json::Value& doc, std::string_view key, u64 min_value, u64 max_value,
            u64 fallback) {
  const json::Value* v = doc.find(key);
  if (v == nullptr) return fallback;
  BFLY_REQUIRE(v->is_number(), field_error(key, "must be a number"));
  const double d = v->as_double();
  BFLY_REQUIRE(d >= 0.0 && d <= kMaxExactInteger && d == std::floor(d),
               field_error(key, "must be a non-negative integer"));
  const u64 value = static_cast<u64>(d);
  BFLY_REQUIRE(value >= min_value && value <= max_value,
               field_error(key, "is out of range [" + std::to_string(min_value) + ", " +
                                    std::to_string(max_value) + "]"));
  return value;
}

double get_unit_double(const json::Value& doc, std::string_view key) {
  const json::Value* v = doc.find(key);
  BFLY_REQUIRE(v != nullptr, field_error(key, "is required"));
  BFLY_REQUIRE(v->is_number(), field_error(key, "must be a number"));
  const double d = v->as_double();
  BFLY_REQUIRE(std::isfinite(d) && d >= 0.0 && d <= 1.0,
               field_error(key, "must be a finite value in [0, 1]"));
  return d;
}

// Frames are hostile input: a key we did not ask for is a malformed request,
// not something to ignore — silently dropped fields hide client bugs (a
// misspelled "cycles" would otherwise run with the default and cache the
// wrong result under the right-looking request).
void require_known_fields(const json::Value& doc,
                          std::initializer_list<std::string_view> allowed) {
  for (const auto& [key, value] : doc.members()) {
    bool known = false;
    for (const std::string_view a : allowed) {
      if (key == a) {
        known = true;
        break;
      }
    }
    BFLY_REQUIRE(known, "unknown field \"" + key + "\" for this op");
  }
}

}  // namespace

const char* to_string(Op op) {
  switch (op) {
    case Op::kPing: return "ping";
    case Op::kStats: return "stats";
    case Op::kLayout: return "layout";
    case Op::kPackaging: return "packaging";
    case Op::kCensus: return "census";
    case Op::kSweep: return "sweep";
  }
  return "?";
}

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kInvalidRequest: return "invalid_request";
    case ErrorCode::kDeadlineExceeded: return "deadline_exceeded";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kShuttingDown: return "shutting_down";
    case ErrorCode::kInternal: return "internal";
  }
  return "?";
}

Request parse_request(const json::Value& doc) {
  BFLY_REQUIRE(doc.is_object(), "request frame must be a JSON object");
  const json::Value* op = doc.find("op");
  BFLY_REQUIRE(op != nullptr && op->is_string(), "field \"op\" (string) is required");

  Request request;
  const std::string& name = op->as_string();
  if (name == "ping") {
    request.op = Op::kPing;
  } else if (name == "stats") {
    request.op = Op::kStats;
  } else if (name == "layout") {
    request.op = Op::kLayout;
  } else if (name == "packaging") {
    request.op = Op::kPackaging;
  } else if (name == "census") {
    request.op = Op::kCensus;
  } else if (name == "sweep") {
    request.op = Op::kSweep;
  } else {
    BFLY_REQUIRE(false, "unknown op \"" + name + "\"");
  }

  if (const json::Value* id = doc.find("id"); id != nullptr) {
    BFLY_REQUIRE(id->is_string(), field_error("id", "must be a string"));
    request.id = id->as_string();
  }
  request.deadline_ms = get_u64(doc, "deadline_ms", 1, u64{1} << 32, 0);
  if (const json::Value* nc = doc.find("no_cache"); nc != nullptr) {
    BFLY_REQUIRE(nc->type() == json::Value::Type::kBool,
                 field_error("no_cache", "must be a boolean"));
    request.no_cache = nc->as_bool();
  }

  switch (request.op) {
    case Op::kPing:
    case Op::kStats:
      require_known_fields(doc, {"op", "id", "deadline_ms", "no_cache"});
      break;
    case Op::kLayout:
      require_known_fields(doc, {"op", "id", "deadline_ms", "no_cache", "n", "layers"});
      request.n = static_cast<int>(get_u64(doc, "n", 3, 16, 0));
      BFLY_REQUIRE(request.n != 0, field_error("n", "is required"));
      request.layers = static_cast<int>(get_u64(doc, "layers", 2, 16, 2));
      break;
    case Op::kPackaging:
      require_known_fields(doc, {"op", "id", "deadline_ms", "no_cache", "n",
                                 "max_offchip_links", "chip_side"});
      request.n = static_cast<int>(get_u64(doc, "n", 1, 16, 0));
      BFLY_REQUIRE(request.n != 0, field_error("n", "is required"));
      request.max_offchip_links = get_u64(doc, "max_offchip_links", 8, 4096, 64);
      request.chip_side = static_cast<i64>(get_u64(doc, "chip_side", 4, 1000, 20));
      break;
    case Op::kCensus:
      require_known_fields(doc, {"op", "id", "deadline_ms", "no_cache", "n", "packets", "seed"});
      request.n = static_cast<int>(get_u64(doc, "n", 1, 14, 0));
      BFLY_REQUIRE(request.n != 0, field_error("n", "is required"));
      request.packets = get_u64(doc, "packets", 1, kMaxCensusPackets, 0);
      BFLY_REQUIRE(request.packets != 0, field_error("packets", "is required"));
      request.seed = get_u64(doc, "seed", 0, ~u64{0} >> 11, 1);
      break;
    case Op::kSweep:
      require_known_fields(doc, {"op", "id", "deadline_ms", "no_cache", "n", "offered_load",
                                 "cycles", "seed", "warmup_cycles", "queue_capacity",
                                 "shard_count"});
      request.n = static_cast<int>(get_u64(doc, "n", 1, 14, 0));
      BFLY_REQUIRE(request.n != 0, field_error("n", "is required"));
      request.offered_load = get_unit_double(doc, "offered_load");
      request.cycles = get_u64(doc, "cycles", 1, kMaxSweepCycles, 0);
      BFLY_REQUIRE(request.cycles != 0, field_error("cycles", "is required"));
      request.seed = get_u64(doc, "seed", 0, ~u64{0} >> 11, 1);
      request.warmup_cycles = get_u64(doc, "warmup_cycles", 0, kMaxSweepCycles, 0);
      BFLY_REQUIRE(request.warmup_cycles < request.cycles,
                   field_error("warmup_cycles", "must be < cycles"));
      request.queue_capacity = get_u64(doc, "queue_capacity", 0, kMaxSweepQueueCapacity, 0);
      request.shard_count = get_u64(doc, "shard_count", 0, kMaxSweepShards, 0);
      BFLY_REQUIRE(request.shard_count == 0 ||
                       (request.shard_count & (request.shard_count - 1)) == 0,
                   field_error("shard_count", "must be 0 or a power of two"));
      // Defense in depth: the library validator owns the full rule set (and
      // may be stricter than the field bounds above compose to).
      validate_sweep_point(to_sweep_point(request), 0);
      break;
  }
  return request;
}

Request parse_request_line(std::string_view line) {
  return parse_request(json::Value::parse(line));
}

SweepPoint to_sweep_point(const Request& request) {
  SweepPoint point;
  point.n = request.n;
  point.offered_load = request.offered_load;
  point.cycles = request.cycles;
  point.seed = request.seed;
  point.warmup_cycles = request.warmup_cycles;
  point.queue_capacity = request.queue_capacity;
  point.shard_count = request.shard_count;
  return point;
}

std::string request_key(const Request& request) {
  BFLY_REQUIRE(request.is_compute(), "control ops have no content key");
  if (request.op == Op::kSweep) {
    // Shared derivation with the checkpoint layer: a served sweep point and a
    // serial checkpointed one with the same parameters answer to the same 16
    // hex.  shard_count sets only the speed, so frames that differ only
    // there share one cache entry.
    SweepPoint point = to_sweep_point(request);
    point.shard_count = 0;
    return exec::sweep_point_key(point);
  }
  util::Fnv1a64 h;
  h.update(std::string_view(to_string(request.op)));
  h.update(static_cast<u64>(request.n));
  switch (request.op) {
    case Op::kLayout:
      h.update(static_cast<u64>(request.layers));
      break;
    case Op::kPackaging:
      h.update(request.max_offchip_links);
      h.update(static_cast<u64>(request.chip_side));
      break;
    case Op::kCensus:
      h.update(request.packets);
      h.update(request.seed);
      break;
    default:
      break;
  }
  return util::to_hex16(h.digest());
}

json::Value execute_request(const Request& request, const CancelToken* cancel,
                            std::size_t engine_threads) {
  json::Value result = json::Value::object();
  switch (request.op) {
    case Op::kPing:
      result.set("pong", json::Value::boolean(true));
      return result;
    case Op::kStats:
      BFLY_CHECK(false, "stats is answered by the server, not executed");
      break;
    case Op::kLayout: {
      ButterflyLayoutOptions options;
      options.layers = request.layers;
      const ButterflyLayoutPlan plan(ButterflyLayoutPlan::choose_parameters(request.n),
                                     options);
      const LayoutMetrics m = plan.metrics();
      result.set("n", json::Value::number(request.n));
      result.set("layers", json::Value::number(request.layers));
      result.set("width", json::Value::number(m.width));
      result.set("height", json::Value::number(m.height));
      result.set("area", json::Value::number(m.area));
      result.set("max_wire_length", json::Value::number(m.max_wire_length));
      result.set("total_wire_length", json::Value::number(m.total_wire_length));
      result.set("num_layers", json::Value::number(m.num_layers));
      result.set("volume", json::Value::number(m.volume));
      result.set("num_nodes", json::Value::number(m.num_nodes));
      result.set("num_wires", json::Value::number(m.num_wires));
      return result;
    }
    case Op::kPackaging: {
      ChipConstraints constraints;
      constraints.max_offchip_links = request.max_offchip_links;
      constraints.chip_side = request.chip_side;
      const HierarchicalPlan plan = plan_hierarchical(request.n, constraints);
      result.set("n", json::Value::number(plan.n));
      result.set("rows_log2", json::Value::number(plan.rows_log2));
      result.set("nodes_per_chip", json::Value::number(plan.nodes_per_chip));
      result.set("num_chips", json::Value::number(plan.num_chips));
      result.set("offchip_links_per_chip", json::Value::number(plan.offchip_links_per_chip));
      result.set("grid_rows", json::Value::number(plan.grid_rows));
      result.set("grid_cols", json::Value::number(plan.grid_cols));
      result.set("logical_tracks_per_channel",
                 json::Value::number(plan.logical_tracks_per_channel));
      result.set("chip_side", json::Value::number(plan.chip_side));
      result.set("terminals_per_edge", json::Value::number(plan.terminals_per_edge));
      json::Value boards = json::Value::object();
      for (const int layers : {2, 4, 8}) {
        json::Value b = json::Value::object();
        b.set("board_side", json::Value::number(plan.board_side(layers)));
        b.set("board_area", json::Value::number(plan.board_area(layers)));
        b.set("max_board_wire", json::Value::number(plan.max_board_wire(layers)));
        boards.set("layers_" + std::to_string(layers), std::move(b));
      }
      result.set("boards", std::move(boards));
      result.set("naive_chips", json::Value::number(
                                    naive_chip_count(plan.n, request.max_offchip_links)));
      return result;
    }
    case Op::kCensus: {
      const LoadCensus census = measure_link_loads(request.n, request.packets, request.seed,
                                                   engine_threads, false, cancel);
      result.set("n", json::Value::number(request.n));
      result.set("packets", json::Value::number(census.packets));
      result.set("max_link_load", json::Value::number(census.max_link_load));
      result.set("avg_link_load", json::Value::number(census.avg_link_load));
      result.set("imbalance", json::Value::number(census.imbalance));
      result.set("avg_distance", json::Value::number(census.avg_distance));
      return result;
    }
    case Op::kSweep: {
      const SweepPoint point = to_sweep_point(request);
      validate_sweep_point(point, 0);
      const SweepOutcome outcome = run_sweep_point(point, cancel, nullptr, nullptr);
      const SaturationPoint& p = outcome.point;
      result.set("n", json::Value::number(request.n));
      result.set("offered_load", json::Value::number(p.offered_load));
      result.set("throughput", json::Value::number(p.throughput));
      result.set("avg_latency", json::Value::number(p.avg_latency));
      result.set("per_node_injection", json::Value::number(p.per_node_injection));
      result.set("delivered", json::Value::number(p.delivered));
      result.set("max_queue", json::Value::number(p.max_queue));
      result.set("dropped_queue_full", json::Value::number(p.dropped_queue_full));
      return result;
    }
  }
  BFLY_CHECK(false, "unreachable op");
}

std::string build_response_ok(std::string_view id, std::string_view key, bool cached,
                              std::string_view result_text) {
  std::string out;
  out.reserve(result_text.size() + id.size() + 64);
  out += "{\"id\":\"";
  out += json::escape(id);
  out += "\",\"ok\":true,\"key\":\"";
  out += key;
  out += "\",\"cached\":";
  out += cached ? "true" : "false";
  out += ",\"result\":";
  out += result_text;
  out += "}";
  return out;
}

std::string build_response_error(std::string_view id, ErrorCode code,
                                 std::string_view message, u64 retry_after_ms) {
  std::string out;
  out.reserve(message.size() + id.size() + 96);
  out += "{\"id\":\"";
  out += json::escape(id);
  out += "\",\"ok\":false,\"error\":{\"code\":\"";
  out += to_string(code);
  out += "\",\"message\":\"";
  out += json::escape(message);
  out += "\"";
  if (retry_after_ms > 0) {
    out += ",\"retry_after_ms\":";
    out += std::to_string(retry_after_ms);
  }
  out += "}}";
  return out;
}

}  // namespace bfly::serve
