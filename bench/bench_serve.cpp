// Experiment S: the serving layer under a hostile thousand-client storm.
//
// Drives the transport-free serve::Server (the core of bflyd) with 1200
// concurrent synthetic clients submitting a deterministic mixed workload —
// control pings, duplicate-keyed computes (coalescing / cache pressure),
// hostile frames, and a spread of request deadlines from hopeless to
// generous — against a deliberately undersized admission queue, so every
// robustness path fires: completion, deadline expiry, deterministic load
// shedding, and structured rejection.  The reproduction tables show the
// final ledger; the gated artifacts are the invariants that must hold on
// every machine at any speed:
//
//   * exact ledger conservation: accepted == completed + cancelled + shed
//     + failed, with accepted == every frame submitted;
//   * every frame answered exactly once;
//   * every hostile frame rejected with a structured invalid_request (and
//     nothing else rejected that way);
//   * crash-recovery bit-identity: responses served from a journal-restored
//     cache are byte-for-byte the responses the first process produced.
//
// Raw counts of the racy buckets (how many shed vs completed) are
// machine-dependent, so they are reported under an ignore-ruled key; only the
// invariants gate.  perfbench's serve workload times the daemon.
//
// All workloads run against local metrics registries so the session report's
// metric surface stays empty and deterministic.
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"

namespace {

using namespace bfly;
using serve::LedgerSnapshot;
using serve::Server;
using serve::ServerOptions;

constexpr std::size_t kClients = 1200;
constexpr std::size_t kFramesPerClient = 4;
constexpr std::size_t kSubmitters = 8;  // threads multiplexing the clients
constexpr u64 kMixSeed = 2026;

// SplitMix64: the repo-standard deterministic stream for workload mixing.
u64 splitmix64(u64* state) {
  u64 z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4568bULL;
  z = (z ^ (z >> 27)) * 0x94d9b19937133111ULL;
  return z ^ (z >> 31);
}

const std::vector<std::string>& hostile_frames() {
  static const std::vector<std::string> frames = {
      "this is not json",
      "{\"op\":\"layout\"}",
      "{\"op\":\"warp_core_breach\",\"id\":\"h\"}",
      "{\"op\":\"census\",\"id\":\"h\",\"n\":6,\"packets\":0}",
      "{\"op\":\"sweep\",\"id\":\"h\",\"n\":99,\"offered_load\":0.5,\"cycles\":1000}",
      "{\"op\":\"layout\",\"id\":\"h\",\"n\":6,\"bogus_field\":1}",
  };
  return frames;
}

/// One client's frame for one round, deterministically mixed: pings,
/// duplicate-keyed computes drawn from a small pool (so coalescing and cache
/// hits fire), hostile frames, and sweeps carrying a deadline spread from
/// hopeless (1 ms) to generous.  `*hostile` reports whether the frame is one
/// of the malformed ones (the caller counts them for the rejection gate).
std::string storm_frame(std::size_t client, std::size_t round, bool* hostile) {
  u64 state = kMixSeed ^ (static_cast<u64>(client) << 20) ^ static_cast<u64>(round);
  const u64 pick = splitmix64(&state) % 100;
  // Built by appends: GCC 12 reports a false -Wrestrict inside
  // std::string's operator+ chain here.
  std::string id = "c";
  id += std::to_string(client);
  id += '-';
  id += std::to_string(round);
  *hostile = false;
  if (pick < 10) {
    return "{\"op\":\"ping\",\"id\":\"" + id + "\"}";
  }
  if (pick < 16) {
    *hostile = true;
    return hostile_frames()[splitmix64(&state) % hostile_frames().size()];
  }
  if (pick < 45) {
    // Census from a pool of 8 duplicate keys: identical concurrent requests
    // coalesce onto one compute; repeats hit the cache.
    const u64 pool = splitmix64(&state) % 8;
    return "{\"op\":\"census\",\"id\":\"" + id + "\",\"n\":" + std::to_string(5 + pool % 3) +
           ",\"packets\":" + std::to_string(40'000 + 10'000 * pool) +
           ",\"seed\":" + std::to_string(pool) + "}";
  }
  if (pick < 70) {
    // Layout / packaging pool of 6 keys.
    const u64 pool = splitmix64(&state) % 6;
    if (pool % 2 == 0) {
      return "{\"op\":\"layout\",\"id\":\"" + id + "\",\"n\":" + std::to_string(4 + pool) + "}";
    }
    return "{\"op\":\"packaging\",\"id\":\"" + id + "\",\"n\":" + std::to_string(4 + pool) + "}";
  }
  // Sweeps with a deadline spread: ~1/3 hopeless (1-4 ms), the rest wide.
  const u64 pool = splitmix64(&state) % 4;
  const u64 roll = splitmix64(&state) % 3;
  const u64 deadline_ms = roll == 0 ? 1 + splitmix64(&state) % 4 : 2'000 + 500 * pool;
  return "{\"op\":\"sweep\",\"id\":\"" + id + "\",\"n\":6,\"offered_load\":0." +
         std::to_string(5 + pool) + ",\"cycles\":" + std::to_string(20'000 + 5'000 * pool) +
         ",\"seed\":" + std::to_string(pool) + ",\"deadline_ms\":" + std::to_string(deadline_ms) +
         "}";
}

/// Minimal response classification without a full JSON parse: the callback
/// runs on server threads, so it must stay cheap and non-throwing.
enum class Outcome { kOk, kDeadline, kOverloaded, kInvalid, kShutdown, kOther };

Outcome classify(const std::string& line) {
  if (line.find("\"ok\":true") != std::string::npos) return Outcome::kOk;
  if (line.find("\"code\":\"deadline_exceeded\"") != std::string::npos) return Outcome::kDeadline;
  if (line.find("\"code\":\"overloaded\"") != std::string::npos) return Outcome::kOverloaded;
  if (line.find("\"code\":\"invalid_request\"") != std::string::npos) return Outcome::kInvalid;
  if (line.find("\"code\":\"shutting_down\"") != std::string::npos) return Outcome::kShutdown;
  return Outcome::kOther;
}

struct StormResult {
  std::size_t frames = 0;
  std::size_t hostile = 0;
  std::size_t responses = 0;
  std::size_t ok = 0, deadline = 0, overloaded = 0, invalid = 0, shutdown = 0, other = 0;
  LedgerSnapshot ledger;
};

StormResult run_storm() {
  StormResult result;
  obs::Registry local;
  const obs::ScopedRegistry scoped(&local);

  ServerOptions options;
  options.max_inflight = 4;
  options.queue_depth = 192;  // undersized on purpose: the shed path must fire
  options.default_deadline_ms = 10'000;
  Server server(options);

  std::mutex mu;
  std::condition_variable cv;
  std::atomic<std::size_t> responded{0};
  std::atomic<std::size_t> ok{0}, deadline{0}, overloaded{0}, invalid{0}, shutdown{0}, other{0};
  const std::size_t total = kClients * kFramesPerClient;

  std::vector<std::thread> submitters;
  std::atomic<std::size_t> hostile_count{0};
  for (std::size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      // Open loop, round-major: every client has a frame in flight before any
      // client submits its second, so all 1200 are concurrently outstanding.
      for (std::size_t round = 0; round < kFramesPerClient; ++round) {
        for (std::size_t client = s; client < kClients; client += kSubmitters) {
          bool hostile = false;
          const std::string frame = storm_frame(client, round, &hostile);
          if (hostile) hostile_count.fetch_add(1, std::memory_order_relaxed);
          server.submit_frame(frame, [&](std::string line) {
            switch (classify(line)) {
              case Outcome::kOk: ok.fetch_add(1, std::memory_order_relaxed); break;
              case Outcome::kDeadline: deadline.fetch_add(1, std::memory_order_relaxed); break;
              case Outcome::kOverloaded:
                overloaded.fetch_add(1, std::memory_order_relaxed);
                break;
              case Outcome::kInvalid: invalid.fetch_add(1, std::memory_order_relaxed); break;
              case Outcome::kShutdown: shutdown.fetch_add(1, std::memory_order_relaxed); break;
              case Outcome::kOther: other.fetch_add(1, std::memory_order_relaxed); break;
            }
            if (responded.fetch_add(1, std::memory_order_acq_rel) + 1 == total) {
              const std::lock_guard<std::mutex> lock(mu);
              cv.notify_all();
            }
          });
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return responded.load(std::memory_order_acquire) == total; });
  }
  result.ledger = server.drain(60'000);

  result.frames = total;
  result.hostile = hostile_count.load();
  result.responses = responded.load();
  result.ok = ok.load();
  result.deadline = deadline.load();
  result.overloaded = overloaded.load();
  result.invalid = invalid.load();
  result.shutdown = shutdown.load();
  result.other = other.load();
  return result;
}

void print_storm_table(const StormResult& r) {
  std::fprintf(stderr, "=== S1: %zu-client mixed storm against a bounded server ===\n", kClients);
  std::fprintf(stderr, "%10s %10s %10s %10s %10s %10s %10s\n", "frames", "completed", "cancelled",
               "shed", "failed", "hits", "coalesced");
  std::fprintf(stderr, "%10zu %10llu %10llu %10llu %10llu %10llu %10llu\n", r.frames,
               static_cast<unsigned long long>(r.ledger.completed),
               static_cast<unsigned long long>(r.ledger.cancelled),
               static_cast<unsigned long long>(r.ledger.shed),
               static_cast<unsigned long long>(r.ledger.failed),
               static_cast<unsigned long long>(r.ledger.cache_hits),
               static_cast<unsigned long long>(r.ledger.coalesced));
  std::fprintf(stderr, "conserved=%s\n", r.ledger.conserved() ? "yes" : "NO");
}

/// One synchronous request against an in-process server.
std::string call(Server* server, const std::string& frame) {
  std::mutex mu;
  std::condition_variable cv;
  std::string response;
  bool done = false;
  server->submit_frame(frame, [&](std::string line) {
    const std::lock_guard<std::mutex> lock(mu);
    response = std::move(line);
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  return response;
}

std::string as_cached(std::string line) {
  const std::size_t pos = line.find("\"cached\":false");
  if (pos != std::string::npos) line.replace(pos, 14, "\"cached\":true");
  return line;
}

struct ReplayResult {
  std::size_t frames = 0;
  std::size_t bit_identical = 0;
  u64 restart_hits = 0;
  u64 restart_misses = 0;
};

/// The crash-recovery bit-identity contract, end to end: compute through a
/// journaling server, restart a fresh server over the same journal, and
/// demand every response back byte-for-byte (modulo the cached flag).
ReplayResult run_replay_check() {
  ReplayResult result;
  obs::Registry local;
  const obs::ScopedRegistry scoped(&local);

  const std::string cache_path =
      "/tmp/bench_serve_cache." + std::to_string(::getpid()) + ".jsonl";
  std::remove(cache_path.c_str());

  const std::vector<std::string> frames = {
      "{\"op\":\"layout\",\"id\":\"r1\",\"n\":5}",
      "{\"op\":\"layout\",\"id\":\"r2\",\"n\":6,\"layers\":4}",
      "{\"op\":\"packaging\",\"id\":\"r3\",\"n\":6}",
      "{\"op\":\"census\",\"id\":\"r4\",\"n\":6,\"packets\":50000,\"seed\":3}",
      "{\"op\":\"census\",\"id\":\"r5\",\"n\":7,\"packets\":80000,\"seed\":4}",
      "{\"op\":\"sweep\",\"id\":\"r6\",\"n\":6,\"offered_load\":0.6,\"cycles\":20000,"
      "\"seed\":5}",
  };
  result.frames = frames.size();

  std::vector<std::string> first;
  {
    ServerOptions options;
    options.cache_path = cache_path;
    Server server(options);
    for (const std::string& frame : frames) first.push_back(call(&server, frame));
    server.drain(60'000);
  }
  {
    ServerOptions options;
    options.cache_path = cache_path;
    Server server(options);
    for (std::size_t i = 0; i < frames.size(); ++i) {
      if (as_cached(first[i]) == call(&server, frames[i])) ++result.bit_identical;
    }
    const LedgerSnapshot ledger = server.drain(60'000);
    result.restart_hits = ledger.cache_hits;
    result.restart_misses = ledger.cache_misses;
  }
  std::remove(cache_path.c_str());
  return result;
}

void print_replay_table(const ReplayResult& r) {
  std::fprintf(stderr, "=== S2: journal restart replay (crash-recovery bit-identity) ===\n");
  std::fprintf(stderr,
               "frames=%zu bit_identical=%zu restart_hits=%llu restart_misses=%llu\n",
               r.frames, r.bit_identical, static_cast<unsigned long long>(r.restart_hits),
               static_cast<unsigned long long>(r.restart_misses));
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t threads = bfly::bench::threads_override(argc, argv);
  bfly::bench::BenchSession session("bench_serve");
  session.threads = threads;
  session.config("threads", static_cast<double>(threads));
  session.config("clients", static_cast<double>(kClients));
  session.config("frames_per_client", static_cast<double>(kFramesPerClient));
  session.config("mix_seed", static_cast<double>(kMixSeed));

  const StormResult storm = run_storm();
  print_storm_table(storm);
  const ReplayResult replay = run_replay_check();
  print_replay_table(replay);

  // The gated invariants: exact on every machine.
  const bool ledger_pass = storm.ledger.conserved() && storm.ledger.accepted == storm.frames;
  session.artifact("serve_clients", static_cast<double>(kClients));
  session.artifact("serve_frames", static_cast<double>(storm.frames));
  session.artifact("serve_ledger_pass", ledger_pass ? 1.0 : 0.0);
  session.artifact("serve_all_answered_pass", storm.responses == storm.frames ? 1.0 : 0.0);
  // Hostile frames — and only hostile frames — answer invalid_request.
  session.artifact("serve_hostile_rejected_pass",
                   storm.invalid == storm.hostile && storm.other == 0 ? 1.0 : 0.0);
  session.artifact("serve_replay_bitwise_pass",
                   replay.bit_identical == replay.frames && replay.restart_misses == 0 ? 1.0
                                                                                      : 0.0);
  session.artifact("serve_replay_frames", static_cast<double>(replay.frames));

  // Machine-speed-dependent counts: reported for the trajectory, ignore-ruled
  // in the gate (thresholds.json).
  json::Value counts = json::Value::object();
  counts.set("completed", json::Value::number(static_cast<double>(storm.ledger.completed)));
  counts.set("cancelled", json::Value::number(static_cast<double>(storm.ledger.cancelled)));
  counts.set("shed", json::Value::number(static_cast<double>(storm.ledger.shed)));
  counts.set("failed", json::Value::number(static_cast<double>(storm.ledger.failed)));
  counts.set("cache_hits", json::Value::number(static_cast<double>(storm.ledger.cache_hits)));
  counts.set("coalesced", json::Value::number(static_cast<double>(storm.ledger.coalesced)));
  session.artifact("serve_storm", std::move(counts));

  session.emit_report();
  return 0;
}
