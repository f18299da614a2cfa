// Transport-free tests of the serving core: protocol parsing and hostile
// frames, content keys, the single-flight cache (dedup storms, joiner
// deadlines), deadline expiry everywhere a request can expire, bounded
// admission and shedding, drain, the exact request ledger, and crash-style
// journal recovery (torn tails, bit-identical replay).
//
// The dedup-storm and ledger tests are also the serve entries in the TSan CI
// job: many submitter threads racing dispatchers, the reaper, and cache
// resolution is exactly the interleaving surface the single-flight map has
// to survive.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/checkpoint.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace bfly::serve {
namespace {

using json::Value;

// Collects responses and lets a test block until all expected ones arrived
// (responses fire from dispatcher / reaper / submitter threads).
class ResponseBin {
 public:
  ResponseCallback callback() {
    return [this](std::string line) {
      std::lock_guard<std::mutex> lock(mu_);
      lines_.push_back(std::move(line));
      cv_.notify_all();
    };
  }

  std::vector<std::string> wait_for(std::size_t count) {
    std::unique_lock<std::mutex> lock(mu_);
    const bool ok = cv_.wait_for(lock, std::chrono::seconds(60),
                                 [&] { return lines_.size() >= count; });
    EXPECT_TRUE(ok) << "only " << lines_.size() << "/" << count << " responses arrived";
    return lines_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::string> lines_;
};

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "serve_" + name + "_" + std::to_string(::getpid()) +
         ".jsonl";
}

WaitCallback noop_wait() {
  return [](WaitResult, ErrorCode, const std::string&) {};
}

// --- protocol ----------------------------------------------------------------

TEST(ServeProtocol, ParsesAndValidatesRequests) {
  const Request r = parse_request_line(
      R"({"op":"sweep","id":"a","n":6,"offered_load":0.5,"cycles":1000,"seed":3,)"
      R"("warmup_cycles":100,"queue_capacity":64,"shard_count":4,"deadline_ms":250})");
  EXPECT_EQ(r.op, Op::kSweep);
  EXPECT_EQ(r.id, "a");
  EXPECT_EQ(r.n, 6);
  EXPECT_DOUBLE_EQ(r.offered_load, 0.5);
  EXPECT_EQ(r.cycles, 1000u);
  EXPECT_EQ(r.warmup_cycles, 100u);
  EXPECT_EQ(r.queue_capacity, 64u);
  EXPECT_EQ(r.shard_count, 4u);
  EXPECT_EQ(r.deadline_ms, 250u);
}

TEST(ServeProtocol, RejectsHostileFrames) {
  // Every one of these must throw InvalidArgument — never crash, never
  // silently default.
  const std::vector<std::string> bad = {
      "",                                                  // empty
      "not json at all",                                   // not JSON
      "[1,2,3]",                                           // not an object
      "{}",                                                // no op
      R"({"op":"evil"})",                                  // unknown op
      R"({"op":"layout"})",                                // missing n
      R"({"op":"layout","n":2})",                          // n below layout min
      R"({"op":"layout","n":17})",                         // n above cap
      R"({"op":"layout","n":6,"layres":2})",               // misspelled field
      R"({"op":"layout","n":"six"})",                      // mistyped n
      R"({"op":"layout","n":6.5})",                        // non-integral n
      R"({"op":"census","n":8,"packets":0})",              // packets = 0
      R"({"op":"census","n":8})",                          // packets missing
      R"({"op":"census","n":8,"packets":1e18})",           // packets over cap
      R"({"op":"sweep","n":6,"offered_load":1.5,"cycles":10})",  // load > 1
      R"({"op":"sweep","n":6,"offered_load":0.5,"cycles":0})",   // cycles = 0
      R"({"op":"sweep","n":6,"offered_load":0.5,"cycles":10,"warmup_cycles":10})",
      R"({"op":"sweep","n":6,"offered_load":0.5,"cycles":10,"shard_count":3})",
      R"({"op":"ping","deadline_ms":0})",                  // zero deadline
      R"({"op":"ping","id":7})",                           // mistyped id
      std::string(2048, 'x'),                              // long junk
  };
  for (const std::string& frame : bad) {
    EXPECT_THROW((void)parse_request_line(frame), InvalidArgument) << frame;
  }
}

TEST(ServeProtocol, RequestKeyCoversParametersAndIgnoresDeliveryMetadata) {
  const Request a = parse_request_line(R"({"op":"census","n":8,"packets":1000,"seed":7})");
  Request b = a;
  b.id = "different";
  b.deadline_ms = 123;
  b.no_cache = true;
  EXPECT_EQ(request_key(a), request_key(b));  // delivery metadata is not content

  Request c = a;
  c.seed = 8;
  EXPECT_NE(request_key(a), request_key(c));
  Request d = a;
  d.packets = 1001;
  EXPECT_NE(request_key(a), request_key(d));

  // Distinct ops with overlapping parameter values must not collide.
  const Request layout = parse_request_line(R"({"op":"layout","n":8})");
  const Request packaging = parse_request_line(R"({"op":"packaging","n":8})");
  EXPECT_NE(request_key(layout), request_key(packaging));
}

TEST(ServeProtocol, SweepKeysMatchCheckpointKeys) {
  // A served sweep point and an exec checkpoint of the same parameters share
  // one identity — the cross-layer cache story.
  const Request r = parse_request_line(
      R"({"op":"sweep","n":6,"offered_load":0.7,"cycles":500,"seed":11})");
  EXPECT_EQ(request_key(r), exec::sweep_point_key(to_sweep_point(r)));
  // shard_count is speed, not content: the sharded frame keys as the serial
  // one, and its result is the same bits.
  const Request sharded = parse_request_line(
      R"({"op":"sweep","n":6,"offered_load":0.7,"cycles":500,"seed":11,"shard_count":4})");
  EXPECT_EQ(request_key(sharded), request_key(r));
  EXPECT_EQ(execute_request(sharded, nullptr).dump(), execute_request(r, nullptr).dump());
}

TEST(ServeProtocol, ExecuteIsDeterministicAndCancellable) {
  const Request r = parse_request_line(
      R"({"op":"census","n":6,"packets":200000,"seed":5})");
  const std::string a = execute_request(r, nullptr).dump();
  const std::string b = execute_request(r, nullptr).dump();
  EXPECT_EQ(a, b);

  // An untripped token changes nothing (bitwise).
  CancelToken idle;
  idle.set_deadline_after(std::chrono::hours(1));
  EXPECT_EQ(execute_request(r, &idle).dump(), a);

  // A pre-tripped token stops the engine at its first poll: the partial
  // result differs from the full compute (the server discards it; here we
  // just prove cancellation actually bites).
  CancelToken tripped;
  tripped.request_cancel();
  EXPECT_NE(execute_request(r, &tripped).dump(), a);
}

TEST(ServeProtocol, ResponseEnvelopesAreWellFormedJson) {
  const std::string ok = build_response_ok("id-1", "abcd", true, R"({"x":1})");
  const Value doc = Value::parse(ok);
  EXPECT_TRUE(doc.at("ok").as_bool());
  EXPECT_TRUE(doc.at("cached").as_bool());
  EXPECT_EQ(doc.at("result").at("x").as_u64(), 1u);

  const std::string err =
      build_response_error("weird \"id\"\n", ErrorCode::kOverloaded, "q full", 25);
  const Value edoc = Value::parse(err);
  EXPECT_FALSE(edoc.at("ok").as_bool());
  EXPECT_EQ(edoc.at("id").as_string(), "weird \"id\"\n");
  EXPECT_EQ(edoc.at("error").at("code").as_string(), "overloaded");
  EXPECT_EQ(edoc.at("error").at("retry_after_ms").as_u64(), 25u);
}

// --- single-flight cache -----------------------------------------------------

TEST(ServeCache, SingleFlightDedupUnderRequestStorm) {
  // The satellite TSan scenario: many threads race lookup_or_begin on one
  // key; exactly one must become the owner, everyone else joins or hits, and
  // after the one publish every resolution carries the identical payload.
  ServeCache cache("");
  constexpr int kThreads = 16;
  constexpr int kRoundsPerThread = 32;
  std::atomic<int> owners{0};
  std::atomic<int> joined{0};
  std::atomic<int> hits{0};
  std::atomic<int> ready{0};
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRoundsPerThread; ++round) {
        std::string payload;
        const CancelToken* token = nullptr;
        const Admission admission = cache.lookup_or_begin(
            "the-key", deadline, &payload, &token,
            [&](WaitResult result, ErrorCode, const std::string& body) {
              if (result == WaitResult::kReady && body == "payload") {
                ready.fetch_add(1);
              }
            });
        if (admission == Admission::kOwner) {
          owners.fetch_add(1);
          EXPECT_NE(token, nullptr);
          cache.publish("the-key", "payload");
        } else if (admission == Admission::kJoined) {
          joined.fetch_add(1);
        } else {
          EXPECT_EQ(payload, "payload");
          hits.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(owners.load(), 1);  // exactly one compute, ever
  EXPECT_EQ(ready.load(), joined.load());
  EXPECT_EQ(owners.load() + joined.load() + hits.load(), kThreads * kRoundsPerThread);
  EXPECT_EQ(cache.ready_entries(), 1u);
}

TEST(ServeCache, JoinersExtendTheSharedDeadlineMonotonically) {
  ServeCache cache("");
  const auto now = std::chrono::steady_clock::now();
  std::string payload;
  const CancelToken* token = nullptr;
  ASSERT_EQ(cache.lookup_or_begin("k", now + std::chrono::milliseconds(10), &payload,
                                  &token, noop_wait()),
            Admission::kOwner);
  ASSERT_NE(token, nullptr);
  EXPECT_EQ(token->deadline(), now + std::chrono::milliseconds(10));

  // A patient joiner pushes the shared compute's deadline out...
  ASSERT_EQ(cache.lookup_or_begin("k", now + std::chrono::seconds(10), &payload, &token,
                                  noop_wait()),
            Admission::kJoined);
  EXPECT_EQ(token->deadline(), now + std::chrono::seconds(10));

  // ...and an impatient one can never pull it back in.
  ASSERT_EQ(cache.lookup_or_begin("k", now + std::chrono::milliseconds(1), &payload,
                                  &token, noop_wait()),
            Admission::kJoined);
  EXPECT_EQ(token->deadline(), now + std::chrono::seconds(10));
  cache.publish("k", "done");
}

TEST(ServeCache, FailDropsEntryAndNotifiesJoiners) {
  ServeCache cache("");
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::string payload;
  const CancelToken* token = nullptr;
  ASSERT_EQ(cache.lookup_or_begin("k", deadline, &payload, &token, noop_wait()),
            Admission::kOwner);

  WaitResult seen = WaitResult::kReady;
  ErrorCode seen_code = ErrorCode::kInternal;
  std::string seen_body;
  ASSERT_EQ(cache.lookup_or_begin("k", deadline, &payload, &token,
                                  [&](WaitResult r, ErrorCode c, const std::string& b) {
                                    seen = r;
                                    seen_code = c;
                                    seen_body = b;
                                  }),
            Admission::kJoined);

  cache.fail("k", ErrorCode::kDeadlineExceeded, "compute cancelled");
  EXPECT_EQ(seen, WaitResult::kFailed);
  EXPECT_EQ(seen_code, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(seen_body, "compute cancelled");

  // The failed entry is gone: the next identical request computes afresh.
  EXPECT_EQ(cache.lookup_or_begin("k", deadline, &payload, &token, noop_wait()),
            Admission::kOwner);
  cache.publish("k", "second try");
  EXPECT_EQ(cache.ready_entries(), 1u);
}

TEST(ServeCache, ExpireWaitersFiresOnlyOverdueJoiners) {
  ServeCache cache("");
  const auto now = std::chrono::steady_clock::now();
  std::string payload;
  const CancelToken* token = nullptr;
  ASSERT_EQ(cache.lookup_or_begin("k", now + std::chrono::hours(1), &payload, &token,
                                  noop_wait()),
            Admission::kOwner);

  int expired_count = 0;
  int late_ready = 0;
  ASSERT_EQ(cache.lookup_or_begin("k", now - std::chrono::milliseconds(1), &payload,
                                  &token,
                                  [&](WaitResult r, ErrorCode, const std::string&) {
                                    if (r == WaitResult::kExpired) ++expired_count;
                                  }),
            Admission::kJoined);
  ASSERT_EQ(cache.lookup_or_begin("k", now + std::chrono::hours(1), &payload, &token,
                                  [&](WaitResult r, ErrorCode, const std::string&) {
                                    if (r == WaitResult::kReady) ++late_ready;
                                  }),
            Admission::kJoined);

  EXPECT_EQ(cache.expire_waiters(now), 1u);  // only the overdue joiner fires
  EXPECT_EQ(expired_count, 1);
  cache.publish("k", "done");
  EXPECT_EQ(late_ready, 1);  // the patient joiner still resolves kReady
  EXPECT_EQ(cache.expire_waiters(now + std::chrono::hours(2)), 0u);
}

TEST(ServeCache, EvictsLeastRecentlyUsedBeyondEntryCap) {
  CacheLimits limits;
  limits.max_entries = 2;
  ServeCache cache("", limits);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::string payload;
  const CancelToken* token = nullptr;

  const auto put = [&](const std::string& key, const std::string& value) {
    ASSERT_EQ(cache.lookup_or_begin(key, deadline, &payload, &token, noop_wait()),
              Admission::kOwner);
    cache.publish(key, value);
  };
  put("k1", "v1");
  put("k2", "v2");
  EXPECT_EQ(cache.evicted_entries(), 0u);

  // Touch k1 so k2 is the coldest, then overflow: k2 must go, k1 must stay.
  ASSERT_EQ(cache.lookup_or_begin("k1", deadline, &payload, &token, noop_wait()),
            Admission::kHit);
  put("k3", "v3");
  EXPECT_EQ(cache.ready_entries(), 2u);
  EXPECT_EQ(cache.evicted_entries(), 1u);
  EXPECT_EQ(cache.lookup_or_begin("k1", deadline, &payload, &token, noop_wait()),
            Admission::kHit);
  EXPECT_EQ(payload, "v1");
  EXPECT_EQ(cache.lookup_or_begin("k3", deadline, &payload, &token, noop_wait()),
            Admission::kHit);
  // The evicted key computes afresh — and bit-identically, by determinism.
  EXPECT_EQ(cache.lookup_or_begin("k2", deadline, &payload, &token, noop_wait()),
            Admission::kOwner);
  cache.publish("k2", "v2");
}

TEST(ServeCache, EvictsByPayloadBytesButNeverTheNewestEntry) {
  CacheLimits limits;
  limits.max_payload_bytes = 10;
  ServeCache cache("", limits);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::string payload;
  const CancelToken* token = nullptr;

  ASSERT_EQ(cache.lookup_or_begin("a", deadline, &payload, &token, noop_wait()),
            Admission::kOwner);
  cache.publish("a", "12345678");  // 8 bytes: fits
  ASSERT_EQ(cache.lookup_or_begin("b", deadline, &payload, &token, noop_wait()),
            Admission::kOwner);
  cache.publish("b", "1234");  // 12 bytes total: evicts a
  EXPECT_EQ(cache.ready_entries(), 1u);
  EXPECT_EQ(cache.ready_payload_bytes(), 4u);
  EXPECT_EQ(cache.lookup_or_begin("a", deadline, &payload, &token, noop_wait()),
            Admission::kOwner);
  cache.publish("a", std::string(64, 'x'));  // alone over the cap: still kept
  EXPECT_EQ(cache.ready_entries(), 1u);
  EXPECT_EQ(cache.ready_payload_bytes(), 64u);
}

TEST(ServeCache, JournalStaysBoundedUnderUniqueKeyTraffic) {
  // The unbounded-memory regression scenario: a client iterating unique keys
  // forever.  RSS is bounded by the LRU caps and the journal by the
  // compaction threshold — publish() compacts once appends cross it.
  const std::string path = temp_path("bounded_journal");
  std::remove(path.c_str());
  CacheLimits limits;
  limits.max_entries = 4;
  limits.journal_compact_bytes = 512;
  {
    ServeCache cache(path, limits);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    std::string payload;
    const CancelToken* token = nullptr;
    for (int i = 0; i < 200; ++i) {
      const std::string key = "key-" + std::to_string(i);
      ASSERT_EQ(cache.lookup_or_begin(key, deadline, &payload, &token, noop_wait()),
                Admission::kOwner);
      cache.publish(key, R"({"value":)" + std::to_string(i) + "}");
    }
    EXPECT_EQ(cache.ready_entries(), 4u);
    EXPECT_EQ(cache.evicted_entries(), 196u);
    std::ifstream in(path, std::ios::ate | std::ios::binary);
    ASSERT_TRUE(in.is_open());
    // Bounded: at most the threshold plus the few records appended since the
    // last compaction crossed it — nowhere near 200 records.
    EXPECT_LT(static_cast<std::size_t>(in.tellg()), limits.journal_compact_bytes + 256);
  }
  // A reload honours the caps too and serves only the retained entries.
  ServeCache reloaded(path, limits);
  EXPECT_LE(reloaded.loaded_entries(), 4u);
  EXPECT_GE(reloaded.loaded_entries(), 1u);
  std::string payload;
  const CancelToken* token = nullptr;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  EXPECT_EQ(reloaded.lookup_or_begin("key-199", deadline, &payload, &token, noop_wait()),
            Admission::kHit);
  EXPECT_EQ(payload, R"({"value":199})");
  std::remove(path.c_str());
}

TEST(ServeCache, JournalSurvivesTornTailAndReplaysBitIdentically) {
  const std::string path = temp_path("journal");
  const std::string payload_a = R"({"result":"alpha","value":1.5})";
  const std::string payload_b = R"({"result":"beta"})";
  {
    ServeCache cache(path);
    std::string payload;
    const CancelToken* token = nullptr;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    ASSERT_EQ(cache.lookup_or_begin("aaaa", deadline, &payload, &token, noop_wait()),
              Admission::kOwner);
    cache.publish("aaaa", payload_a);
    ASSERT_EQ(cache.lookup_or_begin("bbbb", deadline, &payload, &token, noop_wait()),
              Admission::kOwner);
    cache.publish("bbbb", payload_b);
  }
  // Simulate a kill -9 mid-append: a torn, unterminated record at the tail.
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"v\":1,\"key\":\"cccc\",\"result\":\"{\\\"trunc";
  }

  ServeCache reloaded(path);
  EXPECT_EQ(reloaded.loaded_entries(), 2u);
  EXPECT_EQ(reloaded.loaded_lines_skipped(), 1u);

  std::string payload;
  const CancelToken* token = nullptr;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  ASSERT_EQ(reloaded.lookup_or_begin("aaaa", deadline, &payload, &token, noop_wait()),
            Admission::kHit);
  EXPECT_EQ(payload, payload_a);  // byte-identical replay
  ASSERT_EQ(reloaded.lookup_or_begin("bbbb", deadline, &payload, &token, noop_wait()),
            Admission::kHit);
  EXPECT_EQ(payload, payload_b);

  // compact() rewrites atomically: reload again, torn line gone.
  reloaded.compact();
  ServeCache compacted(path);
  EXPECT_EQ(compacted.loaded_entries(), 2u);
  EXPECT_EQ(compacted.loaded_lines_skipped(), 0u);
  std::remove(path.c_str());
}

// --- server ------------------------------------------------------------------

ServerOptions small_server(std::size_t inflight = 2, std::size_t depth = 64) {
  ServerOptions options;
  options.max_inflight = inflight;
  options.queue_depth = depth;
  options.default_deadline_ms = 30'000;
  options.engine_threads = 2;
  return options;
}

TEST(ServeServer, AnswersComputeAndControlOps) {
  Server server(small_server());
  ResponseBin bin;
  server.submit_frame(R"({"op":"ping","id":"p"})", bin.callback());
  server.submit_frame(R"({"op":"layout","id":"l","n":5})", bin.callback());
  server.submit_frame(R"({"op":"stats","id":"s"})", bin.callback());
  const auto lines = bin.wait_for(3);

  for (const std::string& line : lines) {
    const Value doc = Value::parse(line);
    EXPECT_TRUE(doc.at("ok").as_bool()) << line;
  }
  const LedgerSnapshot ledger = server.drain(1000);
  EXPECT_EQ(ledger.accepted, 3u);
  EXPECT_EQ(ledger.completed, 3u);
  EXPECT_TRUE(ledger.conserved());
}

TEST(ServeServer, CacheHitsAreBitIdenticalToColdComputes) {
  Server server(small_server());
  ResponseBin bin;
  const std::string frame = R"({"op":"census","id":"x","n":7,"packets":150000,"seed":9})";
  server.submit_frame(frame, bin.callback());
  bin.wait_for(1);
  server.submit_frame(frame, bin.callback());
  const auto lines = bin.wait_for(2);

  EXPECT_FALSE(Value::parse(lines[0]).at("cached").as_bool());
  EXPECT_TRUE(Value::parse(lines[1]).at("cached").as_bool());
  // The response lines must match byte for byte once the one envelope field
  // that differs ("cached") is normalized away — the result text is served
  // verbatim, not re-rendered.
  std::string cold = lines[0];
  const std::size_t pos = cold.find("\"cached\":false");
  ASSERT_NE(pos, std::string::npos);
  cold.replace(pos, 14, "\"cached\":true");
  EXPECT_EQ(cold, lines[1]);

  const LedgerSnapshot ledger = server.drain(1000);
  EXPECT_EQ(ledger.cache_hits, 1u);
  EXPECT_EQ(ledger.cache_misses, 1u);
  EXPECT_TRUE(ledger.conserved());
}

TEST(ServeServer, SweepFramesDifferingOnlyInShardCountShareOneCacheEntry) {
  // shard_count sets only the speed of a sweep, so a sharded frame is
  // answered from the serial frame's cache entry, with the same result.
  Server server(small_server());
  ResponseBin bin;
  server.submit_frame(R"({"op":"sweep","id":"a","n":6,"offered_load":0.7,"cycles":300,"seed":4})",
                      bin.callback());
  bin.wait_for(1);
  server.submit_frame(
      R"({"op":"sweep","id":"b","n":6,"offered_load":0.7,"cycles":300,"seed":4,"shard_count":8})",
      bin.callback());
  const auto lines = bin.wait_for(2);
  const Value serial = Value::parse(lines[0]);
  const Value sharded = Value::parse(lines[1]);
  EXPECT_FALSE(serial.at("cached").as_bool());
  EXPECT_TRUE(sharded.at("cached").as_bool());
  EXPECT_EQ(serial.at("key").as_string(), sharded.at("key").as_string());
  EXPECT_EQ(serial.at("result").dump(), sharded.at("result").dump());

  const LedgerSnapshot ledger = server.drain(1000);
  EXPECT_EQ(ledger.cache_hits, 1u);
  EXPECT_EQ(ledger.cache_misses, 1u);
  EXPECT_TRUE(ledger.conserved());
}

TEST(ServeServer, IdenticalConcurrentRequestsCoalesceToOneCompute) {
  // One slow sweep, many identical requests racing it: exactly one compute
  // (cache_misses == 1), every response carries the same result text.
  obs::Registry registry;
  obs::ScopedRegistry scoped(&registry);
  Server server(small_server(4, 256));
  ResponseBin bin;
  const std::string frame =
      R"({"op":"sweep","id":"s","n":8,"offered_load":0.8,"cycles":60000,"seed":13})";
  constexpr std::size_t kClients = 48;
  for (std::size_t i = 0; i < kClients; ++i) server.submit_frame(frame, bin.callback());
  const auto lines = bin.wait_for(kClients);

  std::set<std::string> result_texts;
  for (const std::string& line : lines) {
    const Value doc = Value::parse(line);
    ASSERT_TRUE(doc.at("ok").as_bool()) << line;
    result_texts.insert(doc.at("result").dump());
  }
  EXPECT_EQ(result_texts.size(), 1u);  // one result, many deliveries

  const LedgerSnapshot ledger = server.drain(2000);
  EXPECT_EQ(ledger.accepted, kClients);
  EXPECT_EQ(ledger.completed, kClients);
  EXPECT_EQ(ledger.cache_misses, 1u);  // the single-flight guarantee
  EXPECT_EQ(ledger.cache_hits + ledger.coalesced, kClients - 1);
  EXPECT_TRUE(ledger.conserved());

  // The obs mirror carries the same story.
  const auto snapshot = registry.metrics_snapshot();
  for (const auto& [name, value] : snapshot.counters) {
    if (name == "serve.cache_misses") {
      EXPECT_EQ(value, 1u);
    }
    if (name == "serve.accepted") {
      EXPECT_EQ(value, kClients);
    }
  }
}

TEST(ServeServer, DeadlineExpiredRequestsGetStructuredErrors) {
  Server server(small_server(1, 64));
  ResponseBin bin;
  // A sweep far too long for its 100 ms budget starts executing immediately
  // (the only dispatcher is idle) and must trip mid-engine via its token.
  server.submit_frame(
      R"({"op":"sweep","id":"trip","n":10,"offered_load":0.9,"cycles":4000000,"seed":1,)"
      R"("deadline_ms":100})",
      bin.callback());
  // Queued behind it with a 40 ms budget: expires while queued — the reaper
  // answers it; no dispatcher ever sees it.
  server.submit_frame(R"({"op":"layout","id":"late","n":5,"deadline_ms":40})",
                      bin.callback());
  // Control ops are admission-exempt and still answer instantly.
  server.submit_frame(R"({"op":"ping","id":"alive"})", bin.callback());

  const auto lines = bin.wait_for(3);
  int deadline_errors = 0;
  for (const std::string& line : lines) {
    const Value doc = Value::parse(line);
    if (!doc.at("ok").as_bool() &&
        doc.at("error").at("code").as_string() == "deadline_exceeded") {
      ++deadline_errors;
    }
  }
  EXPECT_EQ(deadline_errors, 2) << "trip + late must both expire structurally";

  const LedgerSnapshot ledger = server.drain(10'000);
  EXPECT_EQ(ledger.cancelled, 2u);
  EXPECT_EQ(ledger.completed, 1u);  // the ping
  EXPECT_TRUE(ledger.conserved());
}

TEST(ServeServer, OwnerPastItsOwnDeadlineAnswersExpiredWhileJoinersGetTheResult) {
  // A patient joiner extends the shared compute's token past the owner's own
  // deadline, so the compute legitimately outlives the owner.  The joiner
  // gets the published result; the owner must still answer deadline_exceeded
  // — its own contract is not overridden by whoever rode along.
  Server server(small_server(2, 16));
  ResponseBin bin;
  // The compute must reliably outlive the owner's 100 ms budget (also under
  // sanitizers), and the joiner's budget must reliably cover the compute.
  const std::string params =
      R"("n":8,"offered_load":0.9,"cycles":100000,"seed":77)";
  server.submit_frame(
      R"({"op":"sweep","id":"own",)" + params + R"(,"deadline_ms":100})", bin.callback());
  server.submit_frame(
      R"({"op":"sweep","id":"join",)" + params + R"(,"deadline_ms":120000})",
      bin.callback());

  const auto lines = bin.wait_for(2);
  std::string owner_code;
  bool joiner_ok = false;
  for (const std::string& line : lines) {
    const Value doc = Value::parse(line);
    if (doc.at("id").as_string() == "own") {
      EXPECT_FALSE(doc.at("ok").as_bool()) << line;
      owner_code = doc.at("error").at("code").as_string();
    } else {
      joiner_ok = doc.at("ok").as_bool();
      EXPECT_TRUE(joiner_ok) << line;
    }
  }
  // Whether the owner expired queued, mid-compute (token tripped before the
  // joiner extended), or post-compute (the fixed path), the answer is the
  // same structured error.
  EXPECT_EQ(owner_code, "deadline_exceeded");

  const LedgerSnapshot ledger = server.drain(120'000);
  EXPECT_TRUE(ledger.conserved());
  EXPECT_EQ(ledger.cancelled, 1u);
  EXPECT_EQ(ledger.completed, 1u);
}

TEST(ServeServer, BoundedQueueShedsDeterministically) {
  // queue_depth 2, one dispatcher pinned by a long compute: the burst beyond
  // the queue must shed with overloaded + a retry_after_ms hint.
  Server server(small_server(1, 2));
  ResponseBin bin;
  server.submit_frame(
      R"({"op":"sweep","id":"pin","n":6,"offered_load":0.9,"cycles":2000000,"seed":1})",
      bin.callback());
  // Let the dispatcher pop the pin so the queue itself is empty.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  constexpr std::size_t kBurst = 8;
  for (std::size_t i = 0; i < kBurst; ++i) {
    server.submit_frame(R"({"op":"census","id":"b","n":6,"packets":1000,"seed":)" +
                            std::to_string(i) + "}",
                        bin.callback());
  }
  const auto lines = bin.wait_for(1 + kBurst);

  std::size_t shed = 0;
  for (const std::string& line : lines) {
    const Value doc = Value::parse(line);
    if (doc.at("ok").as_bool()) continue;
    if (doc.at("error").at("code").as_string() == "overloaded") {
      EXPECT_GE(doc.at("error").at("retry_after_ms").as_u64(), 1u);
      ++shed;
    }
  }
  EXPECT_GE(shed, kBurst - 2);  // at most queue_depth of the burst admitted

  const LedgerSnapshot ledger = server.drain(120'000);
  EXPECT_EQ(ledger.shed, shed);
  EXPECT_TRUE(ledger.conserved());
}

TEST(ServeServer, MalformedFramesCountAsFailedNotCrash) {
  Server server(small_server());
  ResponseBin bin;
  const std::vector<std::string> hostile = {
      "garbage",
      "{\"op\":\"layout\"",           // truncated JSON
      R"({"op":"layout","n":9999})",  // out of range
      R"({"op":"census","n":8})",     // missing packets
      std::string(2048, 'x'),         // long junk
  };
  for (const std::string& frame : hostile) server.submit_frame(frame, bin.callback());
  const auto lines = bin.wait_for(hostile.size());
  for (const std::string& line : lines) {
    const Value doc = Value::parse(line);
    EXPECT_FALSE(doc.at("ok").as_bool());
    EXPECT_EQ(doc.at("error").at("code").as_string(), "invalid_request");
  }
  const LedgerSnapshot ledger = server.drain(1000);
  EXPECT_EQ(ledger.failed, hostile.size());
  EXPECT_TRUE(ledger.conserved());
}

TEST(ServeServer, DrainShedsLateArrivalsAndConservesLedger) {
  Server server(small_server());
  ResponseBin bin;
  server.submit_frame(R"({"op":"ping","id":"a"})", bin.callback());
  bin.wait_for(1);
  const LedgerSnapshot ledger = server.drain(1000);
  EXPECT_TRUE(ledger.conserved());

  // Post-drain submissions still answer (shutting_down) and stay conserved.
  server.submit_frame(R"({"op":"layout","id":"late","n":5})", bin.callback());
  const auto lines = bin.wait_for(2);
  const Value doc = Value::parse(lines[1]);
  EXPECT_FALSE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("error").at("code").as_string(), "shutting_down");
  EXPECT_TRUE(server.ledger().conserved());
}

TEST(ServeServer, DrainBudgetCancelsInflightComputes) {
  Server server(small_server(1, 8));
  ResponseBin bin;
  // A sweep that would run for many seconds; drain with a tiny budget must
  // cancel it via its token rather than wait it out.
  server.submit_frame(
      R"({"op":"sweep","id":"long","n":10,"offered_load":0.9,"cycles":4000000,"seed":3,)"
      R"("deadline_ms":300000})",
      bin.callback());
  server.submit_frame(
      R"({"op":"sweep","id":"queued","n":10,"offered_load":0.9,"cycles":4000000,"seed":4,)"
      R"("deadline_ms":300000})",
      bin.callback());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const auto t0 = std::chrono::steady_clock::now();
  const LedgerSnapshot ledger = server.drain(50);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(30)) << "drain must not wait out the sweep";

  const auto lines = bin.wait_for(2);
  std::multiset<std::string> codes;
  for (const std::string& line : lines) {
    const Value doc = Value::parse(line);
    ASSERT_FALSE(doc.at("ok").as_bool());
    codes.insert(doc.at("error").at("code").as_string());
  }
  // The in-flight sweep cancels; the still-queued one sheds.
  EXPECT_EQ(codes.count("deadline_exceeded"), 1u);
  EXPECT_EQ(codes.count("shutting_down"), 1u);
  EXPECT_TRUE(ledger.conserved());
  EXPECT_EQ(ledger.cancelled, 1u);
  EXPECT_EQ(ledger.shed, 1u);
}

TEST(ServeServer, LedgerConservationUnderMixedConcurrentStorm) {
  // The headline exactness property, stressed: many submitter threads firing
  // mixed valid / hostile / duplicate / short-deadline traffic at a small
  // server.  After drain: accepted == completed + cancelled + shed + failed,
  // exactly.
  Server server(small_server(3, 16));
  ResponseBin bin;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 40;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string frame;
        switch ((t + i) % 5) {
          case 0:
            frame = R"({"op":"ping","id":"p"})";
            break;
          case 1:  // identical census across threads: coalesce / hit
            frame = R"({"op":"census","id":"c","n":6,"packets":100000,"seed":1})";
            break;
          case 2:  // hostile
            frame = "]]not json[[";
            break;
          case 3:  // short deadline on a long sweep
            frame =
                R"({"op":"sweep","id":"d","n":8,"offered_load":0.9,"cycles":2000000,)"
                R"("seed":)" +
                std::to_string(i) + R"(,"deadline_ms":20})";
            break;
          default:  // varied small layouts
            frame = R"({"op":"layout","id":"l","n":)" + std::to_string(4 + (i % 5)) + "}";
            break;
        }
        server.submit_frame(frame, bin.callback());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  bin.wait_for(static_cast<std::size_t>(kThreads * kPerThread));
  const LedgerSnapshot ledger = server.drain(120'000);
  EXPECT_EQ(ledger.accepted, static_cast<u64>(kThreads * kPerThread));
  EXPECT_EQ(ledger.accepted,
            ledger.completed + ledger.cancelled + ledger.shed + ledger.failed);
}

TEST(ServeServer, PersistedCacheServesRestartBitIdentically) {
  const std::string path = temp_path("server_journal");
  const std::string frame = R"({"op":"census","id":"r","n":7,"packets":120000,"seed":21})";
  std::string first_result;
  {
    ServerOptions options = small_server();
    options.cache_path = path;
    Server server(options);
    ResponseBin bin;
    server.submit_frame(frame, bin.callback());
    const auto lines = bin.wait_for(1);
    first_result = Value::parse(lines[0]).at("result").dump();
    server.drain(5000);
  }
  {
    // "Restart": a fresh Server over the same journal must hit, not compute.
    ServerOptions options = small_server();
    options.cache_path = path;
    Server server(options);
    ResponseBin bin;
    server.submit_frame(frame, bin.callback());
    const auto lines = bin.wait_for(1);
    const Value doc = Value::parse(lines[0]);
    EXPECT_TRUE(doc.at("cached").as_bool());
    EXPECT_EQ(doc.at("result").dump(), first_result);
    const LedgerSnapshot ledger = server.drain(1000);
    EXPECT_EQ(ledger.cache_hits, 1u);
    EXPECT_EQ(ledger.cache_misses, 0u);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bfly::serve
