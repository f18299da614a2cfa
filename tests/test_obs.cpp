// bfly::obs: JSON round-trips, registry semantics, trace-event nesting from
// a real layout run, and the schema-v1 run report contract.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>

#include "fault/fault_routing.hpp"
#include "fault/fault_set.hpp"
#include "layout/butterfly_layout.hpp"
#include "layout/collinear.hpp"
#include "layout/legality.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "routing/routing.hpp"

namespace bfly {
namespace {

// --- JSON model -------------------------------------------------------------

TEST(Json, RoundTripPreservesStructureAndOrder) {
  json::Value v = json::Value::object();
  v.set("zeta", json::Value::number(1));
  v.set("alpha", json::Value::string("a\"b\\c\n"));
  json::Value arr = json::Value::array();
  arr.push_back(json::Value::boolean(true));
  arr.push_back(json::Value());
  arr.push_back(json::Value::number(-2.5));
  v.set("list", std::move(arr));

  const std::string text = v.dump();
  // Insertion order survives serialization (diffable reports).
  EXPECT_LT(text.find("zeta"), text.find("alpha"));

  const json::Value back = json::Value::parse(text);
  EXPECT_EQ(back.at("zeta").as_u64(), 1u);
  EXPECT_EQ(back.at("alpha").as_string(), "a\"b\\c\n");
  EXPECT_TRUE(back.at("list").at(0).as_bool());
  EXPECT_TRUE(back.at("list").at(1).is_null());
  EXPECT_DOUBLE_EQ(back.at("list").at(2).as_double(), -2.5);
}

TEST(Json, IntegralDoublesPrintWithoutFraction) {
  json::Value v = json::Value::number(17714232.0);
  EXPECT_EQ(v.dump(), "17714232");
}

TEST(Json, ParseRejectsGarbage) {
  EXPECT_THROW(json::Value::parse("{\"a\": }"), InvalidArgument);
  EXPECT_THROW(json::Value::parse("[1, 2,]"), InvalidArgument);
  EXPECT_THROW(json::Value::parse("{} trailing"), InvalidArgument);
  EXPECT_THROW(json::Value::parse(""), InvalidArgument);
}

TEST(Json, ParseUnicodeEscape) {
  const json::Value v = json::Value::parse("\"a\\u0041\\u00e9\"");
  EXPECT_EQ(v.as_string(), "aA\xc3\xa9");
}

// --- registry semantics -----------------------------------------------------

TEST(Registry, HandlesAreStableAndAccumulate) {
  obs::Registry reg;
  obs::Counter* c = reg.counter("x");
  EXPECT_EQ(c, reg.counter("x"));
  c->add(3);
  reg.counter("x")->add(2);
  EXPECT_EQ(c->value(), 5u);
  reg.gauge("g")->set(1.5);
  EXPECT_DOUBLE_EQ(reg.gauge("g")->value(), 1.5);
}

TEST(Registry, HistogramBucketsSumToCount) {
  obs::Registry reg;
  obs::Histogram* h = reg.histogram("lat", obs::Histogram::exponential_bounds(1, 2, 4));
  // bounds 1,2,4,8 (+overflow): probe every bucket including both edges.
  for (const double v : {0.5, 1.0, 2.0, 3.0, 8.0, 9.0, 100.0}) h->observe(v);
  const std::vector<u64> counts = h->bucket_counts();
  ASSERT_EQ(counts.size(), 5u);
  EXPECT_EQ(counts[0], 2u);  // 0.5, 1.0
  EXPECT_EQ(counts[1], 1u);  // 2.0
  EXPECT_EQ(counts[2], 1u);  // 3.0 <= 4
  EXPECT_EQ(counts[3], 1u);  // 8.0
  EXPECT_EQ(counts[4], 2u);  // overflow
  u64 total = 0;
  for (const u64 n : counts) total += n;
  EXPECT_EQ(total, h->count());
  EXPECT_DOUBLE_EQ(h->sum(), 0.5 + 1 + 2 + 3 + 8 + 9 + 100);
}

TEST(Registry, LocalHistogramMergesExactly) {
  obs::Registry reg;
  obs::Histogram* h = reg.histogram("lh", obs::Histogram::linear_bounds(1, 1, 3));
  obs::LocalHistogram local(h);
  for (int i = 0; i < 10; ++i) local.observe(static_cast<double>(i));
  EXPECT_EQ(h->count(), 0u);  // nothing visible before flush
  local.flush();
  EXPECT_EQ(h->count(), 10u);
  EXPECT_DOUBLE_EQ(h->sum(), 45.0);
  local.flush();  // flush is idempotent once drained
  EXPECT_EQ(h->count(), 10u);
}

TEST(Registry, HelpersAreNullSafeWithoutRegistry) {
  ASSERT_EQ(obs::registry(), nullptr);
  EXPECT_EQ(obs::get_counter("nope"), nullptr);
  obs::add(obs::get_counter("nope"), 7);
  obs::set(obs::get_gauge("nope"), 1.0);
  obs::observe(obs::get_histogram("nope", obs::Histogram::linear_bounds(1, 1, 2)), 1.0);
  obs::LocalHistogram local(nullptr);
  local.observe(3.0);
  local.flush();
  { BFLY_TRACE_SCOPE("no-registry"); }
}

TEST(Registry, ScopedRegistryInstallsAndRestores) {
  ASSERT_EQ(obs::registry(), nullptr);
  obs::Registry reg;
  {
    const obs::ScopedRegistry scoped(&reg);
    EXPECT_EQ(obs::registry(), &reg);
    obs::add(obs::get_counter("seen"));
  }
  EXPECT_EQ(obs::registry(), nullptr);
  EXPECT_EQ(reg.counter("seen")->value(), 1u);
}

// --- trace events from a real layout run ------------------------------------

/// Runs the full n=12 pipeline (plan, materialize, legality, collinear) with
/// `reg` installed, so the trace stream holds real nested phases.
void run_instrumented_layout(obs::Registry& reg) {
  const obs::ScopedRegistry scoped(&reg);
  BFLY_TRACE_SCOPE("test.run");
  const ButterflyLayoutPlan plan(ButterflyLayoutPlan::choose_parameters(12));
  const Layout layout = plan.materialize();
  const LegalityReport legal = check_multilayer(layout);
  EXPECT_TRUE(legal.ok) << legal.summary();
  collinear_complete_graph(12);
}

TEST(Trace, SpansAreStrictlyNestedPerThread) {
  obs::Registry reg;
  run_instrumented_layout(reg);

  const std::vector<obs::TraceEvent> events = reg.trace_events();
  ASSERT_FALSE(events.empty());
  // Strict nesting: per thread, every E matches the innermost open B (same
  // name) and timestamps never run backwards.
  std::map<u64, std::vector<const obs::TraceEvent*>> open;
  std::map<u64, double> last_ts;
  for (const obs::TraceEvent& ev : events) {
    auto it = last_ts.find(ev.tid);
    if (it != last_ts.end()) {
      EXPECT_GE(ev.ts_us, it->second);
    }
    last_ts[ev.tid] = ev.ts_us;
    if (ev.phase == 'B') {
      open[ev.tid].push_back(&ev);
    } else {
      ASSERT_EQ(ev.phase, 'E');
      ASSERT_FALSE(open[ev.tid].empty()) << "E without open B for " << ev.name;
      EXPECT_STREQ(open[ev.tid].back()->name, ev.name);
      open[ev.tid].pop_back();
    }
  }
  for (const auto& [tid, stack] : open) {
    EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
  }

  const std::vector<obs::CompletedSpan> spans = reg.completed_spans();
  ASSERT_FALSE(spans.empty());
  std::set<std::string> names;
  for (const obs::CompletedSpan& s : spans) {
    EXPECT_GE(s.dur_us, 0.0);
    names.insert(s.name);
  }
  // The layout pipeline's phases all showed up.
  for (const char* expected :
       {"layout.plan", "layout.materialize", "layout.place_nodes", "layout.route_wires",
        "legality.multilayer", "legality.extract_segments", "collinear.layout",
        "collinear.assign_tracks"}) {
    EXPECT_TRUE(names.contains(expected)) << expected;
  }
}

TEST(Trace, ChromeTraceJsonIsStructurallyValid) {
  obs::Registry reg;
  run_instrumented_layout(reg);

  const json::Value doc = json::Value::parse(obs::chrome_trace_json(reg));
  ASSERT_TRUE(doc.contains("traceEvents"));
  const json::Value& evs = doc.at("traceEvents");
  ASSERT_GT(evs.size(), 0u);
  // Validate the Chrome trace-event contract: B/E events, monotone ts, and
  // strict LIFO pairing per (pid, tid).
  std::map<u64, std::vector<std::string>> open;
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const json::Value& e = evs.at(i);
    for (const char* key : {"name", "cat", "ph", "ts", "pid", "tid"}) {
      ASSERT_TRUE(e.contains(key)) << key;
    }
    const std::string ph = e.at("ph").as_string();
    const u64 tid = e.at("tid").as_u64();
    ASSERT_TRUE(ph == "B" || ph == "E") << ph;
    if (ph == "B") {
      open[tid].push_back(e.at("name").as_string());
    } else {
      ASSERT_FALSE(open[tid].empty());
      EXPECT_EQ(open[tid].back(), e.at("name").as_string());
      open[tid].pop_back();
    }
  }
  for (const auto& [tid, stack] : open) EXPECT_TRUE(stack.empty()) << tid;
}

// --- run reports ------------------------------------------------------------

TEST(Report, SchemaAndHistogramTotalsRoundTrip) {
  obs::Registry reg;
  SaturationPoint sat;
  {
    const obs::ScopedRegistry scoped(&reg);
    sat = simulate_saturation(8, 0.6, 600, 42, 100);
  }
  ASSERT_GT(sat.delivered, 0u);

  obs::ReportOptions options;
  options.name = "test_obs";
  options.config.set("n", json::Value::number(8));
  options.artifact_stats.set("delivered", json::Value::number(static_cast<double>(sat.delivered)));

  std::ostringstream line;
  obs::write_report_line(line, reg, options);
  EXPECT_EQ(line.str().back(), '\n');
  EXPECT_EQ(line.str().find('\n'), line.str().size() - 1);  // single line
  const json::Value doc = json::Value::parse(line.str());

  // Exactly the schema-v1 top-level keys, in order.
  const auto& members = doc.members();
  ASSERT_EQ(members.size(), 11u);
  const char* expected_keys[] = {"schema_version", "name",
                                 "run_id",         "git_describe",
                                 "status",         "points_completed",
                                 "points_total",   "config",
                                 "metrics",        "spans",
                                 "artifact_stats"};
  for (std::size_t i = 0; i < 11; ++i) EXPECT_EQ(members[i].first, expected_keys[i]);
  EXPECT_EQ(doc.at("schema_version").as_u64(), 1u);
  EXPECT_EQ(doc.at("name").as_string(), "test_obs");
  EXPECT_EQ(doc.at("run_id").as_string().size(), 16u);
  EXPECT_EQ(doc.at("status").as_string(), "complete");  // the default
  EXPECT_EQ(doc.at("points_completed").as_u64(), 0u);
  EXPECT_EQ(doc.at("points_total").as_u64(), 0u);
  EXPECT_EQ(doc.at("config").at("n").as_u64(), 8u);

  // The histogram invariant: bucket counts reconstruct the delivered total
  // without trusting any separate field.
  const json::Value& hist = doc.at("metrics").at("histograms").at("routing.latency_cycles");
  ASSERT_EQ(hist.at("counts").size(), hist.at("bounds").size() + 1);
  u64 total = 0;
  for (std::size_t i = 0; i < hist.at("counts").size(); ++i) {
    total += hist.at("counts").at(i).as_u64();
  }
  EXPECT_EQ(total, hist.at("count").as_u64());
  EXPECT_EQ(total, sat.delivered);
  EXPECT_EQ(doc.at("metrics").at("counters").at("routing.delivered").as_u64(), sat.delivered);

  // Spans are aggregated per name with stable row keys.
  const json::Value& spans = doc.at("spans");
  ASSERT_GT(spans.size(), 0u);
  bool saw_sim = false;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const json::Value& row = spans.at(i);
    for (const char* key : {"name", "count", "total_us"}) {
      ASSERT_TRUE(row.contains(key)) << key;
    }
    EXPECT_EQ(row.size(), 3u) << row.dump();  // no per-instance maximum
    if (row.at("name").as_string() == "routing.simulate_saturation") {
      EXPECT_EQ(row.at("count").as_u64(), 1u);
      saw_sim = true;
    }
  }
  EXPECT_TRUE(saw_sim);

  // The pretty form parses to the same document.
  std::ostringstream pretty;
  obs::write_report_pretty(pretty, reg, options);
  const json::Value doc2 = json::Value::parse(pretty.str());
  EXPECT_EQ(doc2.at("metrics").dump(), doc.at("metrics").dump());
}

TEST(Report, CensusChunkSpansCountChunksForEveryThreadCount) {
  // One span per fixed 2^16-packet chunk, so the count is a pure function of
  // the packet count: exact in the baseline gate on any core count.
  for (const u64 packets : {u64{1}, u64{65'536}, u64{65'537}, u64{300'000}}) {
    const u64 chunks = (packets + 65'535) / 65'536;
    for (const std::size_t threads : {1u, 2u, 3u, 4u, 8u}) {
      obs::Registry reg;
      {
        const obs::ScopedRegistry scoped(&reg);
        measure_link_loads(6, packets, 7, threads);
        measure_link_loads_faulty(6, packets, 7, FaultSet::random_links(6, 0.05, 3), {},
                                  threads);
      }
      std::map<std::string, u64> count;
      for (const obs::CompletedSpan& span : reg.completed_spans()) ++count[span.name];
      EXPECT_EQ(count["routing.census.chunk"], chunks) << packets << " " << threads;
      EXPECT_EQ(count["fault.census.chunk"], chunks) << packets << " " << threads;
    }
  }
}

TEST(Report, RunIdsAreUnique) {
  const std::string a = obs::make_run_id();
  const std::string b = obs::make_run_id();
  EXPECT_EQ(a.size(), 16u);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace bfly
