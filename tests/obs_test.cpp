// Unit tests for the observability layer: the metrics registry, the
// dual-clock tracer and its JSON exporters, the logging sink upgrade, and
// the built-in instrumentation of ThreadPool and MemoryTracker.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "obs/bench_diff.hpp"
#include "obs/json_parse.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "test_json.hpp"
#include "util/logging.hpp"
#include "util/memory_tracker.hpp"
#include "util/thread_pool.hpp"

namespace lasagna::obs {
namespace {

using lasagna::testing::JsonValidator;
using lasagna::testing::json_is_valid;

TEST(Metrics, CounterAndGaugeSemantics) {
  MetricsRegistry registry;
  Counter& c = registry.counter("test.events");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  // Same name resolves to the same metric.
  EXPECT_EQ(&registry.counter("test.events"), &c);
  EXPECT_EQ(registry.value("test.events"), 42);
  EXPECT_EQ(registry.value("test.absent"), 0);

  Gauge& g = registry.gauge("test.depth");
  g.set(7);
  g.add(-2);
  EXPECT_EQ(g.value(), 5);
  g.set_max(3);  // below current: no change
  EXPECT_EQ(g.value(), 5);
  g.set_max(9);
  EXPECT_EQ(g.value(), 9);
  EXPECT_EQ(registry.value("test.depth"), 9);
}

TEST(Metrics, SnapshotDeltaDropsZerosAndCountsNewFromZero) {
  MetricsRegistry registry;
  registry.counter("a").add(5);
  registry.counter("b").add(1);
  const auto before = registry.counters_snapshot();
  registry.counter("a").add(10);
  registry.counter("c").add(3);  // appears only in `after`
  const auto after = registry.counters_snapshot();

  const auto delta = snapshot_delta(before, after);
  ASSERT_EQ(delta.size(), 2u);
  EXPECT_EQ(delta[0].first, "a");
  EXPECT_EQ(delta[0].second, 10);
  EXPECT_EQ(delta[1].first, "c");
  EXPECT_EQ(delta[1].second, 3);
}

TEST(Metrics, JsonIsValidAndSorted) {
  MetricsRegistry registry;
  registry.counter("z.last").add(1);
  registry.counter("a.first").add(2);
  registry.gauge("m.middle").set(-7);
  const std::string json = registry.json();

  JsonValidator v(json);
  EXPECT_TRUE(v.valid()) << v.error() << "\n" << json;
  EXPECT_LT(json.find("a.first"), json.find("z.last"));
  EXPECT_NE(json.find("\"m.middle\": -7"), std::string::npos) << json;
}

TEST(Trace, SpansInstantsAndCountersExport) {
  Tracer tracer;
  const TrackId disk = tracer.track("disk.read");
  const TrackId dev = tracer.track("device.s1");
  EXPECT_EQ(tracer.track("disk.read"), disk);  // stable ids
  EXPECT_NE(disk, dev);

  tracer.add_span(disk, "chunk \"quoted\"\n", 100, 50, 2000, 1000,
                  {{"bytes", 4096}});
  tracer.add_span(dev, "kernel", -1, 0, 0, 500);  // modeled-only
  tracer.add_instant(disk, "seek");
  tracer.add_counter(dev, "queue", 3);
  ASSERT_EQ(tracer.events().size(), 4u);

  const std::string json = tracer.chrome_trace_json();
  JsonValidator v(json);
  EXPECT_TRUE(v.valid()) << v.error() << "\n" << json;
  // Both clock domains present, with their process names.
  EXPECT_NE(json.find("\"wall clock\""), std::string::npos);
  EXPECT_NE(json.find("\"modeled clock\""), std::string::npos);
  // The escaped name survived.
  EXPECT_NE(json.find("chunk \\\"quoted\\\"\\n"), std::string::npos);
  // ps -> us fixed-point: the modeled-only kernel span starts at 0us for
  // 0.000500us.
  EXPECT_NE(json.find("\"dur\":0.000500"), std::string::npos) << json;

  const std::string modeled = tracer.modeled_events_json();
  JsonValidator mv(modeled);
  EXPECT_TRUE(mv.valid()) << mv.error() << "\n" << modeled;
  // The wall-only instant and counter never enter the modeled export.
  EXPECT_EQ(modeled.find("seek"), std::string::npos);
  EXPECT_EQ(modeled.find("queue"), std::string::npos);
  EXPECT_NE(modeled.find("kernel"), std::string::npos);
}

TEST(Trace, ModeledExportIsOrderedByTrackThenTime) {
  // Insertion order scrambled across tracks and times; the modeled export
  // must come out sorted (track name, then start) regardless.
  Tracer tracer;
  const TrackId b = tracer.track("b");
  const TrackId a = tracer.track("a");
  tracer.add_span(b, "late", -1, 0, 100, 10);
  tracer.add_span(a, "second", -1, 0, 50, 10);
  tracer.add_span(b, "early", -1, 0, 0, 10);
  tracer.add_span(a, "first", -1, 0, 0, 10);

  const std::string modeled = tracer.modeled_events_json();
  EXPECT_LT(modeled.find("first"), modeled.find("second"));
  EXPECT_LT(modeled.find("second"), modeled.find("early"));
  EXPECT_LT(modeled.find("early"), modeled.find("late"));
}

TEST(Trace, InstallAndScopedRestore) {
  ASSERT_EQ(Tracer::active(), nullptr);
  Tracer outer;
  {
    Tracer::ScopedInstall install_outer(&outer);
    EXPECT_EQ(Tracer::active(), &outer);
    Tracer inner;
    {
      Tracer::ScopedInstall install_inner(&inner);
      EXPECT_EQ(Tracer::active(), &inner);
    }
    EXPECT_EQ(Tracer::active(), &outer);
  }
  EXPECT_EQ(Tracer::active(), nullptr);
  EXPECT_FALSE(LASAGNA_TRACE_ACTIVE());
}

TEST(Trace, WallSpanRaii) {
  Tracer tracer;
  {
    WallSpan inert;  // default-constructed: must not emit
  }
  EXPECT_TRUE(tracer.events().empty());

  {
    WallSpan span(tracer, tracer.track("t"), "work", {{"n", 1}});
    span.add_arg("extra", 2);
    WallSpan moved = std::move(span);
    moved.finish();
    moved.finish();  // idempotent
  }
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "work");
  EXPECT_EQ(events[0].type, 'X');
  EXPECT_GE(events[0].wall_start_ns, 0);
  EXPECT_GE(events[0].wall_dur_ns, 0);
  EXPECT_EQ(events[0].mod_start_ps, -1);  // wall-only
  ASSERT_EQ(events[0].args.size(), 2u);
  EXPECT_STREQ(events[0].args[1].key, "extra");
}

TEST(Trace, DiskClockFollowsConfiguredBandwidth) {
  Tracer tracer;
  tracer.set_disk_bandwidth(1e6);  // 1 MB/s -> 1 byte = 1us = 1e6 ps
  EXPECT_EQ(tracer.disk_ps(1), 1000000);
  EXPECT_EQ(tracer.disk_ps(500), 500000000);
  EXPECT_THROW(tracer.set_disk_bandwidth(0.0), std::invalid_argument);
}

TEST(Logging, ScopedSinkCapturesLevelMessageAndThreadId) {
  util::ScopedLogSink sink;
  util::set_log_level(util::LogLevel::kInfo);
  LOG_WARN << "watch " << 42;
  LOG_INFO << "hello";
  util::set_log_level(util::LogLevel::kWarn);  // restore the default
  const auto records = sink.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].level, util::LogLevel::kWarn);
  EXPECT_EQ(records[0].message, "watch 42");
  EXPECT_EQ(records[0].thread_id, util::current_thread_id());
  EXPECT_GT(records[0].thread_id, 0u);
  EXPECT_EQ(records[1].level, util::LogLevel::kInfo);
}

TEST(Logging, WarnAndAboveMirroredIntoTrace) {
  util::ScopedLogSink sink;  // keep stderr quiet
  Tracer tracer;
  Tracer::ScopedInstall install(&tracer);
  LOG_INFO << "quiet";
  LOG_WARN << "loud";
  LOG_ERROR << "louder";

  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, 'i');
  EXPECT_EQ(events[0].name, "WARN: loud");
  EXPECT_EQ(events[1].name, "ERROR: louder");
  EXPECT_EQ(tracer.track_name(events[0].track), "log");
  EXPECT_EQ(events[0].mod_start_ps, -1);  // wall-only: nondeterministic
}

TEST(Instrumentation, ThreadPoolPublishesTaskMetrics) {
  auto& registry = MetricsRegistry::global();
  const std::int64_t submitted_before = registry.value("pool.tasks_submitted");
  const std::int64_t completed_before = registry.value("pool.tasks_completed");

  util::ThreadPool pool(2);
  for (int i = 0; i < 8; ++i) {
    pool.submit([] {});
  }
  pool.wait_idle();

  EXPECT_EQ(registry.value("pool.tasks_submitted"), submitted_before + 8);
  EXPECT_EQ(registry.value("pool.tasks_completed"), completed_before + 8);
  EXPECT_GE(registry.value("pool.queue_depth_peak"), 0);
}

TEST(Instrumentation, ParallelForRefreshesPoolUtilization) {
  auto& registry = MetricsRegistry::global();
  Gauge& utilization = registry.gauge("pool.utilization_pct");
  const std::int64_t busy_before = registry.value("pool.busy_ns");
  util::ThreadPool pool(2);
  // Busy time counts helper tasks only, and the caller may take ranges
  // first: each range waits until a helper has started one, so a helper is
  // busy for at least one 5 ms range however the threads are scheduled.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> helped{false};
  pool.parallel_for(8, [&](std::size_t) {
    if (std::this_thread::get_id() != caller) helped = true;
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
    while (std::chrono::steady_clock::now() < until || !helped) {
    }
  });
  // A helper adds its busy time when its task returns, which may be after
  // the call's own refresh: wait for it, then check a later call's refresh.
  while (registry.value("pool.busy_ns") < busy_before + 5'000'000) {
    std::this_thread::yield();
  }
  utilization.set(0);
  pool.parallel_for(1, [](std::size_t) {});
  EXPECT_GT(utilization.value(), 0);
}

TEST(Instrumentation, MemoryTrackerPublishesGauges) {
  util::MemoryTracker tracker("obs-test-tracker", 1 << 20);
  tracker.publish_metrics("obs_test.mem");
  auto& registry = MetricsRegistry::global();

  tracker.allocate(1000);
  EXPECT_EQ(registry.value("obs_test.mem.current_bytes"), 1000);
  tracker.allocate(500);
  tracker.release(200);
  EXPECT_EQ(registry.value("obs_test.mem.current_bytes"), 1300);
  EXPECT_EQ(registry.value("obs_test.mem.peak_bytes"), 1500);
  EXPECT_EQ(registry.value("obs_test.mem.current_bytes"),
            static_cast<std::int64_t>(tracker.current()));
  EXPECT_EQ(registry.value("obs_test.mem.peak_bytes"),
            static_cast<std::int64_t>(tracker.peak()));
}

// -- histograms ---------------------------------------------------------------

TEST(Histogram, PercentilesTrackSortedReference) {
  // Log-uniform values across 5 decades — the AM-latency shape.
  std::mt19937_64 rng(1234);
  std::vector<std::int64_t> values;
  Histogram h;
  for (int i = 0; i < 10000; ++i) {
    const double exponent = std::uniform_real_distribution<>(0.0, 5.0)(rng);
    const auto v = static_cast<std::int64_t>(std::pow(10.0, exponent));
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  EXPECT_EQ(h.count(), 10000);

  for (const double p : {50.0, 90.0, 99.0}) {
    const std::int64_t reference =
        values[static_cast<std::size_t>(p / 100.0 * values.size()) - 1];
    const std::int64_t estimate = h.percentile(p);
    // The histogram quantizes to power-of-two buckets: the estimate must
    // land in the same bucket as the exact order statistic (within one
    // bucket of rounding at the boundary).
    EXPECT_LE(std::abs(Histogram::bucket_of(estimate) -
                       Histogram::bucket_of(reference)),
              1)
        << "p" << p << ": reference " << reference << " estimate " << estimate;
  }
  EXPECT_LE(h.percentile(50.0), h.percentile(90.0));
  EXPECT_LE(h.percentile(90.0), h.percentile(99.0));
}

TEST(Histogram, ExactOnSmallSets) {
  Histogram h;
  for (const std::int64_t v : {1, 1, 2, 3}) h.record(v);
  // rank(50%) = 2 -> second value = 1; bucket {1} is exact.
  EXPECT_EQ(h.percentile(50.0), 1);
  // The max (3) lives in bucket [2, 3]; midpoint-rank interpolation lands
  // inside the right bucket, not on the exact order statistic.
  EXPECT_EQ(Histogram::bucket_of(h.percentile(100.0)),
            Histogram::bucket_of(3));
  EXPECT_EQ(h.sum(), 7);
  EXPECT_EQ(h.percentile(0.0), 1);  // rank clamps to the first value

  Histogram empty;
  EXPECT_EQ(empty.percentile(50.0), 0);
}

TEST(Histogram, MergeMatchesCombinedRecording) {
  Histogram a;
  Histogram b;
  Histogram combined;
  std::mt19937_64 rng(77);
  for (int i = 0; i < 500; ++i) {
    const auto v = static_cast<std::int64_t>(rng() % 100000);
    (i % 2 == 0 ? a : b).record(v);
    combined.record(v);
  }
  a.merge_from(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.sum(), combined.sum());
  for (const double p : {50.0, 90.0, 99.0}) {
    EXPECT_EQ(a.percentile(p), combined.percentile(p));
  }
}

TEST(Histogram, RegistryExportAndReset) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("test.latency");
  EXPECT_EQ(&registry.histogram("test.latency"), &h);  // find-or-create
  for (std::int64_t v = 1; v <= 100; ++v) h.record(v);
  registry.counter("test.events").add(5);

  const std::string json = registry.json();
  JsonValidator v(json);
  EXPECT_TRUE(v.valid()) << v.error() << "\n" << json;
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.latency\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 100"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p50\""), std::string::npos);

  // reset_values zeroes everything but keeps the metric objects alive, so
  // cached references stay valid across bench sweep cells.
  registry.reset_values();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(registry.value("test.events"), 0);
  h.record(9);
  EXPECT_EQ(registry.histogram("test.latency").count(), 1);
}

// -- bench_diff ---------------------------------------------------------------

TEST(BenchDiff, DetectsTenPercentRegression) {
  const JsonValue baseline = JsonValue::parse(
      R"({"rows": [{"name": "map", "modeled_seconds": 10.0},
                   {"name": "sort", "modeled_seconds": 5.0}]})");
  const JsonValue regressed = JsonValue::parse(
      R"({"rows": [{"name": "map", "modeled_seconds": 11.2},
                   {"name": "sort", "modeled_seconds": 5.0}]})");

  DiffOptions options;  // max_rise = 0.10
  const DiffReport report = diff_documents(baseline, regressed, options);
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_TRUE(report.findings[0].regression);
  EXPECT_EQ(report.findings[0].path, "rows[map].modeled_seconds");
  EXPECT_NEAR(report.findings[0].rise(), 0.12, 1e-9);

  // Within threshold: reported as moved, not a regression.
  const JsonValue within = JsonValue::parse(
      R"({"rows": [{"name": "map", "modeled_seconds": 10.5},
                   {"name": "sort", "modeled_seconds": 5.0}]})");
  EXPECT_TRUE(diff_documents(baseline, within, options).ok());
}

TEST(BenchDiff, KeyedArraysMatchAcrossReordering) {
  const JsonValue baseline = JsonValue::parse(
      R"({"cells": [{"dataset": "A", "total_seconds": 1.0},
                    {"dataset": "B", "total_seconds": 2.0}]})");
  const JsonValue reordered = JsonValue::parse(
      R"({"cells": [{"dataset": "B", "total_seconds": 2.0},
                    {"dataset": "A", "total_seconds": 1.0}]})");
  const DiffReport report =
      diff_documents(baseline, reordered, DiffOptions{});
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.compared, 2u);
}

TEST(BenchDiff, GuardBooleansAndSchemaGrowth) {
  const JsonValue baseline = JsonValue::parse(
      R"({"contigs_identical": true, "old_key": 1, "total_seconds": 3.0})");
  const JsonValue current = JsonValue::parse(
      R"({"contigs_identical": false, "new_key": 2, "total_seconds": 3.0})");
  const DiffReport report = diff_documents(baseline, current, DiffOptions{});
  EXPECT_FALSE(report.ok());  // guard flipped true -> false
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].path, "contigs_identical");
  // Added/removed keys are notes, never regressions.
  EXPECT_EQ(report.notes.size(), 2u);

  // false -> true is an improvement, not a finding that gates.
  const DiffReport improved =
      diff_documents(current, baseline, DiffOptions{});
  EXPECT_TRUE(improved.ok());
}

TEST(BenchDiff, AbsoluteFloorGuardsNearZeroBaselines) {
  const JsonValue baseline =
      JsonValue::parse(R"({"tiny_seconds": 1e-12})");
  const JsonValue current = JsonValue::parse(R"({"tiny_seconds": 2e-12})");
  // +100% relative, but the absolute rise is far below the floor.
  EXPECT_TRUE(diff_documents(baseline, current, DiffOptions{}).ok());
}

TEST(BenchDiff, IgnorePatternsSkipMachineDependentKeys) {
  const JsonValue baseline = JsonValue::parse(
      R"({"rows": [{"name": "fp", "wall_seconds": 1.0,
                    "modeled_seconds": 4.0}]})");
  const JsonValue current = JsonValue::parse(
      R"({"rows": [{"name": "fp", "wall_seconds": 3.0,
                    "modeled_seconds": 4.0}]})");

  // The 3x wall regression gates by default...
  EXPECT_FALSE(diff_documents(baseline, current, DiffOptions{}).ok());
  // ...and is skipped entirely (not compared, not reported) when ignored,
  // while the modeled key next to it stays gated.
  DiffOptions ignore_wall;
  ignore_wall.ignore.push_back("wall");
  const DiffReport report = diff_documents(baseline, current, ignore_wall);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.compared, 1u);

  const JsonValue modeled_regressed = JsonValue::parse(
      R"({"rows": [{"name": "fp", "wall_seconds": 3.0,
                    "modeled_seconds": 6.0}]})");
  EXPECT_FALSE(
      diff_documents(baseline, modeled_regressed, ignore_wall).ok());
}


// -- json_parse ---------------------------------------------------------------

TEST(JsonParse, SeededMutationsParseOrReject) {
  // A BENCH_kernels.json-shaped document with every value kind, escapes
  // included. Each mutant either parses or throws std::runtime_error: no
  // other exception, and no crash.
  const std::string doc = R"({
  "quick": true,
  "cpu": {"avx2": true, "bmi2": false},
  "rows": [
    {"backend": "simulated", "kernel": "fingerprint", "elements": 819200,
     "bytes": 13516800, "wall_seconds": 0.00143388,
     "modeled_seconds": 0.000251159, "gigabytes_per_second": 9.4266e0},
    {"backend": "scalar", "kernel": "match_bounds", "elements": 262144,
     "modeled_seconds": 0, "note": "tab\t \"q\" \/ \u00e9 \u20ac"},
    {"backend": "avx2", "kernel": "sort_pairs", "elements": -1,
     "rows": [], "meta": {}, "ok": null}
  ]
})";
  const JsonValue parsed = JsonValue::parse(doc);
  ASSERT_EQ(parsed.find("rows")->array.size(), 3u);

  auto parse_or_reject = [](const std::string& text) {
    try {
      (void)JsonValue::parse(text);
    } catch (const std::runtime_error&) {
    }
  };
  std::mt19937_64 rng(0x15011);
  auto pick = [&rng](std::size_t bound) {
    return static_cast<std::size_t>(rng() % bound);
  };
  for (int trial = 0; trial < 512; ++trial) {
    std::string m = doc;
    m[pick(m.size())] ^= static_cast<char>(1u << pick(8));
    EXPECT_NO_THROW(parse_or_reject(m)) << "bit flip " << trial;
    m = doc;
    m[pick(m.size())] = static_cast<char>(rng());
    EXPECT_NO_THROW(parse_or_reject(m)) << "overwrite " << trial;
    EXPECT_NO_THROW(parse_or_reject(doc.substr(0, pick(doc.size()))))
        << "truncate " << trial;
    m = doc;
    for (std::size_t k = 1 + pick(64); k > 0; --k) {
      m.push_back(static_cast<char>(rng()));
    }
    EXPECT_NO_THROW(parse_or_reject(m)) << "tail " << trial;
  }

  // Nesting past the bound (256 levels) throws at the byte that opens one
  // level too many, however deep the input goes.
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  for (const std::string& deep : {std::string(100000, '['), objects}) {
    EXPECT_THROW((void)JsonValue::parse(deep), std::runtime_error);
  }
  const std::size_t max = 256;
  EXPECT_NO_THROW(
      (void)JsonValue::parse(std::string(max, '[') + std::string(max, ']')));
  try {
    (void)JsonValue::parse(std::string(max + 1, '[') +
                           std::string(max + 1, ']'));
    ADD_FAILURE() << "nesting one past the bound parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("at byte " + std::to_string(max)),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace lasagna::obs
