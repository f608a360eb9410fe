// Pipeline-level observability contracts:
//  - two identical streamed runs emit byte-identical modeled-clock trace
//    events (the modeled timeline is part of the determinism surface);
//  - the streamed run's trace *shows* the overlap the modeled clock
//    charges: >= 3 distinct modeled tracks, concurrent device-stream spans,
//    and phase lanes that start together;
//  - fault-injection and device-budget instrumentation surfaces through the
//    global metrics registry, and the device peak gauge is the run's
//    high-water mark.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/map_phase.hpp"
#include "core/pipeline.hpp"
#include "io/fault_injector.hpp"
#include "io/tempdir.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "seq/genome.hpp"
#include "seq/simulator.hpp"
#include "test_json.hpp"
#include "test_workspace.hpp"

namespace lasagna::core {
namespace {

using lasagna::testing::JsonValidator;
using lasagna::testing::TestWorkspace;

void simulate_reads(const std::filesystem::path& path) {
  const std::string genome = seq::random_genome(8000, 51);
  seq::SequencingSpec spec;
  spec.read_length = 100;
  spec.coverage = 15.0;
  spec.seed = 52;
  seq::simulate_to_fastq(genome, spec, path);
}

/// One fully streamed assembly with `tracer` installed. Every run uses the
/// same file *names* (different temp dirs), so modeled disk spans — named
/// by filename — are comparable across runs.
void traced_streamed_run(obs::Tracer& tracer) {
  io::ScopedTempDir dir("lasagna-trace-e2e");
  simulate_reads(dir.file("reads.fq"));

  AssemblyConfig config;
  config.min_overlap = 63;
  config.machine.host_memory_bytes = 1 << 18;    // 256 KiB
  config.machine.device_memory_bytes = 1 << 15;  // 32 KiB
  config.streamed_sort = true;
  config.streamed_map = true;
  config.streamed_reduce = true;

  tracer.set_disk_bandwidth(config.machine.disk_bandwidth_bytes_per_sec);
  obs::Tracer::ScopedInstall install(&tracer);
  Assembler assembler(config);
  (void)assembler.run(dir.file("reads.fq"), dir.file("contigs.fa"));
}

TEST(TracePipeline, ModeledEventsByteIdenticalAcrossRuns) {
  if (io::FaultInjector::active() != nullptr) {
    GTEST_SKIP() << "ambient injector installed via LASAGNA_FAULT_SPEC";
  }
  obs::Tracer first;
  traced_streamed_run(first);
  obs::Tracer second;
  traced_streamed_run(second);

  const std::string a = first.modeled_events_json();
  const std::string b = second.modeled_events_json();
  JsonValidator v(a);
  EXPECT_TRUE(v.valid()) << v.error();
  EXPECT_GT(a.size(), 2u) << "no modeled events recorded";
  EXPECT_EQ(a, b) << "modeled timeline is not deterministic";
}

TEST(TracePipeline, DiskRowsHoldOneSpanPerFile) {
  if (io::FaultInjector::active() != nullptr) {
    GTEST_SKIP() << "ambient injector installed via LASAGNA_FAULT_SPEC";
  }
  obs::Tracer tracer;
  traced_streamed_run(tracer);

  // The run reads each file at most once and writes each at most once, and
  // a stream records one span when it closes, so every disk row holds at
  // most one span per file name on each clock.
  std::map<std::string, int> wall;
  std::map<std::string, int> modeled;
  for (const auto& ev : tracer.events()) {
    const std::string track = tracer.track_name(ev.track);
    if (ev.type != 'X' || track.rfind("disk.", 0) != 0) continue;
    const std::string key = track + "/" + ev.name;
    if (ev.wall_start_ns >= 0) ++wall[key];
    if (ev.mod_start_ps >= 0) ++modeled[key];
  }
  EXPECT_FALSE(wall.empty()) << "no disk spans recorded";
  for (const auto& counts : {wall, modeled}) {
    for (const auto& [key, n] : counts) EXPECT_EQ(n, 1) << key;
  }
}

/// Modeled interval [start, start+dur) of one span.
struct Interval {
  std::int64_t start;
  std::int64_t dur;
};

bool overlaps(const Interval& a, const Interval& b) {
  return a.start < b.start + b.dur && b.start < a.start + a.dur;
}

bool any_overlap(const std::vector<Interval>& a,
                 const std::vector<Interval>& b) {
  for (const auto& x : a) {
    for (const auto& y : b) {
      if (overlaps(x, y)) return true;
    }
  }
  return false;
}

TEST(TracePipeline, StreamedRunShowsThreeOverlappingLanes) {
  if (io::FaultInjector::active() != nullptr) {
    GTEST_SKIP() << "ambient injector installed via LASAGNA_FAULT_SPEC";
  }
  obs::Tracer tracer;
  traced_streamed_run(tracer);

  // Group modeled spans by track name.
  std::map<std::string, std::vector<Interval>> by_track;
  std::map<std::string, std::vector<Interval>> lane_spans_named_sort;
  for (const auto& ev : tracer.events()) {
    if (ev.mod_start_ps < 0 || ev.type != 'X') continue;
    const std::string track = tracer.track_name(ev.track);
    by_track[track].push_back(Interval{ev.mod_start_ps, ev.mod_dur_ps});
    if (ev.name == "sort" && track.rfind("lane.", 0) == 0) {
      lane_spans_named_sort[track].push_back(
          Interval{ev.mod_start_ps, ev.mod_dur_ps});
    }
  }

  // The acceptance bar: at least three distinct modeled tracks.
  EXPECT_GE(by_track.size(), 3u);

  // The streamed sort phase runs its device, disk and host lanes
  // concurrently: all of its lane spans start at the phase base.
  ASSERT_TRUE(lane_spans_named_sort.count("lane.device"));
  ASSERT_TRUE(lane_spans_named_sort.count("lane.disk"));
  EXPECT_TRUE(any_overlap(lane_spans_named_sort["lane.device"],
                          lane_spans_named_sort["lane.disk"]))
      << "sort device and disk lanes do not overlap";

  // Double buffering across the modeled stream pair: spans on two distinct
  // device streams overlap in modeled time.
  std::vector<std::string> device_tracks;
  for (const auto& [track, spans] : by_track) {
    if (track.rfind("device.s", 0) == 0 && !spans.empty()) {
      device_tracks.push_back(track);
    }
  }
  ASSERT_GE(device_tracks.size(), 2u) << "expected a modeled stream pair";
  bool stream_overlap = false;
  for (std::size_t i = 0; i < device_tracks.size() && !stream_overlap; ++i) {
    for (std::size_t j = i + 1; j < device_tracks.size(); ++j) {
      if (any_overlap(by_track[device_tracks[i]],
                      by_track[device_tracks[j]])) {
        stream_overlap = true;
        break;
      }
    }
  }
  EXPECT_TRUE(stream_overlap)
      << "no two device streams have overlapping modeled spans";

  // Disk activity overlaps device activity somewhere on the timeline.
  std::vector<Interval> disk;
  std::vector<Interval> device;
  for (const auto& [track, spans] : by_track) {
    if (track.rfind("disk.", 0) == 0) {
      disk.insert(disk.end(), spans.begin(), spans.end());
    } else if (track.rfind("device.s", 0) == 0) {
      device.insert(device.end(), spans.begin(), spans.end());
    }
  }
  EXPECT_TRUE(any_overlap(disk, device));

  // The full Chrome export is valid JSON.
  const std::string json = tracer.chrome_trace_json();
  JsonValidator v(json);
  EXPECT_TRUE(v.valid()) << v.error();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(TraceMetrics, FaultCountersSurfaceThroughRegistryAndIoStats) {
  if (io::FaultInjector::active() != nullptr) {
    GTEST_SKIP() << "ambient injector installed via LASAGNA_FAULT_SPEC";
  }
  auto& registry = obs::MetricsRegistry::global();
  const std::int64_t injected_before = registry.value("io.faults_injected");
  const std::int64_t retried_before = registry.value("io.faults_retried");
  const std::int64_t fatal_before = registry.value("io.faults_fatal");

  TestWorkspace tw;
  const std::string genome = seq::random_genome(3000, 31);
  seq::SequencingSpec spec;
  spec.read_length = 100;
  spec.coverage = 8.0;
  spec.seed = 32;
  const auto fq = tw.dir().file("reads.fq");
  seq::simulate_to_fastq(genome, spec, fq);

  // Write faults: partition writes go through the injector's write hook.
  auto injector =
      io::FaultInjector::parse("seed=5;retries=3;write:rate=0.05,transient=1");
  io::FaultInjector::ScopedInstall guard(injector.get());
  MapOptions options;
  options.min_overlap = 80;
  options.streamed = true;
  (void)run_map_phase(tw.ws(), fq, options);

  EXPECT_GT(injector->injected(), 0u);
  EXPECT_EQ(registry.value("io.faults_injected") - injected_before,
            static_cast<std::int64_t>(injector->injected()));
  EXPECT_EQ(registry.value("io.faults_retried") - retried_before,
            static_cast<std::int64_t>(injector->retried()));
  EXPECT_EQ(registry.value("io.faults_fatal") - fatal_before,
            static_cast<std::int64_t>(injector->fatal()));

  // Device allocation budget mirrors into gpu.device gauges (the workspace
  // device is the most recent publisher in this process).
  EXPECT_EQ(registry.value("gpu.device.current_bytes"),
            static_cast<std::int64_t>(tw.device().memory().current()));
  EXPECT_EQ(registry.value("gpu.device.peak_bytes"),
            static_cast<std::int64_t>(tw.device().memory().peak()));
  EXPECT_GT(registry.value("gpu.device.peak_bytes"), 0);
}

TEST(TraceMetrics, DevicePeakGaugeIsTheRunHighWaterMark) {
  // Phase boundaries restart the tracker's per-phase peak (Tables IV-V),
  // but the exported gauge keeps the largest peak of the run.
  io::ScopedTempDir dir("lasagna-peak-gauge");
  simulate_reads(dir.file("reads.fq"));
  AssemblyConfig config;
  config.min_overlap = 63;
  config.machine.host_memory_bytes = 1 << 20;
  config.machine.device_memory_bytes = 1 << 16;
  Assembler assembler(config);
  const AssemblyResult result =
      assembler.run(dir.file("reads.fq"), dir.file("contigs.fa"));

  std::uint64_t largest = 0;
  for (const util::PhaseStats& phase : result.stats.phases()) {
    largest = std::max(largest, phase.peak_device_bytes);
  }
  EXPECT_GT(largest, 0u);
  EXPECT_EQ(obs::MetricsRegistry::global().value("gpu.device.peak_bytes"),
            static_cast<std::int64_t>(largest));
}

}  // namespace
}  // namespace lasagna::core
