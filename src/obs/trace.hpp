// Dual-clock span tracer with Chrome trace-event export.
//
// Every event can carry timestamps on two clocks:
//
//   - the *wall* clock: real nanoseconds since the tracer's construction,
//     measured with steady_clock. Wall spans show what actually overlapped
//     on the host (prefetch threads, drain workers, phases).
//   - the *modeled* clock: the simulator's deterministic timeline — device
//     picoseconds from gpu::Device's per-stream counters, disk time from
//     byte offsets over the configured disk bandwidth, lane times from the
//     phase overlap model. Modeled spans are the paper-world Gantt chart:
//     two runs with the same seed produce byte-identical modeled events.
//
// The Chrome export renders the two clocks as two "processes" (pid 1 wall,
// pid 2 modeled) so chrome://tracing / Perfetto shows them as separate
// groups; each named track becomes one "thread" row. Open the file with
// chrome://tracing "Load" or https://ui.perfetto.dev.
//
// Disabled cost: Tracer::active() is a single atomic pointer load
// (util::Installed); no tracer installed means no locks, no allocation, no
// string formatting at any call site — call sites must build names only
// after checking active(), which wall_span() does for them.
#pragma once

#include <cstdint>
#include <filesystem>
#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/installed.hpp"

namespace lasagna::obs {

/// Index into the tracer's track table. Tracks are named timelines ("disk",
/// "device.s1", "lane.host", ...) rendered as separate rows.
using TrackId = std::uint32_t;

/// One key/value annotation on an event (rendered under "args").
struct TraceArg {
  const char* key = "";
  std::int64_t value = 0;
};

/// One recorded event. Timestamps of -1 mean "absent on this clock":
/// wall-only events never enter the modeled export (they are
/// nondeterministic), modeled-only events still document the simulated
/// timeline when wall time is meaningless (lane spans).
struct TraceEvent {
  TrackId track = 0;
  char type = 'X';  ///< 'X' complete span, 'i' instant, 'C' counter
  std::string name;
  std::int64_t wall_start_ns = -1;
  std::int64_t wall_dur_ns = 0;
  std::int64_t mod_start_ps = -1;
  std::int64_t mod_dur_ps = 0;
  std::int64_t value = 0;  ///< counter events only
  std::vector<TraceArg> args;
};

class Tracer : public util::Installed<Tracer> {
 public:
  Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // -- recording -----------------------------------------------------------

  /// Find or create the track named `name`.
  [[nodiscard]] TrackId track(std::string_view name);

  /// Wall nanoseconds since this tracer's construction.
  [[nodiscard]] std::int64_t now_ns() const;

  void add(TraceEvent event);

  /// Span with both clocks (pass -1 starts to omit a clock).
  void add_span(TrackId track, std::string name, std::int64_t wall_start_ns,
                std::int64_t wall_dur_ns, std::int64_t mod_start_ps,
                std::int64_t mod_dur_ps, std::vector<TraceArg> args = {});

  /// Wall-only instant event (log lines, injected faults).
  void add_instant(TrackId track, std::string name,
                   std::vector<TraceArg> args = {});

  /// Wall-only counter sample (queue depth over time).
  void add_counter(TrackId track, std::string name, std::int64_t value);

  // -- modeled disk clock --------------------------------------------------

  /// Bandwidth used to place disk I/O on the modeled timeline (defaults to
  /// the default MachineConfig's scaled disk bandwidth). Set it before
  /// installing the tracer; it is read concurrently afterwards.
  void set_disk_bandwidth(double bytes_per_sec);
  [[nodiscard]] std::int64_t disk_ps(std::uint64_t bytes) const;

  // -- export --------------------------------------------------------------

  [[nodiscard]] std::vector<TraceEvent> events() const;
  [[nodiscard]] std::string track_name(TrackId track) const;

  /// Full Chrome trace-event JSON: {"traceEvents": [...]} with the wall
  /// clock under pid 1 and the modeled clock under pid 2.
  [[nodiscard]] std::string chrome_trace_json() const;
  void write_chrome_trace(const std::filesystem::path& path) const;

  /// Only the modeled-clock events, deterministically ordered — two runs
  /// with the same seed produce byte-identical output. (The same ordering
  /// is used for the modeled section of chrome_trace_json.)
  [[nodiscard]] std::string modeled_events_json() const;

 private:
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::vector<std::string> track_names_;
  std::map<std::string, TrackId, std::less<>> track_ids_;
  std::int64_t epoch_ns_;  ///< steady_clock at construction
  double disk_bandwidth_ = 500e6 / 4096.0;
};

/// RAII wall-clock span. Default-constructed spans are inert; active ones
/// capture now_ns() at construction and emit a complete event when
/// finished/destroyed. Call sites arm one through wall_span() below:
///
///   const obs::WallSpan span =
///       obs::wall_span("core.sort", [&] { return "file:" + name; });
class WallSpan {
 public:
  WallSpan() = default;
  WallSpan(Tracer& tracer, TrackId track, std::string name,
           std::vector<TraceArg> args = {})
      : tracer_(&tracer),
        track_(track),
        name_(std::move(name)),
        args_(std::move(args)),
        start_ns_(tracer.now_ns()) {}

  WallSpan(const WallSpan&) = delete;
  WallSpan& operator=(const WallSpan&) = delete;
  WallSpan(WallSpan&& other) noexcept { *this = std::move(other); }
  WallSpan& operator=(WallSpan&& other) noexcept {
    if (this != &other) {
      finish();
      tracer_ = other.tracer_;
      track_ = other.track_;
      name_ = std::move(other.name_);
      args_ = std::move(other.args_);
      start_ns_ = other.start_ns_;
      other.tracer_ = nullptr;
    }
    return *this;
  }
  ~WallSpan() { finish(); }

  /// Append an annotation (e.g. a result count known only at the end).
  void add_arg(const char* key, std::int64_t value) {
    if (tracer_ != nullptr) args_.push_back(TraceArg{key, value});
  }

  /// Emit the span now (idempotent).
  void finish() {
    if (tracer_ == nullptr) return;
    tracer_->add_span(track_, std::move(name_), start_ns_,
                      tracer_->now_ns() - start_ns_, -1, 0,
                      std::move(args_));
    tracer_ = nullptr;
  }

 private:
  Tracer* tracer_ = nullptr;
  TrackId track_ = 0;
  std::string name_;
  std::vector<TraceArg> args_;
  std::int64_t start_ns_ = 0;
};

/// A wall span on the row named `track`, or an inert span when no tracer is
/// installed. `name` is a string or a callable returning one; the callable
/// runs, and the args are copied, only when a tracer is installed, so an
/// untraced call site allocates nothing for them.
template <typename Name>
[[nodiscard]] WallSpan wall_span(std::string_view track, Name&& name,
                                 std::initializer_list<TraceArg> args = {}) {
  Tracer* tracer = Tracer::active();
  if (tracer == nullptr) return {};
  if constexpr (std::is_invocable_v<Name>) {
    return WallSpan(*tracer, tracer->track(track), std::forward<Name>(name)(),
                    args);
  } else {
    return WallSpan(*tracer, tracer->track(track), std::string(name), args);
  }
}

}  // namespace lasagna::obs

/// True when a tracer is installed — the cheap guard call sites use before
/// building event names (mirrors the LASAGNA_LOG level check).
#define LASAGNA_TRACE_ACTIVE() (::lasagna::obs::Tracer::active() != nullptr)
