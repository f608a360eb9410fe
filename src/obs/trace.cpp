#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace lasagna::obs {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Three-way compare for the deterministic modeled ordering. Events are
/// sorted by (track name, start, duration, name, type, value, args) —
/// nothing wall-clock-dependent — so two runs that record the same modeled
/// work export the same byte sequence regardless of thread interleaving.
int compare_modeled(const TraceEvent& a, const TraceEvent& b,
                    const std::vector<std::string>& tracks) {
  if (int c = tracks[a.track].compare(tracks[b.track]); c != 0) return c;
  if (a.mod_start_ps != b.mod_start_ps) {
    return a.mod_start_ps < b.mod_start_ps ? -1 : 1;
  }
  if (a.mod_dur_ps != b.mod_dur_ps) return a.mod_dur_ps < b.mod_dur_ps ? -1 : 1;
  if (int c = a.name.compare(b.name); c != 0) return c;
  if (a.type != b.type) return a.type < b.type ? -1 : 1;
  if (a.value != b.value) return a.value < b.value ? -1 : 1;
  const std::size_t n = std::min(a.args.size(), b.args.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (int c = std::strcmp(a.args[i].key, b.args[i].key); c != 0) return c;
    if (a.args[i].value != b.args[i].value) {
      return a.args[i].value < b.args[i].value ? -1 : 1;
    }
  }
  if (a.args.size() != b.args.size()) {
    return a.args.size() < b.args.size() ? -1 : 1;
  }
  return 0;
}

void emit_args(std::ostream& out, const TraceEvent& ev) {
  if (ev.type == 'C') {
    out << ",\"args\":{\"value\":" << ev.value << "}";
    return;
  }
  if (ev.args.empty()) return;
  out << ",\"args\":{";
  bool first = true;
  for (const TraceArg& arg : ev.args) {
    if (!first) out << ",";
    json_escape(out, arg.key);
    out << ":" << arg.value;
    first = false;
  }
  out << "}";
}

/// One trace-event object. `modeled` selects which clock supplies ts/dur:
/// wall nanoseconds or modeled picoseconds, both printed as fixed-point
/// microseconds (the unit chrome://tracing expects).
void emit_event(std::ostream& out, const TraceEvent& ev, int pid,
                std::uint32_t tid, bool modeled) {
  out << "{\"name\":";
  json_escape(out, ev.name);
  out << ",\"cat\":\"lasagna\",\"ph\":\"" << ev.type << '"';
  if (ev.type == 'i') out << ",\"s\":\"t\"";
  out << ",\"pid\":" << pid << ",\"tid\":" << tid << ",\"ts\":";
  if (modeled) {
    json_fixed(out, ev.mod_start_ps, 1000000, 6);
  } else {
    json_fixed(out, ev.wall_start_ns, 1000, 3);
  }
  if (ev.type == 'X') {
    out << ",\"dur\":";
    if (modeled) {
      json_fixed(out, ev.mod_dur_ps, 1000000, 6);
    } else {
      json_fixed(out, ev.wall_dur_ns, 1000, 3);
    }
  }
  emit_args(out, ev);
  out << "}";
}

void emit_metadata(std::ostream& out, const char* kind, int pid,
                   std::int64_t tid, std::string_view name) {
  out << "{\"name\":\"" << kind << "\",\"ph\":\"M\",\"pid\":" << pid;
  if (tid >= 0) out << ",\"tid\":" << tid;
  out << ",\"args\":{\"name\":";
  json_escape(out, name);
  out << "}}";
}

}  // namespace

Tracer::Tracer() : epoch_ns_(steady_ns()) {}

TrackId Tracer::track(std::string_view name) {
  const std::scoped_lock lock(mutex_);
  auto it = track_ids_.find(name);
  if (it != track_ids_.end()) return it->second;
  const auto id = static_cast<TrackId>(track_names_.size());
  track_names_.emplace_back(name);
  track_ids_.emplace(std::string(name), id);
  return id;
}

std::int64_t Tracer::now_ns() const { return steady_ns() - epoch_ns_; }

void Tracer::add(TraceEvent event) {
  const std::scoped_lock lock(mutex_);
  events_.push_back(std::move(event));
}

void Tracer::add_span(TrackId track, std::string name,
                      std::int64_t wall_start_ns, std::int64_t wall_dur_ns,
                      std::int64_t mod_start_ps, std::int64_t mod_dur_ps,
                      std::vector<TraceArg> args) {
  TraceEvent ev;
  ev.track = track;
  ev.type = 'X';
  ev.name = std::move(name);
  ev.wall_start_ns = wall_start_ns;
  ev.wall_dur_ns = wall_dur_ns;
  ev.mod_start_ps = mod_start_ps;
  ev.mod_dur_ps = mod_dur_ps;
  ev.args = std::move(args);
  add(std::move(ev));
}

void Tracer::add_instant(TrackId track, std::string name,
                         std::vector<TraceArg> args) {
  TraceEvent ev;
  ev.track = track;
  ev.type = 'i';
  ev.name = std::move(name);
  ev.wall_start_ns = now_ns();
  ev.args = std::move(args);
  add(std::move(ev));
}

void Tracer::add_counter(TrackId track, std::string name,
                         std::int64_t value) {
  TraceEvent ev;
  ev.track = track;
  ev.type = 'C';
  ev.name = std::move(name);
  ev.wall_start_ns = now_ns();
  ev.value = value;
  add(std::move(ev));
}

void Tracer::set_disk_bandwidth(double bytes_per_sec) {
  if (bytes_per_sec <= 0.0) {
    throw std::invalid_argument("trace: disk bandwidth must be positive");
  }
  disk_bandwidth_ = bytes_per_sec;
}

std::int64_t Tracer::disk_ps(std::uint64_t bytes) const {
  return std::llround(static_cast<double>(bytes) / disk_bandwidth_ * 1e12);
}

std::vector<TraceEvent> Tracer::events() const {
  const std::scoped_lock lock(mutex_);
  return events_;
}

std::string Tracer::track_name(TrackId track) const {
  const std::scoped_lock lock(mutex_);
  if (track >= track_names_.size()) {
    throw std::out_of_range("trace: unknown track id " +
                            std::to_string(track));
  }
  return track_names_[track];
}

std::string Tracer::chrome_trace_json() const {
  std::vector<TraceEvent> events;
  std::vector<std::string> tracks;
  {
    const std::scoped_lock lock(mutex_);
    events = events_;
    tracks = track_names_;
  }

  std::vector<bool> wall_used(tracks.size(), false);
  std::vector<bool> mod_used(tracks.size(), false);
  std::vector<const TraceEvent*> modeled;
  for (const TraceEvent& ev : events) {
    if (ev.wall_start_ns >= 0) wall_used[ev.track] = true;
    if (ev.mod_start_ps >= 0) {
      mod_used[ev.track] = true;
      modeled.push_back(&ev);
    }
  }
  std::stable_sort(modeled.begin(), modeled.end(),
                   [&tracks](const TraceEvent* a, const TraceEvent* b) {
                     return compare_modeled(*a, *b, tracks) < 0;
                   });

  std::ostringstream out;
  out << "{\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&out, &first] {
    if (!first) out << ",\n";
    first = false;
  };

  sep();
  emit_metadata(out, "process_name", 1, -1, "wall clock");
  sep();
  emit_metadata(out, "process_name", 2, -1, "modeled clock");
  for (std::size_t t = 0; t < tracks.size(); ++t) {
    for (int pid = 1; pid <= 2; ++pid) {
      if (!(pid == 1 ? wall_used[t] : mod_used[t])) continue;
      sep();
      emit_metadata(out, "thread_name", pid,
                    static_cast<std::int64_t>(t) + 1, tracks[t]);
    }
  }

  for (const TraceEvent& ev : events) {
    if (ev.wall_start_ns < 0) continue;
    sep();
    emit_event(out, ev, /*pid=*/1, ev.track + 1, /*modeled=*/false);
  }
  for (const TraceEvent* ev : modeled) {
    sep();
    emit_event(out, *ev, /*pid=*/2, ev->track + 1, /*modeled=*/true);
  }
  out << "\n]}\n";
  return out.str();
}

void Tracer::write_chrome_trace(const std::filesystem::path& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("trace: cannot open " + path.string());
  }
  out << chrome_trace_json();
}

std::string Tracer::modeled_events_json() const {
  std::vector<TraceEvent> events;
  std::vector<std::string> tracks;
  {
    const std::scoped_lock lock(mutex_);
    events = events_;
    tracks = track_names_;
  }
  std::vector<const TraceEvent*> modeled;
  for (const TraceEvent& ev : events) {
    if (ev.mod_start_ps >= 0) modeled.push_back(&ev);
  }
  std::stable_sort(modeled.begin(), modeled.end(),
                   [&tracks](const TraceEvent* a, const TraceEvent* b) {
                     return compare_modeled(*a, *b, tracks) < 0;
                   });

  std::ostringstream out;
  out << "[\n";
  bool first = true;
  for (const TraceEvent* ev : modeled) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"track\":";
    json_escape(out, tracks[ev->track]);
    out << ",\"name\":";
    json_escape(out, ev->name);
    out << ",\"ph\":\"" << ev->type << "\",\"ts\":";
    json_fixed(out, ev->mod_start_ps, 1000000, 6);
    if (ev->type == 'X') {
      out << ",\"dur\":";
      json_fixed(out, ev->mod_dur_ps, 1000000, 6);
    }
    emit_args(out, *ev);
    out << "}";
  }
  out << "\n]\n";
  return out.str();
}

}  // namespace lasagna::obs
