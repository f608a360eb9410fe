#include "obs/profile.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "obs/json.hpp"

namespace lasagna::obs {

thread_local ProfEdgeKind Profiler::hint_ = ProfEdgeKind::kAm;

// The accessors of the thread_local hint live beside its definition: GCC's
// UBSan reports a false null dereference for inline accessors of a
// thread_local defined in another translation unit.
Profiler::EdgeHint::EdgeHint(ProfEdgeKind kind) : previous_(hint_) {
  hint_ = kind;
}

Profiler::EdgeHint::~EdgeHint() { hint_ = previous_; }

ProfEdgeKind Profiler::current_edge_kind() { return hint_; }

namespace {

/// Modeled clocks for one quantity can be rounded to picoseconds at
/// different points (per chain segment vs. once for the phase total), so
/// graph joins tolerate a microsecond of slack.
constexpr std::int64_t kEpsilonPs = 1'000'000;

int lane_tid(std::string_view lane) {
  if (lane == "device") return 1;
  if (lane == "disk") return 2;
  if (lane == "host") return 3;
  if (lane == "network") return 4;
  return 5;
}

void emit_seconds(std::ostream& out, std::int64_t ps) {
  json_fixed(out, ps, 1'000'000'000'000, 12);
}

}  // namespace

const char* to_string(ProfEdgeKind kind) {
  switch (kind) {
    case ProfEdgeKind::kChain:
      return "chain";
    case ProfEdgeKind::kAm:
      return "am";
    case ProfEdgeKind::kGather:
      return "gather";
    case ProfEdgeKind::kBroadcast:
      return "broadcast";
  }
  return "?";
}

double PhaseCriticalPath::coverage_percent() const {
  if (total_ps <= 0) return 100.0;
  return 100.0 * static_cast<double>(critical_ps) /
         static_cast<double>(total_ps);
}

void Profiler::begin_phase(std::string name, std::int64_t base_ps) {
  const std::scoped_lock lock(mutex_);
  Phase phase;
  phase.name = std::move(name);
  phase.base_ps = base_ps;
  phases_.push_back(std::move(phase));
  cursor_ps_ = base_ps;
  last_chain_id_ = 0;
}

void Profiler::end_phase(std::int64_t total_ps) {
  const std::scoped_lock lock(mutex_);
  // Tolerate a profiler installed mid-run: an end without a matching begin
  // records nothing rather than failing the pipeline it observes.
  if (phases_.empty() || phases_.back().closed) return;
  phases_.back().total_ps = total_ps;
  phases_.back().closed = true;
}

std::uint64_t Profiler::add_span_locked(int node, std::string_view lane,
                                        std::string_view kind,
                                        std::int64_t start_ps,
                                        std::int64_t dur_ps, bool chain) {
  ProfSpan span;
  span.id = next_id_++;
  span.phase =
      phases_.empty() ? 0 : static_cast<std::uint32_t>(phases_.size() - 1);
  span.node = node;
  span.lane = std::string(lane);
  span.kind = std::string(kind);
  span.start_ps = start_ps;
  span.dur_ps = dur_ps;
  span.chain = chain;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::uint64_t Profiler::chain(int node, std::string_view lane,
                              std::string_view kind, std::int64_t dur_ps) {
  const std::scoped_lock lock(mutex_);
  if (dur_ps <= 0) return last_chain_id_;
  const std::uint64_t id =
      add_span_locked(node, lane, kind, cursor_ps_, dur_ps, /*chain=*/true);
  if (last_chain_id_ != 0) {
    edges_.push_back(ProfEdge{last_chain_id_, id, ProfEdgeKind::kChain});
  }
  cursor_ps_ += dur_ps;
  last_chain_id_ = id;
  return id;
}

std::uint64_t Profiler::span(int node, std::string_view lane,
                             std::string_view kind, std::int64_t start_ps,
                             std::int64_t dur_ps) {
  const std::scoped_lock lock(mutex_);
  return add_span_locked(node, lane, kind, start_ps, dur_ps, /*chain=*/false);
}

std::uint64_t Profiler::engine_span(int node, std::string_view lane,
                                    std::string_view kind,
                                    std::int64_t local_start_ps,
                                    std::int64_t dur_ps) {
  const std::scoped_lock lock(mutex_);
  const std::int64_t base = phases_.empty() ? 0 : phases_.back().base_ps;
  return add_span_locked(node, lane, kind, base + local_start_ps, dur_ps,
                         /*chain=*/false);
}

void Profiler::edge(std::uint64_t from, std::uint64_t to, ProfEdgeKind kind) {
  if (from == 0 || to == 0 || from == to) return;
  const std::scoped_lock lock(mutex_);
  edges_.push_back(ProfEdge{from, to, kind});
}

std::vector<ProfSpan> Profiler::spans() const {
  const std::scoped_lock lock(mutex_);
  return spans_;
}

std::vector<ProfEdge> Profiler::edges() const {
  const std::scoped_lock lock(mutex_);
  return edges_;
}

std::vector<PhaseCriticalPath> Profiler::critical_paths() const {
  std::vector<Phase> phases;
  std::vector<ProfSpan> spans;
  std::vector<ProfEdge> edges;
  {
    const std::scoped_lock lock(mutex_);
    phases = phases_;
    spans = spans_;
    edges = edges_;
  }

  std::unordered_map<std::uint64_t, const ProfSpan*> by_id;
  by_id.reserve(spans.size());
  for (const ProfSpan& s : spans) by_id.emplace(s.id, &s);
  std::unordered_map<std::uint64_t, std::vector<const ProfEdge*>> incoming;
  for (const ProfEdge& e : edges) incoming[e.to].push_back(&e);

  std::vector<PhaseCriticalPath> reports;
  reports.reserve(phases.size());
  for (std::size_t p = 0; p < phases.size(); ++p) {
    PhaseCriticalPath report;
    report.name = phases[p].name;
    report.base_ps = phases[p].base_ps;
    report.total_ps = phases[p].total_ps;

    // Terminal: the latest span that still fits inside the phase window,
    // chain spans preferred (AM spans carry racy engine stamps and must
    // not steal the terminal on a tie).
    const std::int64_t limit =
        phases[p].base_ps + phases[p].total_ps + kEpsilonPs;
    const ProfSpan* terminal = nullptr;
    for (const ProfSpan& s : spans) {
      if (s.phase != p || s.end_ps() > limit) continue;
      bool better = false;
      if (terminal == nullptr) {
        better = true;
      } else if (s.chain != terminal->chain) {
        better = s.chain;
      } else if (s.end_ps() != terminal->end_ps()) {
        better = s.end_ps() > terminal->end_ps();
      } else {
        better = s.id < terminal->id;
      }
      if (better) terminal = &s;
    }

    // Backward walk, chain edges first; any predecessor ending where the
    // current span starts otherwise. A visited set guards against cycles.
    std::map<std::tuple<int, std::string, std::string>, std::int64_t> merged;
    std::unordered_set<std::uint64_t> visited;
    const ProfSpan* cur = terminal;
    while (cur != nullptr && visited.insert(cur->id).second) {
      merged[{cur->node, cur->lane, cur->kind}] += cur->dur_ps;
      report.critical_ps += cur->dur_ps;
      const ProfSpan* next = nullptr;
      bool next_chain = false;
      auto it = incoming.find(cur->id);
      if (it != incoming.end()) {
        for (const ProfEdge* e : it->second) {
          auto sit = by_id.find(e->from);
          if (sit == by_id.end()) continue;
          const ProfSpan* pred = sit->second;
          if (pred->phase != p) continue;
          const bool is_chain = e->kind == ProfEdgeKind::kChain;
          if (is_chain &&
              std::llabs(pred->end_ps() - cur->start_ps) > kEpsilonPs) {
            continue;
          }
          if (!is_chain && pred->end_ps() > cur->start_ps + kEpsilonPs) {
            continue;
          }
          const bool better =
              next == nullptr || (is_chain && !next_chain) ||
              (is_chain == next_chain &&
               (pred->end_ps() > next->end_ps() ||
                (pred->end_ps() == next->end_ps() && pred->id < next->id)));
          if (better) {
            next = pred;
            next_chain = is_chain;
          }
        }
      }
      cur = next;
    }

    report.slices.reserve(merged.size());
    for (const auto& [key, ps] : merged) {
      report.slices.push_back(CriticalSlice{std::get<0>(key),
                                            std::get<1>(key),
                                            std::get<2>(key), ps});
    }
    std::sort(report.slices.begin(), report.slices.end(),
              [](const CriticalSlice& a, const CriticalSlice& b) {
                if (a.ps != b.ps) return a.ps > b.ps;
                return std::tie(a.node, a.lane, a.kind) <
                       std::tie(b.node, b.lane, b.kind);
              });
    reports.push_back(std::move(report));
  }
  return reports;
}

std::string Profiler::report_json() const {
  const std::vector<PhaseCriticalPath> paths = critical_paths();
  std::ostringstream out;
  out << "{\n  \"phases\": [";
  bool first_phase = true;
  for (const PhaseCriticalPath& path : paths) {
    out << (first_phase ? "\n" : ",\n") << "    {\"name\": ";
    json_escape(out, path.name);
    out << ", \"base_seconds\": ";
    emit_seconds(out, path.base_ps);
    out << ", \"modeled_seconds\": ";
    emit_seconds(out, path.total_ps);
    out << ", \"critical_seconds\": ";
    emit_seconds(out, path.critical_ps);
    out << ", \"coverage_percent\": ";
    if (path.total_ps <= 0) {
      out << "100.0000";
    } else {
      // percent with four fixed decimals, integer arithmetic only
      const auto scaled = static_cast<std::int64_t>(
          static_cast<__int128>(path.critical_ps) * 1'000'000 /
          path.total_ps);
      json_fixed(out, scaled, 10'000, 4);
    }
    out << ",\n     \"critical_path\": [";
    bool first_slice = true;
    for (const CriticalSlice& slice : path.slices) {
      out << (first_slice ? "\n" : ",\n") << "      {\"node\": " << slice.node
          << ", \"lane\": ";
      json_escape(out, slice.lane);
      out << ", \"kind\": ";
      json_escape(out, slice.kind);
      out << ", \"seconds\": ";
      emit_seconds(out, slice.ps);
      out << "}";
      first_slice = false;
    }
    if (!first_slice) out << "\n     ";
    out << "]}";
    first_phase = false;
  }
  if (!first_phase) out << "\n  ";
  out << "]\n}\n";
  return out.str();
}

void Profiler::write_report(const std::filesystem::path& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("profile: cannot open " + path.string());
  }
  out << report_json();
}

std::string Profiler::merged_chrome_trace_json() const {
  std::vector<ProfSpan> spans;
  std::vector<ProfEdge> edges;
  {
    const std::scoped_lock lock(mutex_);
    spans = spans_;
    edges = edges_;
  }
  std::unordered_map<std::uint64_t, const ProfSpan*> by_id;
  by_id.reserve(spans.size());
  for (const ProfSpan& s : spans) by_id.emplace(s.id, &s);

  // pid 1 = cluster scope, pid 2+k = simulated node k.
  const auto pid_of = [](int node) { return node < 0 ? 1 : node + 2; };

  std::ostringstream out;
  out << "{\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&out, &first] {
    if (!first) out << ",\n";
    first = false;
  };

  // Process/thread rows: cluster first, then every node/lane seen.
  std::map<int, std::map<int, std::string>> rows;  // pid -> tid -> lane
  std::map<int, int> node_of_pid;
  for (const ProfSpan& s : spans) {
    rows[pid_of(s.node)][lane_tid(s.lane)] = s.lane;
    node_of_pid[pid_of(s.node)] = s.node;
  }
  for (const auto& [pid, lanes] : rows) {
    const int node = node_of_pid[pid];
    sep();
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
        << ",\"args\":{\"name\":";
    json_escape(out,
                node < 0 ? std::string("cluster")
                         : "node" + std::to_string(node));
    out << "}}";
    for (const auto& [tid, lane] : lanes) {
      sep();
      out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
          << ",\"tid\":" << tid << ",\"args\":{\"name\":";
      json_escape(out, lane);
      out << "}}";
    }
  }

  for (const ProfSpan& s : spans) {
    sep();
    out << "{\"name\":";
    json_escape(out, s.kind);
    out << ",\"cat\":\"lasagna\",\"ph\":\"X\",\"pid\":" << pid_of(s.node)
        << ",\"tid\":" << lane_tid(s.lane) << ",\"ts\":";
    json_fixed(out, s.start_ps, 1'000'000, 6);
    out << ",\"dur\":";
    json_fixed(out, s.dur_ps, 1'000'000, 6);
    out << ",\"args\":{\"span\":" << s.id << ",\"phase\":" << s.phase
        << ",\"chain\":" << (s.chain ? 1 : 0) << "}}";
  }

  // Flow arrows for the cross-span (non-chain) edges: 's' anchored at the
  // end of the source span, 'f' (bp "e") at the start of the target.
  std::uint64_t flow_id = 0;
  for (const ProfEdge& e : edges) {
    if (e.kind == ProfEdgeKind::kChain) continue;
    auto fit = by_id.find(e.from);
    auto tit = by_id.find(e.to);
    if (fit == by_id.end() || tit == by_id.end()) continue;
    const ProfSpan& from = *fit->second;
    const ProfSpan& to = *tit->second;
    ++flow_id;
    sep();
    out << "{\"name\":\"" << to_string(e.kind)
        << "\",\"cat\":\"lasagna\",\"ph\":\"s\",\"id\":" << flow_id
        << ",\"pid\":" << pid_of(from.node)
        << ",\"tid\":" << lane_tid(from.lane) << ",\"ts\":";
    json_fixed(out, from.end_ps(), 1'000'000, 6);
    out << ",\"args\":{\"from\":" << e.from << ",\"to\":" << e.to << "}}";
    sep();
    out << "{\"name\":\"" << to_string(e.kind)
        << "\",\"cat\":\"lasagna\",\"ph\":\"f\",\"bp\":\"e\",\"id\":"
        << flow_id << ",\"pid\":" << pid_of(to.node)
        << ",\"tid\":" << lane_tid(to.lane) << ",\"ts\":";
    json_fixed(out, to.start_ps, 1'000'000, 6);
    out << ",\"args\":{\"from\":" << e.from << ",\"to\":" << e.to << "}}";
  }

  out << "\n]}\n";
  return out.str();
}

void Profiler::write_merged_trace(const std::filesystem::path& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("profile: cannot open " + path.string());
  }
  out << merged_chrome_trace_json();
}

}  // namespace lasagna::obs
