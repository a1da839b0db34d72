#include "obs/export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>
#include <set>
#include <vector>

namespace sa::obs {

namespace {

/// Integral values print as integers (timestamps, counts); everything else
/// with enough digits to round-trip. Deterministic for a given value.
std::string format_number(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void write_event_line(const Event& e, std::ostream& out, const std::string& prefix) {
  out << '{' << prefix << "\"seq\":" << e.seq << ",\"t\":" << e.time << ",\"kind\":\""
      << to_string(e.kind) << '"';
  if (e.track != kNoTrack) out << ",\"track\":" << e.track;
  if (is_message_event(e.kind)) out << ",\"from\":" << e.from << ",\"to\":" << e.to;
  if (e.coords.request != 0) {
    out << ",\"request\":" << e.coords.request << ",\"plan\":" << e.coords.plan
        << ",\"step\":" << e.coords.step << ",\"attempt\":" << e.coords.attempt;
  }
  if (e.span != 0) out << ",\"span\":" << e.span;
  if (e.parent_span != 0) out << ",\"parent\":" << e.parent_span;
  if (e.epoch != 0) out << ",\"epoch\":" << e.epoch;
  if (!e.name.empty()) out << ",\"name\":\"" << json_escape(e.name) << '"';
  if (!e.detail.empty()) out << ",\"detail\":\"" << json_escape(e.detail) << '"';
  if (e.has_value) out << ",\"value\":" << format_number(e.value);
  out << "}\n";
}

/// Shared body of the two recorder-backed write_jsonl overloads; `prefix` is
/// either empty or a rendered `"region":<n>,` fragment prepended to every line.
void write_jsonl_impl(const TraceRecorder& recorder, std::ostream& out,
                      const std::string& prefix) {
  // Track names lead the stream as meta lines so an analysis pass can label
  // tree nodes without access to the recorder.
  for (const auto& [track, name] : recorder.track_names()) {
    out << '{' << prefix << "\"meta\":\"track_name\",\"track\":" << track << ",\"name\":\""
        << json_escape(name) << "\"}\n";
  }
  for (const Event& e : recorder.events()) write_event_line(e, out, prefix);
}

}  // namespace

void write_jsonl(const TraceRecorder& recorder, std::ostream& out) {
  write_jsonl_impl(recorder, out, "");
}

void write_jsonl(const TraceRecorder& recorder, std::ostream& out, std::uint64_t region) {
  write_jsonl_impl(recorder, out, "\"region\":" + std::to_string(region) + ",");
}

void write_jsonl(const std::vector<Event>& events, std::ostream& out) {
  for (const Event& e : events) write_event_line(e, out, "");
}

namespace {

/// Chrome tids must be non-negative: the manager track (-1) becomes tid 0,
/// process or node p becomes tid p + 1, and the negative rows below it
/// (coordinators: -101, -102, ...) get a range of their own, -track above a
/// million, which process and node ids never reach.
std::int64_t tid_of(std::int64_t track) {
  constexpr std::int64_t kNegativeRowTids = 1'000'000;
  return track >= kManagerTrack ? track + 1 : kNegativeRowTids - track;
}

std::string step_span_id(const StepCoords& c) {
  return "r" + std::to_string(c.request) + ".p" + std::to_string(c.plan) + ".s" +
         std::to_string(c.step) + ".a" + std::to_string(c.attempt);
}

struct ChromeWriter {
  std::ostream& out;
  bool first = true;

  void emit(const std::string& json) {
    if (!first) out << ",\n";
    first = false;
    out << "  " << json;
  }
};

}  // namespace

void write_chrome_trace(const TraceRecorder& recorder, std::ostream& out) {
  const std::vector<Event> events = recorder.events();
  const auto tracks = recorder.track_names();

  runtime::Time trace_start = 0;
  runtime::Time trace_end = 0;
  if (!events.empty()) {
    trace_start = events.front().time;
    for (const Event& e : events) {
      trace_start = std::min(trace_start, e.time);
      trace_end = std::max(trace_end, e.time);
    }
  }

  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  ChromeWriter w{out};

  w.emit(R"({"ph":"M","name":"process_name","pid":0,"tid":0,"args":{"name":"safe-adaptation"}})");
  for (const auto& [track, name] : tracks) {
    w.emit("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":" +
           std::to_string(tid_of(track)) + ",\"args\":{\"name\":\"" + json_escape(name) +
           "\"}}");
  }

  // Phase/state slices: each track's transition events cut its timeline into
  // complete ("X") slices; the slice before the first transition carries the
  // transition's from-state so every track starts at trace_start.
  std::map<std::int64_t, std::vector<const Event*>> transitions;
  for (const Event& e : events) {
    if (e.kind == EventKind::ManagerPhase || e.kind == EventKind::AgentState) {
      transitions[e.track].push_back(&e);
    }
  }
  for (const auto& [track, list] : transitions) {
    const std::int64_t tid = tid_of(track);
    const auto slice = [&](const std::string& name, runtime::Time begin, runtime::Time end) {
      w.emit("{\"ph\":\"X\",\"cat\":\"state\",\"name\":\"" + json_escape(name) +
             "\",\"pid\":0,\"tid\":" + std::to_string(tid) + ",\"ts\":" + std::to_string(begin) +
             ",\"dur\":" + std::to_string(std::max<runtime::Time>(end - begin, 0)) + "}");
    };
    if (!list.front()->detail.empty() && list.front()->time > trace_start) {
      slice(list.front()->detail, trace_start, list.front()->time);
    }
    for (std::size_t i = 0; i < list.size(); ++i) {
      const runtime::Time end = i + 1 < list.size() ? list[i + 1]->time : trace_end;
      slice(list[i]->name, list[i]->time, end);
    }
  }

  for (const Event& e : events) {
    switch (e.kind) {
      case EventKind::AdaptationRequested:
        w.emit("{\"ph\":\"b\",\"cat\":\"adaptation\",\"name\":\"adaptation\",\"id\":" +
               std::to_string(e.coords.request) + ",\"pid\":0,\"tid\":" +
               std::to_string(tid_of(kManagerTrack)) + ",\"ts\":" + std::to_string(e.time) +
               ",\"args\":{\"detail\":\"" + json_escape(e.detail) + "\"}}");
        break;
      case EventKind::AdaptationFinished:
        w.emit("{\"ph\":\"e\",\"cat\":\"adaptation\",\"name\":\"adaptation\",\"id\":" +
               std::to_string(e.coords.request) + ",\"pid\":0,\"tid\":" +
               std::to_string(tid_of(kManagerTrack)) + ",\"ts\":" + std::to_string(e.time) +
               ",\"args\":{\"outcome\":\"" + json_escape(e.name) + "\"}}");
        break;
      case EventKind::StepStarted:
        w.emit("{\"ph\":\"b\",\"cat\":\"step\",\"name\":\"" + json_escape(e.name) +
               "\",\"id\":\"" + step_span_id(e.coords) + "\",\"pid\":0,\"tid\":" +
               std::to_string(tid_of(kManagerTrack)) + ",\"ts\":" + std::to_string(e.time) + "}");
        break;
      case EventKind::StepCommitted:
      case EventKind::StepRolledBack:
        w.emit("{\"ph\":\"e\",\"cat\":\"step\",\"name\":\"" + json_escape(e.name) +
               "\",\"id\":\"" + step_span_id(e.coords) + "\",\"pid\":0,\"tid\":" +
               std::to_string(tid_of(kManagerTrack)) + ",\"ts\":" + std::to_string(e.time) +
               ",\"args\":{\"fate\":\"" +
               (e.kind == EventKind::StepCommitted ? "committed" : "rolled_back") + "\"}}");
        break;
      case EventKind::MessageSent:
      case EventKind::MessageDelivered:
      case EventKind::MessageDropped:
      case EventKind::MessageDuplicated: {
        // Attribute sends/drops/duplicates to the sender's track, deliveries
        // to the receiver's; endpoints without a track (e.g. application data
        // nodes) land on the manager row rather than vanishing.
        const runtime::NodeId endpoint =
            e.kind == EventKind::MessageDelivered ? e.to : e.from;
        const std::int64_t track = recorder.node_track(endpoint).value_or(kManagerTrack);
        w.emit("{\"ph\":\"i\",\"s\":\"t\",\"cat\":\"message\",\"name\":\"" +
               std::string(e.kind == EventKind::MessageDelivered ? "recv " : "send ") +
               json_escape(e.name) + "\",\"pid\":0,\"tid\":" + std::to_string(tid_of(track)) +
               ",\"ts\":" + std::to_string(e.time) + ",\"args\":{\"kind\":\"" +
               std::string(to_string(e.kind)) + "\",\"from\":" + std::to_string(e.from) +
               ",\"to\":" + std::to_string(e.to) + "}}");
        break;
      }
      case EventKind::TimerArmed:
      case EventKind::TimerFired:
      case EventKind::TimerCancelled:
        w.emit("{\"ph\":\"i\",\"s\":\"t\",\"cat\":\"timer\",\"name\":\"" +
               std::string(to_string(e.kind)) + " " + json_escape(e.name) +
               "\",\"pid\":0,\"tid\":" +
               std::to_string(tid_of(e.track == kNoTrack ? kManagerTrack : e.track)) +
               ",\"ts\":" + std::to_string(e.time) + "}");
        break;
      default:
        break;
    }
  }

  // Causal flow arrows: every event that names both its own span and its
  // parent gets an arrow from the parent span's first event. The child span
  // id doubles as the flow id (each child has exactly one parent), so
  // Perfetto renders one arrow per tree edge.
  std::map<std::uint64_t, const Event*> span_origin;
  for (const Event& e : events) {
    if (e.span != 0) span_origin.emplace(e.span, &e);  // first occurrence wins
  }
  std::set<std::pair<std::uint64_t, std::uint64_t>> linked;
  const auto tid_str = [](const Event& ev) {
    return std::to_string(tid_of(ev.track == kNoTrack ? kManagerTrack : ev.track));
  };
  for (const Event& e : events) {
    if (e.span == 0 || e.parent_span == 0) continue;
    const auto origin = span_origin.find(e.parent_span);
    if (origin == span_origin.end()) continue;
    if (!linked.insert({e.parent_span, e.span}).second) continue;
    const Event& p = *origin->second;
    w.emit("{\"ph\":\"s\",\"cat\":\"causal\",\"name\":\"causal\",\"id\":" +
           std::to_string(e.span) + ",\"pid\":0,\"tid\":" + tid_str(p) +
           ",\"ts\":" + std::to_string(p.time) + "}");
    w.emit("{\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"causal\",\"name\":\"causal\",\"id\":" +
           std::to_string(e.span) + ",\"pid\":0,\"tid\":" + tid_str(e) +
           ",\"ts\":" + std::to_string(e.time) + "}");
  }

  out << "\n]}\n";
}

namespace {

/// Splices an le label into an already-rendered label string.
std::string with_le(const std::string& labels, const std::string& le) {
  if (labels.empty()) return "{le=\"" + le + "\"}";
  return labels.substr(0, labels.size() - 1) + ",le=\"" + le + "\"}";
}

}  // namespace

void write_prometheus(const MetricsRegistry& metrics, std::ostream& out) {
  for (const FamilySnapshot& family : metrics.snapshot()) {
    if (!family.help.empty()) out << "# HELP " << family.name << " " << family.help << "\n";
    out << "# TYPE " << family.name << " " << family.type << "\n";
    for (const SeriesSnapshot& series : family.series) {
      if (series.histogram) {
        const HistogramSnapshot& h = *series.histogram;
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.bounds.size(); ++i) {
          cumulative += h.counts[i];
          out << family.name << "_bucket" << with_le(series.labels, format_number(h.bounds[i]))
              << " " << cumulative << "\n";
        }
        cumulative += h.counts.back();
        out << family.name << "_bucket" << with_le(series.labels, "+Inf") << " " << cumulative
            << "\n";
        out << family.name << "_sum" << series.labels << " " << format_number(h.sum) << "\n";
        out << family.name << "_count" << series.labels << " " << h.count << "\n";
      } else {
        out << family.name << series.labels << " " << format_number(series.value) << "\n";
      }
    }
  }
}

}  // namespace sa::obs
