#include "obs/trace_analysis.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "obs/export.hpp"
#include "util/json.hpp"

namespace sa::obs {

namespace {

/// Inverse of to_string(EventKind); the kinds table is small enough that a
/// linear probe over the enum is simpler than a map.
std::optional<EventKind> kind_from_string(std::string_view text) {
  for (int k = 0; k <= static_cast<int>(EventKind::BlockedWindow); ++k) {
    const auto kind = static_cast<EventKind>(k);
    if (to_string(kind) == text) return kind;
  }
  return std::nullopt;
}

}  // namespace

std::optional<TraceLine> parse_trace_line(std::string_view line) {
  if (line.find_first_not_of(" \t\r\n") == std::string_view::npos) return std::nullopt;
  TraceLine out;
  const auto reject = [&out](std::string why) {
    out.error = std::move(why);
    return out;
  };
  util::JsonValue object;
  try {
    object = util::parse_json(line, "trace line");
  } catch (const std::runtime_error& error) {
    return reject(error.what());
  }
  if (object.type != util::JsonValue::Type::Object) return reject("line is not a JSON object");
  const auto has_integer = [&](const char* key) {
    const util::JsonValue* v = object.find(key);
    return v != nullptr && v->is_integer;
  };
  // Integer fields: absent or non-integral reads as `fallback`.
  const auto integer = [&](const char* key, std::uint64_t fallback = 0) {
    return has_integer(key) ? object.find(key)->integer : fallback;
  };
  const auto text = [&](const char* key) -> std::string {
    const util::JsonValue* v = object.find(key);
    return v != nullptr && v->type == util::JsonValue::Type::String ? v->string : "";
  };
  if (object.find("region") != nullptr) {
    if (!has_integer("region")) return reject("bad region");
    out.region = integer("region");
  }

  if (object.find("meta") != nullptr) {
    out.meta = true;
    out.meta_track = static_cast<std::int64_t>(integer("track"));
    out.meta_name = text("name");
    if (text("meta") != "track_name") return reject("unknown meta kind");
    if (!has_integer("track")) return reject("track_name meta line without an integer track");
    return out;
  }

  Event& e = out.event;
  const std::optional<EventKind> kind = kind_from_string(text("kind"));
  if (!kind) return reject("unknown kind '" + text("kind") + "'");
  e.kind = *kind;
  if (!has_integer("seq") || !has_integer("t")) return reject("event without integer seq and t");
  if (is_message_event(e.kind) && !(has_integer("from") && has_integer("to"))) {
    return reject("message event without integer from/to");
  }
  e.seq = integer("seq");
  e.time = static_cast<runtime::Time>(integer("t"));
  e.track = static_cast<std::int64_t>(integer("track", static_cast<std::uint64_t>(kNoTrack)));
  e.from = static_cast<runtime::NodeId>(integer("from"));
  e.to = static_cast<runtime::NodeId>(integer("to"));
  e.coords.request = integer("request");
  e.coords.plan = static_cast<std::uint32_t>(integer("plan"));
  e.coords.step = static_cast<std::uint32_t>(integer("step"));
  e.coords.attempt = static_cast<std::uint32_t>(integer("attempt"));
  e.span = integer("span");
  e.parent_span = integer("parent");
  e.epoch = integer("epoch");
  e.name = text("name");
  e.detail = text("detail");
  if (const util::JsonValue* value = object.find("value");
      value != nullptr && value->type == util::JsonValue::Type::Number) {
    e.value = value->number;
    e.has_value = true;
  }
  return out;
}

std::vector<TraceLine> parse_trace(std::string_view jsonl) {
  std::vector<TraceLine> lines;
  std::size_t number = 0;
  while (!jsonl.empty()) {
    const std::size_t end = std::min(jsonl.find('\n'), jsonl.size());
    ++number;
    if (std::optional<TraceLine> line = parse_trace_line(jsonl.substr(0, end))) {
      line->line = number;
      lines.push_back(std::move(*line));
    }
    jsonl.remove_prefix(std::min(end + 1, jsonl.size()));
  }
  return lines;
}

namespace {

enum class SpanCategory : std::uint8_t { Epoch, Ticket, Request };

struct SpanInfo {
  SpanCategory category = SpanCategory::Epoch;
  std::uint64_t span = 0;
  std::uint64_t parent = 0;  ///< causal parent span (0 = none / root)
  std::uint64_t epoch = 0;   ///< epoch number (Epoch spans)
  std::int64_t track = kNoTrack;
  runtime::Time begin = 0;
  runtime::Time end = 0;
  bool has_begin = false;
  bool has_end = false;
  bool parent_is_epoch = false;  ///< set after linking
};

struct RegionModel {
  std::map<std::uint64_t, SpanInfo> spans;
  std::map<std::uint64_t, std::vector<std::uint64_t>> children;  ///< parent -> children
  std::map<std::int64_t, std::string> track_names;
  std::vector<const Event*> blocked;  ///< BlockedWindow events
};

SpanInfo& span_slot(RegionModel& model, std::uint64_t span, SpanCategory category) {
  SpanInfo& info = model.spans[span];
  info.span = span;
  info.category = category;
  return info;
}

LatencyStats stats_of(std::vector<runtime::Time> values) {
  LatencyStats stats;
  stats.count = values.size();
  if (values.empty()) return stats;
  std::sort(values.begin(), values.end());
  const auto pick = [&](double q) {
    const std::size_t index =
        static_cast<std::size_t>(q * static_cast<double>(values.size() - 1) + 0.5);
    return values[std::min(index, values.size() - 1)];
  };
  stats.p50 = pick(0.50);
  stats.p99 = pick(0.99);
  stats.max = values.back();
  return stats;
}

std::string label_of(const RegionModel& model, const SpanInfo& info) {
  const auto it = model.track_names.find(info.track);
  if (it != model.track_names.end()) return it->second;
  if (info.track == kNoTrack) return "?";
  return "track" + std::to_string(info.track);
}

}  // namespace

TraceAnalysis analyze(const std::vector<TraceLine>& lines) {
  TraceAnalysis analysis;

  std::map<std::uint64_t, RegionModel> regions;
  for (const TraceLine& line : lines) {
    if (!line.error.empty()) continue;
    RegionModel& model = regions[line.region.value_or(0)];
    if (line.meta) {
      model.track_names[line.meta_track] = line.meta_name;
      continue;
    }
    ++analysis.events;
    const Event& e = line.event;
    switch (e.kind) {
      case EventKind::EpochSealed: {
        SpanInfo& info = span_slot(model, e.span, SpanCategory::Epoch);
        info.begin = e.time;
        info.has_begin = true;
        info.epoch = e.epoch;
        info.track = e.track;
        break;
      }
      case EventKind::EpochCompleted: {
        SpanInfo& info = span_slot(model, e.span, SpanCategory::Epoch);
        info.end = e.time;
        info.has_end = true;
        info.epoch = e.epoch;
        if (info.track == kNoTrack) info.track = e.track;
        break;
      }
      case EventKind::FlowLink:
        if (e.span != 0 && e.parent_span != 0) {
          span_slot(model, e.span, SpanCategory::Epoch).parent = e.parent_span;
        }
        break;
      case EventKind::TicketSubmitted: {
        SpanInfo& info = span_slot(model, e.span, SpanCategory::Ticket);
        info.begin = e.time;
        info.has_begin = true;
        info.track = e.track;
        break;
      }
      case EventKind::TicketDone: {
        SpanInfo& info = span_slot(model, e.span, SpanCategory::Ticket);
        info.end = e.time;
        info.has_end = true;
        if (info.track == kNoTrack) info.track = e.track;
        break;
      }
      case EventKind::AdaptationRequested: {
        SpanInfo& info = span_slot(model, e.span, SpanCategory::Request);
        info.begin = e.time;
        info.has_begin = true;
        info.track = e.track;
        if (e.parent_span != 0) info.parent = e.parent_span;
        break;
      }
      case EventKind::AdaptationFinished: {
        SpanInfo& info = span_slot(model, e.span, SpanCategory::Request);
        info.end = e.time;
        info.has_end = true;
        if (info.track == kNoTrack) info.track = e.track;
        if (e.parent_span != 0 && info.parent == 0) info.parent = e.parent_span;
        break;
      }
      case EventKind::BlockedWindow:
        model.blocked.push_back(&e);
        break;
      default:
        break;
    }
  }
  analysis.regions = regions.size();

  std::vector<runtime::Time> root_latencies;
  std::vector<runtime::Time> epoch_latencies;
  std::vector<runtime::Time> request_latencies;
  std::vector<runtime::Time> ticket_latencies;

  for (auto& [region, model] : regions) {
    // Link children and classify parents. A root epoch's causal parent is a
    // ticket span (or missing); an interior epoch's parent is another epoch.
    for (auto& [span, info] : model.spans) {
      if (info.parent == 0) continue;
      const auto parent = model.spans.find(info.parent);
      info.parent_is_epoch =
          parent != model.spans.end() && parent->second.category == SpanCategory::Epoch;
      if (info.parent_is_epoch) model.children[info.parent].push_back(span);
    }

    // Span levels: BFS down from each root epoch. Requests with no causal
    // parent (single-system traces) stay at level 0.
    std::map<std::uint64_t, std::size_t> level;
    for (const auto& [span, info] : model.spans) {
      if (info.category != SpanCategory::Epoch || info.parent_is_epoch) continue;
      // Root epoch: walk its subtree.
      std::vector<std::pair<std::uint64_t, std::size_t>> frontier{{span, 0}};
      while (!frontier.empty()) {
        const auto [node, depth] = frontier.back();
        frontier.pop_back();
        level[node] = depth;
        const auto kids = model.children.find(node);
        if (kids == model.children.end()) continue;
        for (const std::uint64_t child : kids->second) {
          frontier.emplace_back(child, depth + 1);
        }
      }
    }

    for (const auto& [span, info] : model.spans) {
      if (!info.has_begin || !info.has_end) continue;
      const runtime::Time latency = info.end - info.begin;
      switch (info.category) {
        case SpanCategory::Epoch: epoch_latencies.push_back(latency); break;
        case SpanCategory::Request: request_latencies.push_back(latency); break;
        case SpanCategory::Ticket: ticket_latencies.push_back(latency); break;
      }
    }

    for (const Event* e : model.blocked) {
      const auto it = level.find(e->span);
      const std::size_t l = it != level.end() ? it->second : 0;
      analysis.blocked_us_by_level[l] += e->value;
      analysis.blocked_us_total += e->value;
    }

    // Critical path per root epoch: repeatedly descend into the child whose
    // completion is latest (ties break toward the smaller span id for
    // determinism). Contributions telescope against the root's seal time.
    for (const auto& [span, info] : model.spans) {
      if (info.category != SpanCategory::Epoch || info.parent_is_epoch) continue;
      if (!info.has_begin || !info.has_end) continue;

      EpochCriticalPath path;
      path.region = region;
      path.epoch = info.epoch;
      path.span = span;
      path.sealed = info.begin;
      path.completed = info.end;
      path.latency = info.end - info.begin;
      root_latencies.push_back(path.latency);

      const SpanInfo* node = &info;
      std::size_t depth = 0;
      while (true) {
        CriticalPathNode entry;
        entry.span = node->span;
        entry.label = label_of(model, *node);
        entry.level = depth;
        entry.begin = node->begin;
        entry.end = node->end;

        const SpanInfo* critical = nullptr;
        const auto kids = model.children.find(node->span);
        if (kids != model.children.end()) {
          for (const std::uint64_t child_span : kids->second) {
            const auto child = model.spans.find(child_span);
            if (child == model.spans.end() || !child->second.has_end) continue;
            if (critical == nullptr || child->second.end > critical->end ||
                (child->second.end == critical->end && child->second.span < critical->span)) {
              critical = &child->second;
            }
          }
        }
        if (critical == nullptr) {
          entry.contribution = node->end - path.sealed;  // deepest closes the sum
          path.path.push_back(std::move(entry));
          break;
        }
        entry.contribution = node->end - critical->end;
        path.path.push_back(std::move(entry));
        node = critical;
        ++depth;
      }
      analysis.epochs.push_back(std::move(path));
    }
  }

  std::sort(analysis.epochs.begin(), analysis.epochs.end(),
            [](const EpochCriticalPath& a, const EpochCriticalPath& b) {
              if (a.region != b.region) return a.region < b.region;
              if (a.sealed != b.sealed) return a.sealed < b.sealed;
              return a.span < b.span;
            });

  analysis.latencies["root_epoch"] = stats_of(std::move(root_latencies));
  analysis.latencies["epoch"] = stats_of(std::move(epoch_latencies));
  analysis.latencies["request"] = stats_of(std::move(request_latencies));
  analysis.latencies["ticket"] = stats_of(std::move(ticket_latencies));
  return analysis;
}

namespace {

std::string json_string(std::string_view text) { return "\"" + json_escape(text) + "\""; }

std::string format_blocked(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

std::string to_json(const TraceAnalysis& analysis) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"regions\": " << analysis.regions << ",\n";
  out << "  \"events\": " << analysis.events << ",\n";

  out << "  \"latency_us\": {";
  bool first = true;
  for (const auto& [category, stats] : analysis.latencies) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    " << json_string(category) << ": {\"count\": " << stats.count
        << ", \"p50\": " << stats.p50 << ", \"p99\": " << stats.p99
        << ", \"max\": " << stats.max << "}";
  }
  out << "\n  },\n";

  out << "  \"blocked_us_total\": " << format_blocked(analysis.blocked_us_total) << ",\n";
  out << "  \"blocked_us_by_level\": {";
  first = true;
  for (const auto& [level, blocked] : analysis.blocked_us_by_level) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    \"" << level << "\": " << format_blocked(blocked);
  }
  out << (analysis.blocked_us_by_level.empty() ? "},\n" : "\n  },\n");

  out << "  \"root_epochs\": [";
  first = true;
  for (const EpochCriticalPath& epoch : analysis.epochs) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    {\"region\": " << epoch.region << ", \"epoch\": " << epoch.epoch
        << ", \"span\": " << epoch.span << ", \"sealed\": " << epoch.sealed
        << ", \"completed\": " << epoch.completed << ", \"latency_us\": " << epoch.latency
        << ", \"critical_path\": [";
    bool first_node = true;
    for (const CriticalPathNode& node : epoch.path) {
      out << (first_node ? "\n" : ",\n");
      first_node = false;
      out << "      {\"span\": " << node.span << ", \"label\": " << json_string(node.label)
          << ", \"level\": " << node.level << ", \"begin\": " << node.begin
          << ", \"end\": " << node.end << ", \"contribution_us\": " << node.contribution
          << "}";
    }
    out << (epoch.path.empty() ? "]}" : "\n    ]}");
  }
  out << (analysis.epochs.empty() ? "]\n" : "\n  ]\n");
  out << "}\n";
  return out.str();
}

}  // namespace sa::obs
