#include "proto/trace_check.hpp"

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string_view>
#include <utility>

#include "proto/core/states.hpp"

namespace sa::proto {

namespace {

using obs::EventKind;

std::string quoted(std::string_view text) { return "'" + std::string(text) + "'"; }

/// Validation state of one stream: a region, or a whole untagged trace.
struct Stream {
  std::uint64_t next_seq = 0;
  runtime::Time last_time = 0;
  bool saw_event = false;
  // Per track: the current Fig. 2 phase / Fig. 1 state by name (the names
  // live in the checked lines), and the open epoch with its latest event.
  std::map<std::int64_t, std::string_view> manager_phase, agent_state;
  std::map<std::int64_t, std::pair<std::uint64_t, EventKind>> open_epoch;
  std::set<std::uint64_t> spans;
  std::vector<std::pair<std::size_t, std::uint64_t>> parents;  ///< (line, parent span)
};

class Checker {
 public:
  std::vector<std::string> run(const std::vector<obs::TraceLine>& lines) {
    std::size_t events = 0;
    for (const obs::TraceLine& line : lines) {
      line_ = line.line;
      if (!line.error.empty()) {
        flag(line.error);
        continue;
      }
      Stream& stream = streams_[line.region];
      if (line.meta) {
        require(!line.meta_name.empty(), "track_name meta line without a name");
        require(!stream.saw_event, "track_name meta line after the stream's events began");
        continue;
      }
      ++events;
      stream.saw_event = true;
      event(line.event, stream);
    }
    if (events == 0) out_.push_back("empty trace");
    for (const auto& [region, stream] : streams_) finish(region, stream);

    const obs::TraceAnalysis analysis = obs::analyze(lines);
    for (const obs::EpochCriticalPath& epoch : analysis.epochs) {
      runtime::Time sum = 0;
      for (const obs::CriticalPathNode& node : epoch.path) sum += node.contribution;
      if (sum == epoch.latency) continue;
      out_.push_back("region " + std::to_string(epoch.region) + " epoch " +
                     std::to_string(epoch.epoch) + ": critical path sums to " +
                     std::to_string(sum) + " us but root latency is " +
                     std::to_string(epoch.latency) + " us");
    }
    const bool tagged = !streams_.empty() && streams_.rbegin()->first.has_value();
    if (tagged && analysis.epochs.empty()) out_.push_back("region-tagged trace without root epochs");
    return std::move(out_);
  }

 private:
  void flag(const std::string& what) {
    out_.push_back("line " + std::to_string(line_) + ": " + what);
  }
  void require(bool ok, const std::string& what) {
    if (!ok) flag(what);
  }

  void event(const obs::Event& e, Stream& stream) {
    require(e.seq == stream.next_seq, "seq " + std::to_string(e.seq) + " is not dense (expected " +
                                          std::to_string(stream.next_seq) + ")");
    stream.next_seq = e.seq + 1;
    require(e.time >= 0, "bad timestamp " + std::to_string(e.time));
    require(e.time >= stream.last_time, "timestamp went backwards");
    stream.last_time = e.time;
    if (e.span != 0) stream.spans.insert(e.span);
    if (e.parent_span != 0) stream.parents.emplace_back(line_, e.parent_span);

    const std::string kind(obs::to_string(e.kind));
    if (obs::is_message_event(e.kind)) {
      require(e.from != e.to, "message event with from == to == " + std::to_string(e.from));
      require(!e.name.empty(), "message event without a message type name");
    }
    switch (e.kind) {
      case EventKind::TimerArmed:
      case EventKind::TimerFired:
      case EventKind::TimerCancelled:
        require(!e.name.empty(), "timer event without a label");
        break;
      case EventKind::ManagerPhase:
        transition(e, stream.manager_phase, manager_phase_from_string, "Fig. 2");
        break;
      case EventKind::AgentState:
        require(e.track >= 0, "agent_state event without a non-negative track");
        if (e.track >= 0) transition(e, stream.agent_state, agent_state_from_string, "Fig. 1");
        break;
      case EventKind::CoordinatorPhase:
        require(e.track != obs::kNoTrack, "coordinator_phase event without a track");
        require(!e.name.empty(), "coordinator_phase event without a phase name");
        break;
      case EventKind::EpochOpened:
      case EventKind::EpochSealed:
      case EventKind::EpochCompleted:
        require(e.track != obs::kNoTrack, kind + " event without a track");
        require(e.epoch >= 1, kind + " event without an epoch number");
        if (e.track != obs::kNoTrack && e.epoch >= 1) epoch(e, stream.open_epoch);
        break;
      case EventKind::TicketSubmitted:
      case EventKind::TicketDone:
        require(e.span != 0, kind + " event without the ticket's span id");
        break;
      case EventKind::FlowLink:
        require(e.span != 0 && e.parent_span != 0, "flow_link event without span/parent ids");
        require(e.span == 0 || e.span != e.parent_span,
                "flow_link event linking span " + std::to_string(e.span) + " to itself");
        break;
      case EventKind::BlockedWindow:
        require(e.has_value && e.value >= 0, "blocked_window event without a non-negative duration");
        break;
      default:
        break;
    }
  }

  /// One Fig. 1 / Fig. 2 event: it must leave the track's current state and
  /// follow an edge of the automaton; the track moves to its target.
  template <typename State>
  void transition(const obs::Event& e, std::map<std::int64_t, std::string_view>& current,
                  std::optional<State> (*parse)(std::string_view), const char* figure) {
    std::string_view& state = current.try_emplace(e.track, "running").first->second;
    require(e.detail == state, "track " + std::to_string(e.track) + " chain broken: trace says " +
                                   quoted(e.detail) + " -> " + quoted(e.name) +
                                   " but the track is in " + quoted(state));
    const std::optional<State> from = parse(e.detail);
    const std::optional<State> to = parse(e.name);
    require(from && to && is_transition(*from, *to), std::string("illegal ") + figure +
                                                         " transition " + quoted(e.detail) +
                                                         " -> " + quoted(e.name));
    state = e.name;
  }

  /// Epochs go opened -> sealed -> completed per track, one at a time.
  void epoch(const obs::Event& e, std::map<std::int64_t, std::pair<std::uint64_t, EventKind>>& open) {
    const std::string where = "epoch " + std::to_string(e.epoch) + " on track " +
                              std::to_string(e.track);
    const auto it = open.find(e.track);
    if (e.kind == EventKind::EpochOpened) {
      require(it == open.end(), where + " opened while epoch " +
                                    std::to_string(it == open.end() ? 0 : it->second.first) +
                                    " is still open (epochs must not interleave per track)");
    } else {
      const EventKind before =
          e.kind == EventKind::EpochSealed ? EventKind::EpochOpened : EventKind::EpochSealed;
      require(it != open.end() && it->second == std::pair{e.epoch, before},
              std::string(obs::to_string(e.kind)) + " of " + where + " does not follow its " +
                  std::string(obs::to_string(before)));
    }
    if (e.kind == EventKind::EpochCompleted) {
      if (it != open.end()) open.erase(it);
    } else {
      open[e.track] = {e.epoch, e.kind};
    }
  }

  void finish(const std::optional<std::uint64_t>& region, const Stream& stream) {
    for (const auto& [line, parent] : stream.parents) {
      line_ = line;
      require(stream.spans.count(parent) != 0,
              "dangling causal edge: parent span " + std::to_string(parent) + " is no event's span");
    }
    const std::string where = region ? "region " + std::to_string(*region) : "trace";
    for (const auto& [states, entity] : {std::pair{&stream.manager_phase, "manager"},
                                         std::pair{&stream.agent_state, "agent"}}) {
      for (const auto& [track, state] : *states) {
        if (state == "running") continue;
        out_.push_back(where + ": ends with the " + entity + " on track " + std::to_string(track) +
                       " in " + quoted(state) + ", expected 'running'");
      }
    }
    for (const auto& [track, open] : stream.open_epoch) {
      out_.push_back(where + ": ends with epoch " + std::to_string(open.first) + " on track " +
                     std::to_string(track) + " still open");
    }
  }

  std::map<std::optional<std::uint64_t>, Stream> streams_;
  std::size_t line_ = 0;  ///< the line being checked
  std::vector<std::string> out_;
};

}  // namespace

std::vector<std::string> check_stream(const std::vector<obs::TraceLine>& lines) {
  return Checker().run(lines);
}

}  // namespace sa::proto
