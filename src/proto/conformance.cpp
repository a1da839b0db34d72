#include "proto/conformance.hpp"

#include <algorithm>

namespace sa::proto {

std::pair<SafetyMonitor::StepRecord*, SafetyMonitor::AgentMarks*> SafetyMonitor::marks_for(
    runtime::NodeId manager, const StepRef& ref, runtime::NodeId agent) {
  // Newest-first: nearly every lookup targets the current step attempt.
  std::size_t index = steps_.size();
  while (index > 0 && !(steps_[index - 1].manager == manager && steps_[index - 1].ref == ref)) {
    --index;
  }
  if (index == 0) {
    steps_.push_back(StepRecord{manager, false, false, ref});
    index = steps_.size();
  }
  const auto step = static_cast<std::uint32_t>(index - 1);
  for (std::size_t i = marks_.size(); i > 0; --i) {
    AgentMarks& marks = marks_[i - 1];
    if (marks.step == step && marks.agent == agent) return {&steps_[step], &marks};
  }
  return {&steps_[step], &marks_.emplace_back(AgentMarks{step, agent, 0})};
}

void SafetyMonitor::on_send(runtime::Time time, runtime::NodeId manager, runtime::NodeId agent,
                            const runtime::Message& message,
                            std::vector<SafetyViolation>& out) {
  const auto* proto = as_proto(&message);
  if (proto == nullptr) return;
  const auto [step, marks] = marks_for(manager, proto->step, agent);
  const auto violate = [&](const char* what, runtime::NodeId about, const char* rule) {
    out.push_back(SafetyViolation{time, "manager " + std::to_string(manager) + " " +
                                            proto->step.describe() + ": " + what + " agent " +
                                            std::to_string(about) + " " + rule});
  };
  const auto early_resume = [&](AgentMarks& early) {
    early.marks |= kEarlyResumeReported;
    violate("resume before the adapt done of", early.agent, "arrived (§4.3 global safe state)");
  };
  switch (proto->kind()) {
    case MsgKind::Reset:
      marks->marks |= kReset;
      return;
    case MsgKind::Resume:
      if (!step->resumed) {
        // §4.3 is global: the step's first resume, whoever it goes to, needs
        // the adapt done of every agent reset for the step.
        step->resumed = true;
        for (AgentMarks& other : marks_) {
          if (other.step == marks->step && (other.marks & (kReset | kAdaptDone)) == kReset) {
            early_resume(other);
          }
        }
      }
      if ((marks->marks & kResume) != 0) return;  // a retransmission: already judged
      marks->marks |= kResume;
      if ((marks->marks & (kAdaptDone | kEarlyResumeReported)) == 0) early_resume(*marks);
      if (step->rolled_back) {
        violate("resume to", agent,
                "after the step's rollback (§4.4: rollback and resume are exclusive)");
      }
      return;
    case MsgKind::Rollback:
      step->rolled_back = true;
      if ((marks->marks & kRollback) != 0) return;
      marks->marks |= kRollback;
      if (step->resumed) {
        violate("rollback to", agent, "after the step's resume (§4.4 run-to-completion)");
      }
      return;
    default:
      return;  // agent -> manager kinds
  }
}

void SafetyMonitor::on_receive(runtime::Time time, runtime::NodeId manager,
                               runtime::NodeId agent, const runtime::Message& message,
                               std::vector<SafetyViolation>& out) {
  const auto* proto = as_proto(&message);
  if (proto == nullptr) return;
  std::uint8_t& marks = marks_for(manager, proto->step, agent).second->marks;
  const auto violate = [&](const std::string& what) {
    out.push_back(SafetyViolation{time, "manager " + std::to_string(manager) + " " +
                                            proto->step.describe() + ": agent " +
                                            std::to_string(agent) + " sent " + what});
  };
  switch (proto->kind()) {
    case MsgKind::AdaptDone:
    case MsgKind::ResumeDone:
      marks |= kAdaptDone;
      [[fallthrough]];
    case MsgKind::ResetDone:
      if ((marks & (kReset | kProgressReported)) == 0) {
        marks |= kProgressReported;
        violate(message.type_name() + " without having received a reset");
      }
      return;
    case MsgKind::RollbackDone:
      if ((marks & (kReset | kRollback | kRollbackDoneReported)) == kReset) {
        marks |= kRollbackDoneReported;
        violate("rollback done without a rollback command");
      }
      return;
    default:
      return;  // manager -> agent kinds
  }
}

void SafetyMonitor::on_link(runtime::Time time, runtime::NodeId from, runtime::NodeId to,
                            const CoordMessage& message, std::vector<SafetyViolation>& out) {
  const auto find = [this, &message](runtime::NodeId a, runtime::NodeId b) -> EpochRecord* {
    for (EpochRecord& record : epochs_) {
      if (record.from == a && record.to == b && record.epoch == message.epoch) return &record;
    }
    return nullptr;
  };
  const auto violate = [&](const std::string& what) {
    out.push_back(SafetyViolation{time, "link " + std::to_string(from) + "->" +
                                            std::to_string(to) + ": epoch " +
                                            std::to_string(message.epoch) + " " + what});
  };
  // An epoch done answers a commit on the reverse link.
  if (message.kind() != CoordMsgKind::EpochCommit) {
    if (find(to, from) == nullptr && find(from, to) == nullptr) {
      epochs_.push_back(EpochRecord{from, to, message.epoch, {}, true});
      violate("done, but that epoch was never committed");
    }
    return;
  }
  const auto& commit = static_cast<const EpochCommitMsg&>(message);
  if (EpochRecord* seen = find(from, to)) {
    // The same slices in any wire order are a re-send, not a new commit.
    if (!seen->reported && !std::is_permutation(seen->targets.begin(), seen->targets.end(),
                                                commit.targets.begin(), commit.targets.end())) {
      seen->reported = true;
      violate("committed twice with different targets (out-of-epoch commit)");
    }
    return;
  }
  std::uint64_t max_epoch = 0;
  for (const EpochRecord& record : epochs_) {
    if (record.from == from && record.to == to) max_epoch = std::max(max_epoch, record.epoch);
  }
  if (message.epoch < max_epoch) {
    violate("committed after epoch " + std::to_string(max_epoch) +
            " (epoch numbers must not regress)");
  }
  epochs_.push_back(EpochRecord{from, to, message.epoch, commit.targets, false});
}

std::vector<SafetyViolation> check_trace(const std::vector<runtime::TraceEntry>& trace,
                                         const std::vector<runtime::NodeId>& managers) {
  const auto is_manager = [&managers](runtime::NodeId node) {
    return std::find(managers.begin(), managers.end(), node) != managers.end();
  };
  SafetyMonitor monitor;
  std::vector<SafetyViolation> violations;
  for (const runtime::TraceEntry& entry : trace) {
    if (!entry.delivered || !entry.message) continue;
    if (const auto* coord = as_coord(entry.message.get())) {
      monitor.on_link(entry.time, entry.from, entry.to, *coord, violations);
    } else if (is_manager(entry.from)) {
      monitor.on_send(entry.time, entry.from, entry.to, *entry.message, violations);
    } else if (is_manager(entry.to)) {
      monitor.on_receive(entry.time, entry.to, entry.from, *entry.message, violations);
    }
  }
  return violations;
}

std::vector<std::string> outcome_violations(std::string_view outcome,
                                            const config::Configuration& final_config,
                                            const config::Configuration& source,
                                            const config::Configuration& target,
                                            const config::ComponentRegistry& registry) {
  std::vector<std::string> violations;
  const bool success = outcome == to_string(AdaptationOutcome::Success);
  const bool at_source = outcome == to_string(AdaptationOutcome::NoPathFound) ||
                         outcome == to_string(AdaptationOutcome::RolledBackToSource);
  if ((success && !(final_config == target)) || (at_source && !(final_config == source))) {
    violations.push_back(std::string(outcome) + " but final configuration is " +
                         final_config.describe(registry) + ", not the " +
                         (success ? "target" : "source"));
  }
  return violations;
}

std::vector<std::string> outcome_agent_violations(std::string_view outcome,
                                                  const std::vector<std::string>& not_running) {
  std::vector<std::string> violations;
  if (outcome != to_string(AdaptationOutcome::Success)) return violations;
  for (const std::string& agent : not_running) {
    violations.push_back(std::string(outcome) + " but agent " + agent + " is not running");
  }
  return violations;
}

}  // namespace sa::proto
