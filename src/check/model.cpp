#include "check/model.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <utility>

#include "proto/effects.hpp"
#include "util/hash.hpp"

namespace sa::check {

namespace {

using util::hash_mix;

/// A core step's output buffer, owned per thread: one per nesting depth,
/// because applying an agent's outputs can step the same agent again (a
/// ProcessPrepare completes synchronously into PrepareSucceeded) while the
/// outer list is still being read. Buffers keep their capacity, so a step
/// allocates only the messages its core sends.
class OutputSink {
 public:
  OutputSink() : outputs(acquire()) {}
  ~OutputSink() { --depth(); }
  OutputSink(const OutputSink&) = delete;
  OutputSink& operator=(const OutputSink&) = delete;

  std::vector<proto::Output>& outputs;

 private:
  static std::size_t& depth() {
    thread_local std::size_t current = 0;
    return current;
  }
  static std::vector<proto::Output>& acquire() {
    thread_local std::deque<std::vector<proto::Output>> buffers;  // stable addresses
    std::size_t& d = depth();
    if (d == buffers.size()) buffers.emplace_back();
    return buffers[d++];
  }
};

/// Seed of the cached per-core sub-fingerprints.
constexpr std::uint64_t kCoreSeed = ManagerTable::kFingerprintSeed;

/// Seed of an agent's sub in the canonical fingerprint, followed by the
/// agent's static role and fault flag.
std::uint64_t canonical_sub_seed(std::uint64_t role_fp, bool fail_to_reset) {
  std::uint64_t sub = 0x9ae16a3b2f90404fULL;
  hash_mix(sub, role_fp);
  hash_mix(sub, fail_to_reset);
  return sub;
}

/// The model's one manager as the safety monitor keys it (no agent shares it).
constexpr runtime::NodeId kManagerNode = ChoiceFootprint::kEntityManager;

}  // namespace

const char* to_string(Choice::Kind kind) {
  switch (kind) {
    case Choice::Kind::Deliver: return "deliver";
    case Choice::Kind::Drop: return "drop";
    case Choice::Kind::Duplicate: return "duplicate";
    case Choice::Kind::Fire: return "fire";
  }
  return "?";
}

Model::Model(const Scenario& scenario, Limits limits, proto::ManagerFault fault)
    : scenario_(&scenario), limits_(limits), table_(*scenario.registry),
      drops_left_(limits.drop_budget), dups_left_(limits.dup_budget) {
  proto::ManagerCore manager(*scenario.invariants, *scenario.actions, *scenario.planner,
                             scenario.manager_config);
  manager.inject_fault(fault);
  manager.set_current_configuration(scenario.source);
  agents_.reserve(scenario.stages.size());
  // Ascending process ids (a std::map), so an agent's slot here is its slot
  // in the manager table.
  for (const auto& [process, stage] : scenario.stages) {
    if (process >= 64) {
      throw std::invalid_argument("Model: process ids must be < 64 (bitmask bookkeeping)");
    }
    manager.register_agent(process, stage);
    AgentEntity entity(scenario.agent_config);
    entity.stage = stage;
    entity.role_fp = 0x100000001b3ULL;
    hash_mix(entity.role_fp, static_cast<std::uint64_t>(stage));
    // Hosted components are part of the role: agents are interchangeable only
    // if the manager would send them identical reset commands, and commands
    // are derived from the components each process hosts.
    for (config::ComponentId id = 0; id < scenario.registry->size(); ++id) {
      const config::ComponentInfo& info = scenario.registry->info(id);
      if (info.process == process) hash_mix(entity.role_fp, info.name);
    }
    entity.sub_seed = canonical_sub_seed(entity.role_fp, entity.fail_to_reset);
    agents_.emplace_back(process, std::move(entity));
  }
  manager_ = table_->managers.intern(manager);
}

std::uint8_t Model::slot_of(config::ProcessId process) const {
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    if (agents_[i].first == process) return static_cast<std::uint8_t>(i);
  }
  throw std::out_of_range("Model: unknown process " + std::to_string(process));
}

Model::AgentEntity& Model::agent_at(config::ProcessId process) {
  return agents_[slot_of(process)].second;
}

const Model::AgentEntity& Model::agent_at(config::ProcessId process) const {
  return agents_[slot_of(process)].second;
}

void Model::send(bool to_manager, std::uint8_t slot, MessageTable::Handle message) {
  InFlight m;
  m.seq = next_seq_++;
  m.deliver_at = now_ + scenario_->latency;
  m.msg_fp = table_->messages.fingerprint(message);
  m.message = message;
  m.agent = static_cast<std::uint8_t>(agents_[slot].first);
  m.slot = slot;
  m.to_manager = to_manager;
  append_in_flight(m);
}

void Model::append_in_flight(const InFlight& m) {
  in_flight_.push_back(m);
  AgentEntity& entity = agents_[m.slot].second;
  hash_mix(entity.channel_fp[m.to_manager], m.msg_fp);
  if (entity.channel_len[m.to_manager]++ == 0) ++open_channels_;
}

void Model::remove_in_flight(std::size_t index) {
  const std::uint8_t slot = in_flight_[index].slot;
  const bool to_manager = in_flight_[index].to_manager;
  AgentEntity& entity = agents_[slot].second;
  std::uint32_t left = --entity.channel_len[to_manager];
  if (left == 0) --open_channels_;
  in_flight_.erase(in_flight_.begin() + index);
  // A FIFO removal takes the channel's head, so the rest of the channel
  // follows `index` in creation order; under reordering it may have been
  // taken from the middle, and the channel is re-hashed from the start.
  // Either way the scan stops at the channel's last message.
  std::uint64_t h = kChannelSeed;
  for (std::size_t i = limits_.reorder ? 0 : index; left > 0 && i < in_flight_.size(); ++i) {
    const InFlight& m = in_flight_[i];
    if (m.slot == slot && m.to_manager == to_manager) {
      hash_mix(h, m.msg_fp);
      --left;
    }
  }
  entity.channel_fp[to_manager] = h;
}

void Model::set_fail_to_reset(config::ProcessId process, bool fail) {
  AgentEntity& entity = agent_at(process);
  entity.core.set_fail_to_reset(fail);
  entity.fail_to_reset = fail;  // AgentCore::fingerprint skips config flags
  entity.sub_seed = canonical_sub_seed(entity.role_fp, fail);
}

void Model::set_record_transitions(bool record) {
  record_transitions_ = record;
  if (!record) std::vector<obs::Event>().swap(transitions_);
}

void Model::start() {
  started_ = now_;
  step_manager(proto::ManagerInput{proto::ManagerInput::AdaptCommand{scenario_->target}},
               std::nullopt);
}

void Model::step_manager(const proto::ManagerInput& input,
                         std::optional<std::uint64_t> memo_input) {
  ManagerTable& managers = table_->managers;
  if (memo_input && !record_transitions_) {
    if (const ManagerTable::Step* step = managers.find(manager_, *memo_input)) {
      apply_manager_step(step->next, step->effects);
      return;
    }
  }
  const OutputSink sink;
  ManagerTable::Effects effects;
  const ManagerTable::Handle next =
      managers.run(manager_, input, table_->messages, sink.outputs, effects);
  if (record_transitions_) {
    for (const proto::Output& out : sink.outputs) {
      if (out.kind == proto::OutputKind::Transition) {
        record_transition(obs::EventKind::ManagerPhase, out, obs::kManagerTrack);
      }
    }
  } else if (memo_input) {
    managers.record(manager_, *memo_input, next, effects);
  }
  apply_manager_step(next, effects);
}

void Model::step_agent(config::ProcessId process, const proto::AgentInput& input) {
  AgentEntity& entity = agent_at(process);
  entity.core_fp_valid = false;
  const OutputSink sink;
  entity.core.step(input, sink.outputs);
  apply_agent_outputs(process, sink.outputs);
}

bool Model::deliverable(const InFlight& m) const {
  if (limits_.reorder) return true;
  // FIFO per directed channel: deliverable iff no older in-flight message
  // shares the channel. in_flight_ is kept in creation order.
  for (const InFlight& other : in_flight_) {
    if (other.seq == m.seq) return true;  // m itself is the oldest
    if (other.to_manager == m.to_manager && other.agent == m.agent) return false;
  }
  return true;
}

template <typename Visit>
void Model::for_each_deliverable(Visit&& visit) const {
  if (limits_.reorder) {
    for (const InFlight& m : in_flight_) visit(m);
    return;
  }
  // FIFO per directed channel: only a channel's oldest in-flight message is
  // deliverable. in_flight_ is kept in creation order, so one pass that marks
  // each channel as its head goes by finds every head, and it can stop once
  // it has found a head for every open channel.
  std::uint64_t to_manager_seen = 0;
  std::uint64_t to_agent_seen = 0;
  std::uint32_t heads_left = open_channels_;
  for (const InFlight* m = in_flight_.begin(); heads_left > 0; ++m) {
    std::uint64_t& seen = m->to_manager ? to_manager_seen : to_agent_seen;
    const std::uint64_t channel = std::uint64_t{1} << m->agent;  // ids are < 64
    if ((seen & channel) != 0) continue;
    seen |= channel;
    --heads_left;
    visit(*m);
  }
}

std::vector<Choice> Model::choices() const {
  std::vector<Choice> result;
  choices(result);
  return result;
}

void Model::choices(std::vector<Choice>& out) const {
  out.clear();
  for_each_deliverable([this, &out](const InFlight& m) {
    out.push_back(Choice{Choice::Kind::Deliver, m.seq});
    if (drops_left_ > 0) out.push_back(Choice{Choice::Kind::Drop, m.seq});
    if (dups_left_ > 0) out.push_back(Choice{Choice::Kind::Duplicate, m.seq});
  });
  auto add_timer = [&out](const TimerSlot& slot) {
    if (slot.armed) out.push_back(Choice{Choice::Kind::Fire, slot.seq});
  };
  add_timer(mgr_protocol_);
  add_timer(mgr_stage_);
  for (const auto& [process, entity] : agents_) add_timer(entity.timer);
}

std::optional<Choice> Model::sim_choice() const {
  std::optional<Choice> best;
  runtime::Time best_time = 0;
  std::uint64_t best_seq = 0;
  auto consider = [&](Choice::Kind kind, std::uint64_t seq, runtime::Time due) {
    if (!best || due < best_time || (due == best_time && seq < best_seq)) {
      best = Choice{kind, seq};
      best_time = due;
      best_seq = seq;
    }
  };
  for_each_deliverable(
      [&consider](const InFlight& m) { consider(Choice::Kind::Deliver, m.seq, m.deliver_at); });
  auto consider_timer = [&consider](const TimerSlot& slot) {
    if (slot.armed) consider(Choice::Kind::Fire, slot.seq, slot.deadline);
  };
  consider_timer(mgr_protocol_);
  consider_timer(mgr_stage_);
  for (const auto& [process, entity] : agents_) consider_timer(entity.timer);
  return best;
}

bool Model::apply(const Choice& choice) {
  if (choice.kind == Choice::Kind::Fire) {
    auto fire = [this, &choice](TimerSlot& slot) {
      if (!slot.armed || slot.seq != choice.seq) return false;
      slot.armed = false;
      now_ = std::max(now_, slot.deadline);
      return true;
    };
    for (const proto::ManagerTimer timer :
         {proto::ManagerTimer::Protocol, proto::ManagerTimer::StageDelay}) {
      if (fire(timer == proto::ManagerTimer::Protocol ? mgr_protocol_ : mgr_stage_)) {
        step_manager(proto::ManagerInput{proto::ManagerInput::TimerFired{timer}},
                     ManagerTable::timer_input(timer));
        return true;
      }
    }
    for (auto& [process, entity] : agents_) {
      if (fire(entity.timer)) {
        step_agent(process, proto::AgentInput{now_, proto::AgentInput::TimerFired{}});
        return true;
      }
    }
    return false;
  }

  const auto it = std::find_if(in_flight_.begin(), in_flight_.end(),
                               [&choice](const InFlight& m) { return m.seq == choice.seq; });
  if (it == in_flight_.end() || !deliverable(*it)) return false;
  const auto index = static_cast<std::size_t>(it - in_flight_.begin());
  switch (choice.kind) {
    case Choice::Kind::Deliver: {
      const InFlight m = *it;
      remove_in_flight(index);
      now_ = std::max(now_, m.deliver_at);
      deliver(m);
      return true;
    }
    case Choice::Kind::Drop:
      if (drops_left_ <= 0) return false;
      --drops_left_;
      remove_in_flight(index);
      return true;
    case Choice::Kind::Duplicate: {
      if (dups_left_ <= 0) return false;
      --dups_left_;
      InFlight copy = *it;  // the same table entry (and hash)
      copy.seq = next_seq_++;
      copy.deliver_at = now_ + scenario_->latency;
      append_in_flight(copy);
      return true;
    }
    case Choice::Kind::Fire: break;  // handled above
  }
  return false;
}

void Model::deliver(const InFlight& m) {
  const runtime::MessagePtr& message = table_->messages.message(m.message);
  if (m.to_manager) {
    monitor_.on_receive(now_, kManagerNode, m.agent, *message, violations_);
    step_manager(proto::ManagerInput{proto::ManagerInput::MessageDelivered{m.agent, &message}},
                 ManagerTable::delivery_input(m.agent, m.message));
  } else {
    step_agent(m.agent, proto::AgentInput{now_, proto::AgentInput::MessageDelivered{&message}});
  }
}

void Model::apply_manager_step(ManagerTable::Handle next,
                               std::span<const ManagerTable::Effect> effects) {
  using Effect = ManagerTable::Effect;
  manager_ = next;
  for (const Effect& effect : effects) {
    switch (effect.kind) {
      case Effect::Kind::Send:
        monitor_.on_send(now_, kManagerNode, agents_[effect.slot].first,
                         *table_->messages.message(effect.message), violations_);
        send(false, effect.slot, effect.message);
        break;
      case Effect::Kind::ArmTimer: {
        TimerSlot& slot =
            effect.timer == proto::ManagerTimer::Protocol ? mgr_protocol_ : mgr_stage_;
        slot.armed = true;
        slot.deadline = now_ + effect.delay;
        slot.seq = next_seq_++;
        break;
      }
      case Effect::Kind::DisarmTimer:
        (effect.timer == proto::ManagerTimer::Protocol ? mgr_protocol_ : mgr_stage_).armed =
            false;
        break;
      case Effect::Kind::Commit:
        // safe_configs lists every safe configuration, ascending, so a
        // binary search judges the step without evaluating any invariant.
        if (!std::binary_search(scenario_->safe_configs.begin(), scenario_->safe_configs.end(),
                                effect.config)) {
          std::string names;
          for (const auto& name : scenario_->invariants->violations(effect.config)) {
            if (!names.empty()) names += ", ";
            names += name;
          }
          violation("step " + effect.ref.describe() + " committed unsafe configuration " +
                    effect.config.describe(*scenario_->registry) + " (violates: " + names + ")");
        }
        break;
      case Effect::Kind::Outcome:
        // The core holds no time; the model stamps the verdict with its clock.
        outcome_ = table_->managers.core(manager_).summary();
        outcome_->started = started_;
        outcome_->finished = now_;
        // Judged here, not at quiescence: a depth-capped schedule never
        // reaches finalize().
        for (std::string& what : proto::outcome_violations(
                 to_string(outcome_->outcome), outcome_->final_config, scenario_->source,
                 scenario_->target, *scenario_->registry)) {
          violation(std::move(what));
        }
        break;
    }
  }
}

void Model::dispatch_agent_local(config::ProcessId process, proto::AgentLocalEvent event) {
  step_agent(process, proto::AgentInput{now_, event});
}

void Model::apply_agent_outputs(config::ProcessId process,
                                const std::vector<proto::Output>& outputs) {
  const std::uint8_t slot = slot_of(process);
  AgentEntity& entity = agents_[slot].second;
  for (const proto::Output& out : outputs) {
    switch (out.kind) {
      case proto::OutputKind::Send:
        send(true, slot, table_->messages.intern(out.message));
        break;
      case proto::OutputKind::ArmTimer:
        entity.timer.armed = true;
        entity.timer.deadline = now_ + out.delay;
        entity.timer.seq = next_seq_++;
        break;
      case proto::OutputKind::DisarmTimer:
        entity.timer.armed = false;
        break;
      case proto::OutputKind::Transition:
        if (record_transitions_) {
          record_transition(obs::EventKind::AgentState, out, static_cast<std::int64_t>(process));
        }
        break;
      case proto::OutputKind::ProcessPrepare:
        dispatch_agent_local(process, proto::AgentLocalEvent::PrepareSucceeded);
        break;
      case proto::OutputKind::ProcessReachSafe:
        entity.blocked = true;
        dispatch_agent_local(process, proto::AgentLocalEvent::SafeStateReached);
        break;
      case proto::OutputKind::ProcessAbortSafe:
        entity.blocked = false;
        break;
      case proto::OutputKind::ProcessApply:
        if (!entity.blocked) {
          violation("in-action for step " + out.ref.describe() + " executed on process " +
                    std::to_string(process) + " outside its safe state");
        }
        dispatch_agent_local(process, proto::AgentLocalEvent::ApplySucceeded);
        break;
      case proto::OutputKind::ProcessUndo:
        if (!entity.blocked) {
          violation("undo for step " + out.ref.describe() + " executed on process " +
                    std::to_string(process) + " outside its safe state");
        }
        break;
      case proto::OutputKind::ProcessResume:
        entity.blocked = false;
        break;
      default:
        break;  // cleanup and duplicate notes carry no model state
    }
  }
}

void Model::record_transition(obs::EventKind kind, const proto::Output& out,
                              std::int64_t track) {
  obs::Event e = proto::transition_event(kind, out, kManagerNode);
  e.seq = transitions_.size();
  e.time = now_;
  e.track = track;
  transitions_.push_back(std::move(e));
}

void Model::finalize() {
  if (!outcome_) {
    violation("run quiesced without a terminal adaptation outcome (deadlock)");
    return;
  }
  std::vector<std::string> not_running;
  for (const auto& [process, entity] : agents_) {
    if (entity.blocked || entity.core.state() != proto::AgentState::Running) {
      not_running.push_back(std::to_string(process));
    }
  }
  for (std::string& what : proto::outcome_agent_violations(to_string(outcome_->outcome),
                                                            not_running)) {
    violation(std::move(what));
  }
}

void Model::violation(std::string description) {
  violations_.push_back(Violation{now_, std::move(description)});
}

std::uint64_t Model::agent_core_fp(const AgentEntity& entity) const {
  if (!entity.core_fp_valid) {
    entity.core_fp = kCoreSeed;
    entity.core.fingerprint(entity.core_fp);
    entity.core_fp_valid = true;
  }
  return entity.core_fp;
}

std::uint64_t Model::fingerprint() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  hash_mix(h, table_->managers.keys(manager_).fingerprint);
  hash_mix(h, mgr_protocol_.armed);
  hash_mix(h, mgr_stage_.armed);
  for (const auto& [process, entity] : agents_) {
    hash_mix(h, process);
    hash_mix(h, agent_core_fp(entity));
    hash_mix(h, entity.blocked);
    hash_mix(h, entity.timer.armed);
  }
  for (const InFlight& m : in_flight_) {
    hash_mix(h, m.to_manager);
    hash_mix(h, m.agent);
    hash_mix(h, m.msg_fp);
  }
  hash_mix(h, static_cast<std::uint64_t>(drops_left_));
  hash_mix(h, static_cast<std::uint64_t>(dups_left_));
  hash_mix(h, outcome_.has_value());
  // The safety monitor is intentionally not mixed in: it only records the
  // manager's own sends and receives, so for the current step it is a
  // function of the manager core's per-step state (involved set, acks, resume
  // flag), and completed steps can never influence future sends.
  return h;
}

std::uint64_t Model::canonical_fingerprint() const {
  const ManagerTable::Keys& manager = table_->managers.keys(manager_);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  hash_mix(h, manager.shared);
  hash_mix(h, mgr_protocol_.armed);
  hash_mix(h, mgr_stage_.armed);
  // Each agent's sub carries both of its directed channels, in FIFO order.
  // Hashing per channel (instead of the global creation-order walk
  // fingerprint() does) also erases the interleaving of sends on *distinct*
  // channels — already unobservable, since delivery order across channels is
  // unconstrained. The subs are insertion-sorted as they are made, in an
  // inline array that holds eight agents before it spills.
  util::SmallVector<std::uint64_t, 8> subs;
  for (std::size_t slot = 0; slot < agents_.size(); ++slot) {
    const AgentEntity& entity = agents_[slot].second;
    std::uint64_t sub = entity.sub_seed;
    hash_mix(sub, agent_core_fp(entity));
    hash_mix(sub, entity.blocked);
    hash_mix(sub, entity.timer.armed);
    // The agent's slice of the manager's per-process bookkeeping travels with
    // the agent, not with the manager: a permutation of agents permutes these
    // bits the same way it permutes core states, so the sorted representative
    // stays consistent.
    hash_mix(sub, manager.process_bits[slot]);
    hash_mix(sub, entity.channel_fp[0]);  // to the agent
    hash_mix(sub, entity.channel_fp[1]);  // to the manager
    subs.push_back(sub);
    for (std::size_t j = subs.size() - 1; j > 0 && subs[j - 1] > sub; --j) {
      subs[j] = subs[j - 1];
      subs[j - 1] = sub;
    }
  }
  for (const std::uint64_t sub : subs) hash_mix(h, sub);
  hash_mix(h, static_cast<std::uint64_t>(drops_left_));
  hash_mix(h, static_cast<std::uint64_t>(dups_left_));
  hash_mix(h, outcome_.has_value());
  return h;
}

void Model::choice_footprints(std::vector<ChoiceFootprint>& out) const {
  out.clear();
  for_each_deliverable([this, &out](const InFlight& m) {
    ChoiceFootprint fp;
    fp.channel_agent = m.agent;
    fp.channel_to_manager = m.to_manager;
    fp.content = m.msg_fp;
    fp.role = agents_[m.slot].second.role_fp;
    const auto add = [&out, &fp, &m](Choice::Kind kind, std::uint8_t entity) {
      fp.choice = Choice{kind, m.seq};
      fp.kind = kind;
      fp.entity = entity;
      out.push_back(fp);
    };
    add(Choice::Kind::Deliver, m.to_manager ? ChoiceFootprint::kEntityManager : m.agent);
    // Drop / Duplicate step no core.
    if (drops_left_ > 0) add(Choice::Kind::Drop, ChoiceFootprint::kEntityNone);
    if (dups_left_ > 0) add(Choice::Kind::Duplicate, ChoiceFootprint::kEntityNone);
  });
  // Timer slot classes: 0 = manager protocol, 1 = manager stage delay,
  // 2 = agent retransmission timer (role distinguishes which kind of agent).
  const auto add_timer = [&out](const TimerSlot& slot, std::uint8_t entity, std::uint64_t content,
                                std::uint64_t role) {
    if (!slot.armed) return;
    ChoiceFootprint fp;
    fp.choice = Choice{Choice::Kind::Fire, slot.seq};
    fp.kind = Choice::Kind::Fire;
    fp.entity = entity;
    fp.content = content;
    fp.role = role;
    out.push_back(fp);
  };
  add_timer(mgr_protocol_, ChoiceFootprint::kEntityManager, 0, ChoiceFootprint::kManagerRole);
  add_timer(mgr_stage_, ChoiceFootprint::kEntityManager, 1, ChoiceFootprint::kManagerRole);
  for (const auto& [process, entity] : agents_) {
    add_timer(entity.timer, static_cast<std::uint8_t>(process), 2, entity.role_fp);
  }
}

ChoiceFootprint Model::choice_footprint(const Choice& choice) const {
  std::vector<ChoiceFootprint> all;
  choice_footprints(all);
  for (const ChoiceFootprint& fp : all) {
    if (fp.choice == choice) return fp;
  }
  throw std::out_of_range(std::string("choice_footprint: no enabled ") + to_string(choice.kind) +
                          " with seq " + std::to_string(choice.seq));
}

}  // namespace sa::check
