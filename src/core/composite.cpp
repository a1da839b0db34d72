#include "core/composite.hpp"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "runtime/sim_runtime.hpp"
#include "util/log.hpp"

namespace sa::core {

namespace {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0U);
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

CompositeAdaptationSystem::CompositeAdaptationSystem(CompositeConfig config)
    : config_(config),
      owned_runtime_(std::make_unique<runtime::SimRuntime>(config.seed)),
      runtime_(owned_runtime_.get()) {}

CompositeAdaptationSystem::CompositeAdaptationSystem(runtime::Runtime& rt, CompositeConfig config)
    : config_(config), runtime_(&rt) {}

sim::Simulator& CompositeAdaptationSystem::simulator() {
  auto* backend = dynamic_cast<runtime::SimRuntime*>(runtime_);
  if (!backend) throw std::logic_error("simulator() requires the sim runtime backend");
  return backend->simulator();
}

sim::Network& CompositeAdaptationSystem::network() {
  auto* backend = dynamic_cast<runtime::SimRuntime*>(runtime_);
  if (!backend) throw std::logic_error("network() requires the sim runtime backend");
  return backend->network();
}

CompositeAdaptationSystem::~CompositeAdaptationSystem() = default;

void CompositeAdaptationSystem::add_invariant(std::string name, std::string_view expression) {
  if (finalized()) throw std::logic_error("cannot add invariants after finalize()");
  expr::ExprPtr predicate = expr::parse(expression);
  // Validate component names eagerly, like InvariantSet::add does.
  for (const std::string& variable : predicate->variables()) registry_.require(variable);
  pending_invariants_.push_back(PendingInvariant{std::move(name), std::move(predicate)});
}

void CompositeAdaptationSystem::add_action(std::string name, std::vector<std::string> removes,
                                           std::vector<std::string> adds, double cost,
                                           std::string description) {
  if (finalized()) throw std::logic_error("cannot add actions after finalize()");
  for (const std::string& component : removes) registry_.require(component);
  for (const std::string& component : adds) registry_.require(component);
  pending_actions_.push_back(
      PendingAction{std::move(name), std::move(removes), std::move(adds), cost,
                    std::move(description)});
}

void CompositeAdaptationSystem::attach_process(config::ProcessId process,
                                               proto::AdaptableProcess& target, int stage) {
  if (finalized()) throw std::logic_error("cannot attach processes after finalize()");
  pending_processes_.push_back(PendingProcess{process, &target, stage});
}

void CompositeAdaptationSystem::finalize() {
  if (finalized()) throw std::logic_error("finalize() called twice");
  finalized_ = true;
  const std::size_t n = registry_.size();

  // Collaborative sets: components connected through an invariant OR an
  // action collaborate and must be planned together.
  UnionFind sets(n);
  for (const PendingInvariant& invariant : pending_invariants_) {
    const auto variables = invariant.predicate->variables();
    for (std::size_t i = 1; i < variables.size(); ++i) {
      sets.unite(registry_.require(variables[0]), registry_.require(variables[i]));
    }
  }
  for (const PendingAction& action : pending_actions_) {
    std::vector<std::string> all = action.removes;
    all.insert(all.end(), action.adds.begin(), action.adds.end());
    for (std::size_t i = 1; i < all.size(); ++i) {
      sets.unite(registry_.require(all[0]), registry_.require(all[i]));
    }
  }

  std::map<std::size_t, std::vector<config::ComponentId>> grouped;
  for (config::ComponentId id = 0; id < n; ++id) {
    grouped[sets.find(id)].push_back(id);
  }

  // Every shard manager and agent records on its own track, numbered and
  // named after its transport node, so each Fig. 2 / Fig. 1 chain can be
  // followed in the recorder stream.
  const auto own_track = [this](runtime::NodeId node) {
    const auto track = static_cast<std::int64_t>(node);
    tracer_.set_track_name(track, runtime_->transport().node_name(node));
    tracer_.set_node_track(node, track);
    return track;
  };
  for (auto& [root, members] : grouped) {
    auto shard = std::make_unique<Shard>();
    shard->members = members;  // ascending by construction
    shard->registry = std::make_unique<config::ComponentRegistry>();
    for (const config::ComponentId id : members) {
      const auto& info = registry_.info(id);
      shard->registry->add(info.name, info.process, info.description);
    }
    shard->invariants = std::make_unique<config::InvariantSet>(*shard->registry);
    for (const PendingInvariant& invariant : pending_invariants_) {
      const auto variables = invariant.predicate->variables();
      const bool belongs =
          variables.empty() ||  // constant invariants constrain every shard
          std::all_of(variables.begin(), variables.end(), [&](const std::string& name) {
            return shard->registry->find(name).has_value();
          });
      if (belongs) shard->invariants->add(invariant.name, invariant.predicate);
    }
    shard->actions = std::make_unique<actions::ActionTable>(*shard->registry);
    for (const PendingAction& action : pending_actions_) {
      const std::string* probe =
          !action.removes.empty() ? &action.removes.front() : &action.adds.front();
      if (!shard->registry->find(*probe)) continue;
      shard->actions->add(action.name, action.removes, action.adds, action.cost,
                          action.description);
    }

    const runtime::NodeId manager_node =
        runtime_->transport().add_node("manager-s" + std::to_string(shards_.size()));
    shard->manager_node = manager_node;
    shard->manager = std::make_unique<proto::AdaptationManager>(
        *runtime_, manager_node, *shard->invariants, *shard->actions, config_.manager);
    shard->manager->set_observability(&tracer_, &metrics_, own_track(manager_node));

    // Agents: one per process hosting a member of this shard.
    for (const PendingProcess& pending : pending_processes_) {
      const bool hosts_member =
          std::any_of(members.begin(), members.end(), [&](config::ComponentId id) {
            return registry_.process(id) == pending.process;
          });
      if (!hosts_member) continue;
      const runtime::NodeId agent_node = runtime_->transport().add_node(
          "agent-s" + std::to_string(shards_.size()) + "-p" + std::to_string(pending.process));
      runtime_->transport().connect_bidirectional(manager_node, agent_node,
                                                  config_.control_channel);
      shard->agents.push_back(std::make_unique<proto::AdaptationAgent>(
          runtime_->clock(), runtime_->transport(), agent_node, manager_node, *pending.target,
          config_.agent));
      shard->agents.back()->set_observability(&tracer_, &metrics_, own_track(agent_node));
      shard->manager->register_agent(pending.process, agent_node, pending.stage);
      shard->processes.push_back(pending.process);
    }
    shards_.push_back(std::move(shard));
  }

  // Lanes: shards sharing a process must serialize (their agents drive the
  // same AdaptableProcess); process-disjoint shards may adapt concurrently.
  UnionFind lanes(shards_.size());
  for (std::size_t a = 0; a < shards_.size(); ++a) {
    for (std::size_t b = a + 1; b < shards_.size(); ++b) {
      const auto& pa = shards_[a]->processes;
      const auto& pb = shards_[b]->processes;
      const bool overlap = std::any_of(pa.begin(), pa.end(), [&](config::ProcessId p) {
        return std::find(pb.begin(), pb.end(), p) != pb.end();
      });
      if (overlap) lanes.unite(a, b);
    }
  }
  std::map<std::size_t, std::size_t> lane_index;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::size_t root = lanes.find(i);
    shards_[i]->lane = lane_index.emplace(root, lane_index.size()).first->second;
  }
  lane_count_ = lane_index.size();

  build_tree();
  SA_INFO("composite") << shards_.size() << " collaborative set(s) in " << lane_count_
                       << " concurrency lane(s) under " << coordinators_.size()
                       << " coordinator(s), " << levels_ << " level(s)";
}

void CompositeAdaptationSystem::build_tree() {
  const std::size_t lanes_per_leaf = std::max<std::size_t>(1, config_.topology.lanes_per_leaf);
  const std::size_t fanout = std::clamp<std::size_t>(config_.topology.fanout, 2, 64);
  const std::size_t leaf_count =
      lane_count_ == 0 ? 1 : (lane_count_ + lanes_per_leaf - 1) / lanes_per_leaf;

  levels_ = 1;
  for (std::size_t m = leaf_count; m > 1; m = (m + fanout - 1) / fanout) ++levels_;

  struct Built {
    std::size_t index = 0;                  ///< into coordinators_
    std::vector<std::uint32_t> covered;     ///< global shard ids, ascending
  };

  const auto make_coordinator = [&](std::size_t depth, std::size_t position) {
    proto::CoordinatorConfig cc;
    cc.epoch_window = depth == 0 ? config_.topology.epoch_window : runtime::Time{0};
    const std::size_t height = (levels_ - 1) - depth;  // 0 at the leaves
    cc.commit_timeout =
        config_.topology.commit_timeout * static_cast<runtime::Time>(height + 1);
    const runtime::NodeId node = runtime_->transport().add_node(
        "coord-d" + std::to_string(depth) + "-" + std::to_string(position));
    coordinators_.push_back(std::make_unique<proto::AdaptationCoordinator>(
        *runtime_, node, cc, static_cast<int>(depth)));
    const std::int64_t track = -static_cast<std::int64_t>(100 + coordinators_.size());
    tracer_.set_track_name(track, runtime_->transport().node_name(node));
    tracer_.set_node_track(node, track);
    coordinators_.back()->set_observability(&tracer_, &metrics_, track);
    return coordinators_.size() - 1;
  };

  // Leaves: group lanes by lane / lanes_per_leaf; a leaf executes its lanes'
  // shards directly (serial per lane, concurrent across lanes).
  std::vector<Built> level;
  for (std::size_t leaf = 0; leaf < leaf_count; ++leaf) {
    Built built;
    built.index = make_coordinator(levels_ - 1, leaf);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (shards_[s]->lane / lanes_per_leaf != leaf) continue;
      coordinators_[built.index]->add_local_shard(static_cast<std::uint32_t>(s),
                                                  static_cast<std::uint32_t>(shards_[s]->lane),
                                                  *shards_[s]->manager);
      built.covered.push_back(static_cast<std::uint32_t>(s));
    }
    level.push_back(std::move(built));
  }

  // Interior levels, bottom-up: every `fanout` nodes share a parent.
  std::size_t depth = levels_ - 1;
  while (level.size() > 1) {
    --depth;
    std::vector<Built> next;
    for (std::size_t begin = 0; begin < level.size(); begin += fanout) {
      Built parent;
      parent.index = make_coordinator(depth, next.size());
      proto::AdaptationCoordinator& coordinator = *coordinators_[parent.index];
      const std::size_t end = std::min(begin + fanout, level.size());
      for (std::size_t c = begin; c < end; ++c) {
        proto::AdaptationCoordinator& child = *coordinators_[level[c].index];
        runtime_->transport().connect_bidirectional(coordinator.node(), child.node(),
                                                    config_.control_channel);
        coordinator.add_child(child.node(), level[c].covered);
        child.set_parent(coordinator.node());
        coordinator_links_.emplace_back(coordinator.node(), child.node());
        parent.covered.insert(parent.covered.end(), level[c].covered.begin(),
                              level[c].covered.end());
      }
      std::sort(parent.covered.begin(), parent.covered.end());
      next.push_back(std::move(parent));
    }
    level = std::move(next);
  }
  root_ = level.front().index;
}

const std::vector<config::ComponentId>& CompositeAdaptationSystem::shard_members(
    std::size_t index) const {
  return shards_.at(index)->members;
}

proto::AdaptationManager& CompositeAdaptationSystem::shard_manager(std::size_t index) {
  return *shards_.at(index)->manager;
}

std::vector<runtime::NodeId> CompositeAdaptationSystem::manager_nodes() const {
  std::vector<runtime::NodeId> nodes;
  nodes.reserve(shards_.size());
  for (const auto& shard : shards_) nodes.push_back(shard->manager_node);
  return nodes;
}

config::Configuration CompositeAdaptationSystem::to_local(
    const Shard& shard, const config::Configuration& global) const {
  config::Configuration local;
  for (std::size_t i = 0; i < shard.members.size(); ++i) {
    if (global.contains(shard.members[i])) local = local.with(static_cast<config::ComponentId>(i));
  }
  return local;
}

config::Configuration CompositeAdaptationSystem::to_global(
    const Shard& shard, const config::Configuration& local) const {
  config::Configuration global;
  for (std::size_t i = 0; i < shard.members.size(); ++i) {
    if (local.contains(static_cast<config::ComponentId>(i))) {
      global = global.with(shard.members[i]);
    }
  }
  return global;
}

void CompositeAdaptationSystem::set_current_configuration(config::Configuration global) {
  if (!finalized()) throw std::logic_error("system not finalized");
  for (const auto& shard : shards_) {
    shard->manager->set_current_configuration(to_local(*shard, global));
  }
}

config::Configuration CompositeAdaptationSystem::current_configuration() const {
  config::Configuration global;
  for (const auto& shard : shards_) {
    global = global.unite(to_global(*shard, shard->manager->current_configuration()));
  }
  return global;
}

std::vector<proto::ShardTarget> CompositeAdaptationSystem::shard_targets(
    const config::Configuration& global_target) const {
  // Sub-requests per shard whose slice of the target differs from its state.
  std::vector<proto::ShardTarget> targets;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const auto local_target = to_local(*shards_[s], global_target);
    if (local_target == shards_[s]->manager->current_configuration()) continue;
    targets.push_back(proto::ShardTarget{static_cast<std::uint32_t>(s), local_target});
  }
  return targets;
}

void CompositeAdaptationSystem::request_adaptation(config::Configuration global_target,
                                                   CompletionHandler handler) {
  if (!finalized()) throw std::logic_error("system not finalized");
  if (request_in_flight_.exchange(true)) {
    throw std::logic_error("composite adaptation request while another is in flight");
  }
  submit_adaptation(std::move(global_target),
                    [this, handler = std::move(handler)](const CompositeResult& result) {
                      request_in_flight_ = false;
                      if (handler) handler(result);
                    });
}

std::uint64_t CompositeAdaptationSystem::submit_adaptation(config::Configuration global_target,
                                                           CompletionHandler handler) {
  if (!finalized()) throw std::logic_error("system not finalized");
  return root_coordinator().submit(
      shard_targets(global_target),
      [this, handler = std::move(handler)](
          const proto::AdaptationCoordinator::TicketResult& ticket) {
        CompositeResult result;
        result.started = ticket.started;
        result.finished = ticket.finished;
        result.epoch = ticket.epoch;
        result.success = true;
        for (const proto::ShardOutcome& outcome : ticket.outcomes) {
          result.orphaned += outcome.reported ? 0 : 1;
          result.success =
              result.success && outcome.result.outcome == proto::AdaptationOutcome::Success;
          result.shard_results.push_back(outcome.result);
        }
        result.outcomes = ticket.outcomes;
        result.final_config = current_configuration();
        if (handler) handler(result);
      });
}

CompositeResult CompositeAdaptationSystem::adapt_and_wait(config::Configuration global_target,
                                                          std::size_t max_events) {
  // The completion handler may fire on a runtime thread, so the result slot
  // is guarded for the threaded backend; on the simulator this is free.
  std::mutex mutex;
  std::optional<CompositeResult> result;
  request_adaptation(global_target, [&](const CompositeResult& r) {
    std::lock_guard lock(mutex);
    result = r;
  });
  runtime_->wait_until(
      [&] {
        std::lock_guard lock(mutex);
        return result.has_value();
      },
      max_events);
  std::lock_guard lock(mutex);
  if (!result) throw std::runtime_error("composite adaptation did not terminate");
  return *result;
}

}  // namespace sa::core
