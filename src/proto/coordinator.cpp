#include "proto/coordinator.hpp"

#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace sa::proto {

AdaptationCoordinator::AdaptationCoordinator(runtime::Runtime& rt, runtime::NodeId node,
                                             CoordinatorConfig config, int depth)
    : clock_(&rt.clock()),
      executor_(&rt.executor()),
      transport_(&rt.transport()),
      node_(node),
      depth_(depth),
      core_(config),
      trace_(*clock_),
      epoch_timer_(*clock_, trace_, mutex_,
                   [this] { dispatch(CoordinatorInput::TimerFired{CoordinatorTimer::Epoch}); }),
      commit_timer_(*clock_, trace_, mutex_,
                    [this] { dispatch(CoordinatorInput::TimerFired{CoordinatorTimer::Commit}); }) {
  core_.set_span_seed(node_);
  transport_->set_handler(node_, [this](runtime::NodeId from, runtime::MessagePtr message) {
    on_message(from, std::move(message));
  });
}

// Detach before members die; on the threaded backend this waits out any
// in-flight delivery so a late message cannot land in a half-destroyed
// coordinator.
AdaptationCoordinator::~AdaptationCoordinator() { transport_->set_handler(node_, nullptr); }

void AdaptationCoordinator::set_parent(runtime::NodeId parent_node) {
  std::lock_guard lock(mutex_);
  parent_node_ = parent_node;
  has_parent_ = true;
  core_.set_has_parent(true);
}

std::size_t AdaptationCoordinator::add_child(runtime::NodeId child_node,
                                             std::vector<std::uint32_t> shards) {
  std::lock_guard lock(mutex_);
  const std::size_t index = core_.add_child(std::move(shards));
  child_nodes_.push_back(child_node);
  child_of_[child_node] = index;
  return index;
}

void AdaptationCoordinator::add_local_shard(std::uint32_t shard, std::uint32_t lane,
                                            AdaptationManager& manager) {
  std::lock_guard lock(mutex_);
  core_.add_local_shard(shard, lane);
  shard_manager_[shard] = &manager;
}

std::uint64_t AdaptationCoordinator::submit(std::vector<ShardTarget> targets,
                                            TicketHandler handler) {
  std::lock_guard lock(mutex_);
  if (has_parent_) throw std::logic_error("submit() is root-only; interior nodes take commits");
  const std::uint64_t ticket = next_ticket_++;
  pending_tickets_[ticket] = PendingTicket{std::move(handler), clock_->now()};
  // The ticket span roots this submission's causal tree: the epoch it seals
  // into links back to it, and TicketDone closes it.
  const std::uint64_t ticket_span = span_of(node_, SpanKind::Ticket, ticket);
  if (trace_.wants(obs::EventKind::TicketSubmitted)) {
    obs::Event e;
    e.kind = obs::EventKind::TicketSubmitted;
    e.span = ticket_span;
    e.value = static_cast<double>(targets.size());
    e.has_value = true;
    trace_.record(std::move(e));
  }
  dispatch(CoordinatorInput::SubmitRequest{ticket, std::move(targets), ticket_span});
  return ticket;
}

void AdaptationCoordinator::set_observability(obs::TraceRecorder* recorder,
                                              obs::MetricsRegistry* metrics, std::int64_t track) {
  std::lock_guard lock(mutex_);
  trace_.attach(recorder, metrics, track);
}

std::string AdaptationCoordinator::depth_label() const { return std::to_string(depth_); }

void AdaptationCoordinator::on_message(runtime::NodeId from, runtime::MessagePtr message) {
  std::lock_guard lock(mutex_);
  const auto* coord = as_coord(message.get());
  if (!coord) {
    SA_WARN("coordinator") << "non-coordinator message " << message->type_name();
    return;
  }
  if (has_parent_ && from == parent_node_ && coord->kind() == CoordMsgKind::EpochCommit) {
    const auto& commit = static_cast<const EpochCommitMsg&>(*coord);
    dispatch(
        CoordinatorInput::SubmitRequest{commit.epoch, commit.targets, commit.ctx.parent_span});
    return;
  }
  const auto child = child_of_.find(from);
  if (child != child_of_.end() && coord->kind() == CoordMsgKind::EpochDone) {
    const auto& done = static_cast<const EpochDoneMsg&>(*coord);
    dispatch(CoordinatorInput::ChildDone{child->second, done.epoch, done.outcomes});
    return;
  }
  SA_WARN("coordinator") << "unexpected " << message->type_name() << " from node " << from;
}

void AdaptationCoordinator::dispatch(decltype(CoordinatorInput::event) event) {
  std::vector<Output> outputs;
  core_.step(CoordinatorInput{clock_->now(), std::move(event)}, outputs);
  apply(outputs);
}

void AdaptationCoordinator::apply(const std::vector<Output>& outputs) {
  for (const Output& out : outputs) {
    const OutputPayload& more = out.payload();
    switch (out.kind) {
      case OutputKind::Send:
        transport_->send(node_, child_nodes_.at(out.process), out.message);
        break;
      case OutputKind::SendParent:
        transport_->send(node_, parent_node_, out.message);
        break;
      case OutputKind::ArmTimer:
        timer(out).arm(out);
        break;
      case OutputKind::DisarmTimer:
        timer(out).disarm(out);
        break;
      case OutputKind::Transition:
        if (trace_.wants(obs::EventKind::CoordinatorPhase)) {
          trace_.record(transition_event(obs::EventKind::CoordinatorPhase, out));
        }
        break;
      case OutputKind::ExecuteShard:
        apply_execute_shard(out);
        break;
      case OutputKind::EpochOpened:
        if (trace_.wants(obs::EventKind::EpochOpened)) {
          obs::Event e;
          e.kind = obs::EventKind::EpochOpened;
          e.span = more.span;
          e.epoch = more.epoch;
          e.value = static_cast<double>(more.epoch);
          e.has_value = true;
          trace_.record(std::move(e));
        }
        break;
      case OutputKind::FlowLink:
        if (trace_.wants(obs::EventKind::FlowLink)) {
          obs::Event e;
          e.kind = obs::EventKind::FlowLink;
          e.span = more.span;
          e.parent_span = more.parent_span;
          e.epoch = more.epoch;
          trace_.record(std::move(e));
        }
        break;
      case OutputKind::EpochSealed:
        epoch_sealed_at_ = clock_->now();
        if (trace_.wants(obs::EventKind::EpochSealed)) {
          obs::Event e;
          e.kind = obs::EventKind::EpochSealed;
          e.span = more.span;
          e.epoch = more.epoch;
          e.value = out.value;   // shard count
          e.has_value = true;
          e.detail = "coalesced " + std::to_string(static_cast<std::size_t>(more.extra));
          trace_.record(std::move(e));
        }
        if (obs::MetricsRegistry* metrics = trace_.metrics()) {
          metrics
              ->histogram("sa_epoch_batch_shards", {1, 2, 4, 8, 16, 32, 64, 128, 256},
                          {{"depth", depth_label()}}, "Shards per sealed epoch, by tree depth")
              .observe(out.value);
          if (more.extra > 0) {
            metrics
                ->counter("sa_epoch_coalesced_total", {{"depth", depth_label()}},
                          "Same-shard requests merged by group commit, by tree depth")
                .inc(static_cast<std::uint64_t>(more.extra));
          }
        }
        break;
      case OutputKind::EpochCompleted:
        if (trace_.wants(obs::EventKind::EpochCompleted)) {
          obs::Event e;
          e.kind = obs::EventKind::EpochCompleted;
          e.span = more.span;
          e.epoch = more.epoch;
          e.value = static_cast<double>(clock_->now() - epoch_sealed_at_);
          e.has_value = true;
          if (more.extra > 0) {
            e.detail = "orphaned " + std::to_string(static_cast<std::size_t>(more.extra));
          }
          trace_.record(std::move(e));
        }
        if (obs::MetricsRegistry* metrics = trace_.metrics()) {
          metrics
              ->counter("sa_epochs_total", {{"depth", depth_label()}},
                        "Completed epochs, by tree depth")
              .inc();
          metrics
              ->histogram("sa_epoch_latency_us", obs::default_time_buckets_us(),
                          {{"depth", depth_label()}},
                          "Seal-to-complete commit latency, by tree depth")
              .observe(static_cast<double>(clock_->now() - epoch_sealed_at_));
          if (more.extra > 0) {
            metrics
                ->counter("sa_epoch_orphaned_shards_total", {{"depth", depth_label()}},
                          "Shards orphaned by the commit timeout, by tree depth")
                .inc(static_cast<std::uint64_t>(more.extra));
          }
        }
        break;
      case OutputKind::TicketDone:
        apply_ticket_done(out);
        break;
      case OutputKind::DuplicateMessage:
        SA_DEBUG("coordinator") << "absorbed " << out.label << ": " << more.detail;
        if (obs::MetricsRegistry* metrics = trace_.metrics()) {
          metrics
              ->counter("sa_coordinator_duplicates_total", {{"depth", depth_label()}},
                        "Stale or re-delivered coordinator messages absorbed, by tree depth")
              .inc();
        }
        break;
      default:
        break;  // manager/agent-only kinds never appear in coordinator output
    }
  }
}

void AdaptationCoordinator::apply_execute_shard(const Output& out) {
  const OutputPayload& more = out.payload();
  AdaptationManager* manager = shard_manager_.at(more.shard);
  const std::uint32_t shard = more.shard;
  const std::uint64_t epoch = more.epoch;
  const config::Configuration target = out.config;
  // Both hops go through the executor so the coordinator lock and the
  // manager lock are never held together (no lock-order cycle when a manager
  // completion races a coordinator timer on the threaded backend).
  const std::uint64_t cause = more.parent_span;
  executor_->post([this, manager, shard, epoch, target, cause] {
    manager->enqueue_adaptation(
        target,
        [this, shard, epoch](const AdaptationResult& result) {
          executor_->post([this, shard, epoch, result] {
            std::lock_guard lock(mutex_);
            dispatch(CoordinatorInput::ShardFinished{epoch, shard, result});
          });
        },
        cause);
  });
}

void AdaptationCoordinator::apply_ticket_done(const Output& out) {
  const OutputPayload& more = out.payload();
  const auto it = pending_tickets_.find(more.ticket);
  if (it == pending_tickets_.end()) {
    SA_WARN("coordinator") << "result for unknown ticket " << more.ticket;
    return;
  }
  TicketResult result;
  result.ticket = more.ticket;
  result.epoch = more.epoch;
  result.outcomes = more.shard_outcomes;
  result.started = it->second.started;
  result.finished = clock_->now();
  TicketHandler handler = std::move(it->second.handler);
  pending_tickets_.erase(it);
  if (trace_.wants(obs::EventKind::TicketDone)) {
    obs::Event e;
    e.kind = obs::EventKind::TicketDone;
    e.span = more.span;
    e.parent_span = more.parent_span;
    e.epoch = more.epoch;
    e.value = static_cast<double>(result.finished - result.started);
    e.has_value = true;
    trace_.record(std::move(e));
  }
  SA_INFO("coordinator") << "ticket " << result.ticket << " done in epoch " << result.epoch
                         << " (" << result.outcomes.size() << " shard(s))";
  if (handler) handler(result);
}

}  // namespace sa::proto
