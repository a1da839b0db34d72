#include "proto/core/coordinator_core.hpp"

#include <algorithm>
#include <memory>

namespace sa::proto {

namespace {

/// splitmix64 finalizer — the same mixing the explorer fingerprints use.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  return h;
}

}  // namespace

std::size_t CoordinatorCore::add_child(std::vector<std::uint32_t> shards) {
  std::sort(shards.begin(), shards.end());
  children_.push_back(std::move(shards));
  return children_.size() - 1;
}

void CoordinatorCore::add_local_shard(std::uint32_t shard, std::uint32_t lane) {
  local_lane_[shard] = lane;
}

std::uint64_t CoordinatorCore::wire_epoch() const {
  // The seeded out-of-epoch bug: from the second epoch on, announce the
  // previous epoch's number. Children deduplicate the "stale" commit, its
  // shards orphan at the commit timeout, and the delivered trace shows epoch
  // N committed twice with different targets — which the conformance checker
  // must flag.
  if (fault_ == CoordinatorFault::CommitOutOfEpoch && epoch_ > 1) return epoch_ - 1;
  return epoch_;
}

std::uint64_t CoordinatorCore::epoch_span(std::uint64_t epoch) const {
  return span_of(span_seed_, SpanKind::Epoch, epoch);
}

void CoordinatorCore::note_duplicate(const char* label, std::string detail,
                                     std::vector<Output>& out) {
  Output note;
  note.kind = OutputKind::DuplicateMessage;
  note.label = label;
  note.payload().detail = std::move(detail);
  out.push_back(std::move(note));
}

void CoordinatorCore::transition(CoordinatorPhase to, std::vector<Output>& out) {
  if (to == phase_) return;
  Output t;
  t.kind = OutputKind::Transition;
  t.cphase_from = phase_;
  t.cphase_to = to;
  t.payload().epoch = epoch_;
  phase_ = to;
  out.push_back(std::move(t));
}

void CoordinatorCore::open_epoch(std::vector<Output>& out) {
  transition(CoordinatorPhase::Batching, out);
  Output opened;
  opened.kind = OutputKind::EpochOpened;
  opened.payload().epoch = epoch_ + 1;
  opened.payload().span = epoch_span(epoch_ + 1);
  out.push_back(std::move(opened));
  Output arm;
  arm.kind = OutputKind::ArmTimer;
  arm.ctimer = CoordinatorTimer::Epoch;
  arm.delay = config_.epoch_window;
  arm.label = "epoch window";
  out.push_back(std::move(arm));
}

void CoordinatorCore::step(const CoordinatorInput& input, std::vector<Output>& out) {
  out.clear();
  if (const auto* submit = std::get_if<CoordinatorInput::SubmitRequest>(&input.event)) {
    on_submit(*submit, input.now, out);
  } else if (const auto* done = std::get_if<CoordinatorInput::ChildDone>(&input.event)) {
    on_child_done(*done, input.now, out);
  } else if (const auto* finished =
                 std::get_if<CoordinatorInput::ShardFinished>(&input.event)) {
    on_shard_finished(*finished, input.now, out);
  } else if (const auto* fired = std::get_if<CoordinatorInput::TimerFired>(&input.event)) {
    if (fired->timer == CoordinatorTimer::Epoch) {
      if (phase_ == CoordinatorPhase::Batching) seal(input.now, out);
    } else {
      on_commit_timeout(input.now, out);
    }
  }
}

void CoordinatorCore::on_submit(const CoordinatorInput::SubmitRequest& submit,
                                runtime::Time now, std::vector<Output>& out) {
  (void)now;
  if (has_parent_) {
    // Parent links are epoch-numbered: a re-delivered (or stale, under the
    // CommitOutOfEpoch fault) commit is absorbed, not re-executed.
    if (submit.ticket <= last_parent_ticket_) {
      note_duplicate("epoch commit",
                     "epoch " + std::to_string(submit.ticket) + " already processed", out);
      return;
    }
    last_parent_ticket_ = submit.ticket;
  }

  Ticket ticket;
  ticket.id = submit.ticket;
  ticket.parent_span = submit.parent_span;
  for (const ShardTarget& target : submit.targets) ticket.shards.push_back(target.shard);
  std::sort(ticket.shards.begin(), ticket.shards.end());
  ticket.shards.erase(std::unique(ticket.shards.begin(), ticket.shards.end()),
                      ticket.shards.end());
  tickets_.push_back(std::move(ticket));

  for (const ShardTarget& target : submit.targets) {
    auto [it, inserted] = pending_.emplace(target.shard, target.target);
    if (!inserted) {
      // Group commit: a later request for the same shard within the epoch
      // supersedes the earlier target — one plan per shard per epoch.
      it->second = target.target;
      ++coalesced_;
    }
  }

  if (phase_ == CoordinatorPhase::Idle) open_epoch(out);
  // Batching: already armed. Committing: the batch waits for the in-flight
  // epoch; maybe_complete() opens the next one.
}

void CoordinatorCore::seal(runtime::Time now, std::vector<Output>& out) {
  ++epoch_;
  commit_ = Commit{};
  commit_.wire = wire_epoch();
  commit_.tickets = std::move(tickets_);
  tickets_.clear();

  std::vector<ShardTarget> targets;
  targets.reserve(pending_.size());
  for (const auto& [shard, target] : pending_) targets.push_back(ShardTarget{shard, target});
  pending_.clear();

  Output sealed;
  sealed.kind = OutputKind::EpochSealed;
  sealed.payload().epoch = epoch_;
  sealed.payload().span = epoch_span(epoch_);
  sealed.value = static_cast<double>(targets.size());
  sealed.has_value = true;
  sealed.payload().extra = static_cast<double>(coalesced_);
  out.push_back(std::move(sealed));
  coalesced_ = 0;
  transition(CoordinatorPhase::Committing, out);

  // Causal edges: this epoch's span descends from every ticket batched into
  // it — root ticket spans at the root, the parent's epoch span below it.
  for (const Ticket& ticket : commit_.tickets) {
    if (ticket.parent_span == 0) continue;
    Output link;
    link.kind = OutputKind::FlowLink;
    link.payload().epoch = epoch_;
    link.payload().span = epoch_span(epoch_);
    link.payload().parent_span = ticket.parent_span;
    out.push_back(std::move(link));
  }

  // Partition the batch: each child gets the slice its subtree covers, each
  // local lane gets its queue. Disjoint children and lanes run concurrently.
  for (std::size_t child = 0; child < children_.size(); ++child) {
    auto message = std::make_shared<EpochCommitMsg>();
    message->epoch = commit_.wire;
    message->ctx = CausalContext{commit_.wire, commit_.wire, epoch_span(epoch_)};
    std::vector<std::uint32_t> slice;
    for (const ShardTarget& target : targets) {
      if (std::binary_search(children_[child].begin(), children_[child].end(),
                             target.shard)) {
        message->targets.push_back(target);
        slice.push_back(target.shard);
      }
    }
    if (slice.empty()) continue;
    commit_.child_outstanding.emplace(child, std::move(slice));
    Output send;
    send.kind = OutputKind::Send;
    send.process = static_cast<config::ProcessId>(child);
    send.payload().epoch = commit_.wire;
    send.message = std::move(message);
    out.push_back(std::move(send));
  }
  for (const ShardTarget& target : targets) {
    const auto lane = local_lane_.find(target.shard);
    if (lane == local_lane_.end()) continue;
    commit_.lanes[lane->second].queue.push_back(target);
    ++commit_.local_outstanding;
  }
  for (const auto& [lane, run] : commit_.lanes) {
    Output exec;
    exec.kind = OutputKind::ExecuteShard;
    exec.payload().epoch = epoch_;
    exec.payload().shard = run.queue.front().shard;
    exec.config = run.queue.front().target;
    exec.payload().parent_span = epoch_span(epoch_);
    out.push_back(std::move(exec));
  }
  // Anything routed to neither a child nor a local lane cannot execute:
  // orphan it immediately rather than waiting out the commit timeout.
  for (const ShardTarget& target : targets) {
    const bool local = local_lane_.contains(target.shard);
    bool routed = local;
    for (const auto& [child, slice] : commit_.child_outstanding) {
      routed = routed || std::binary_search(slice.begin(), slice.end(), target.shard);
    }
    if (routed) continue;
    ShardOutcome orphan;
    orphan.shard = target.shard;
    orphan.reported = false;
    orphan.result.outcome = AdaptationOutcome::UserInterventionRequired;
    orphan.result.started = orphan.result.finished = now;
    orphan.result.detail = "orphaned: no subtree covers this shard";
    commit_.collected.emplace(target.shard, std::move(orphan));
  }

  Output arm;
  arm.kind = OutputKind::ArmTimer;
  arm.ctimer = CoordinatorTimer::Commit;
  arm.delay = config_.commit_timeout;
  arm.label = "commit timeout";
  out.push_back(std::move(arm));

  maybe_complete(now, out, /*timed_out=*/false);
}

void CoordinatorCore::on_child_done(const CoordinatorInput::ChildDone& done,
                                    runtime::Time now, std::vector<Output>& out) {
  if (phase_ != CoordinatorPhase::Committing || done.epoch != commit_.wire) {
    note_duplicate("epoch done",
                   "stale report for epoch " + std::to_string(done.epoch), out);
    return;
  }
  const auto outstanding = commit_.child_outstanding.find(done.child);
  if (outstanding == commit_.child_outstanding.end()) {
    note_duplicate("epoch done",
                   "child " + std::to_string(done.child) + " already reported", out);
    return;
  }
  for (const ShardOutcome& outcome : done.outcomes) {
    commit_.collected[outcome.shard] = outcome;  // keep the child's orphan flags
  }
  commit_.child_outstanding.erase(outstanding);
  maybe_complete(now, out, /*timed_out=*/false);
}

void CoordinatorCore::on_shard_finished(const CoordinatorInput::ShardFinished& finished,
                                        runtime::Time now, std::vector<Output>& out) {
  if (phase_ != CoordinatorPhase::Committing || finished.epoch != epoch_) {
    note_duplicate("shard finished",
                   "stale completion for shard " + std::to_string(finished.shard), out);
    return;
  }
  for (auto& [lane, run] : commit_.lanes) {
    if (run.next >= run.queue.size() || run.queue[run.next].shard != finished.shard) continue;
    ShardOutcome outcome;
    outcome.shard = finished.shard;
    outcome.reported = true;
    outcome.result = finished.result;
    commit_.collected[finished.shard] = std::move(outcome);
    ++run.next;
    --commit_.local_outstanding;
    if (run.next < run.queue.size()) {
      // Lane serialization: the next shard of this lane starts only now —
      // its agents drive the same underlying processes. A failed shard does
      // not block the rest of its lane (§4.4 isolation per shard).
      Output exec;
      exec.kind = OutputKind::ExecuteShard;
      exec.payload().epoch = epoch_;
      exec.payload().shard = run.queue[run.next].shard;
      exec.config = run.queue[run.next].target;
      exec.payload().parent_span = epoch_span(epoch_);
      out.push_back(std::move(exec));
    }
    maybe_complete(now, out, /*timed_out=*/false);
    return;
  }
  note_duplicate("shard finished",
                 "no lane is executing shard " + std::to_string(finished.shard), out);
}

void CoordinatorCore::on_commit_timeout(runtime::Time now, std::vector<Output>& out) {
  if (phase_ != CoordinatorPhase::Committing) return;
  const auto orphan = [&](std::uint32_t shard, const char* who) {
    if (commit_.collected.contains(shard)) return;
    ShardOutcome outcome;
    outcome.shard = shard;
    outcome.reported = false;
    outcome.result.outcome = AdaptationOutcome::UserInterventionRequired;
    outcome.result.started = outcome.result.finished = now;
    outcome.result.detail = std::string("orphaned: no report from ") + who +
                            " before the commit timeout";
    commit_.collected.emplace(shard, std::move(outcome));
  };
  for (const auto& [child, slice] : commit_.child_outstanding) {
    for (const std::uint32_t shard : slice) orphan(shard, "child subtree");
  }
  commit_.child_outstanding.clear();
  for (auto& [lane, run] : commit_.lanes) {
    for (std::size_t i = run.next; i < run.queue.size(); ++i) {
      orphan(run.queue[i].shard, "local lane");
    }
    run.next = run.queue.size();
  }
  commit_.local_outstanding = 0;
  maybe_complete(now, out, /*timed_out=*/true);
}

void CoordinatorCore::maybe_complete(runtime::Time now, std::vector<Output>& out,
                                     bool timed_out) {
  if (!commit_.child_outstanding.empty() || commit_.local_outstanding != 0) return;
  if (!timed_out) {
    Output disarm;
    disarm.kind = OutputKind::DisarmTimer;
    disarm.ctimer = CoordinatorTimer::Commit;
    disarm.label = "commit timeout";
    out.push_back(std::move(disarm));
  }

  std::vector<ShardOutcome> outcomes;
  outcomes.reserve(commit_.collected.size());
  std::size_t orphans = 0;
  for (const auto& [shard, outcome] : commit_.collected) {
    orphans += outcome.reported ? 0 : 1;
    outcomes.push_back(outcome);
  }
  Output completed;
  completed.kind = OutputKind::EpochCompleted;
  completed.payload().epoch = epoch_;
  completed.payload().span = epoch_span(epoch_);
  completed.value = static_cast<double>(outcomes.size());
  completed.has_value = true;
  completed.payload().extra = static_cast<double>(orphans);
  completed.payload().shard_outcomes = outcomes;
  out.push_back(std::move(completed));
  ++epochs_completed_;

  // Per-ticket results, in submission order: each ticket learns the fate of
  // exactly the shards it asked for (coalesced shards share one outcome).
  for (const Ticket& ticket : commit_.tickets) {
    std::vector<ShardOutcome> slice;
    for (const std::uint32_t shard : ticket.shards) {
      const auto it = commit_.collected.find(shard);
      if (it != commit_.collected.end()) slice.push_back(it->second);
    }
    if (has_parent_) {
      auto message = std::make_shared<EpochDoneMsg>();
      message->epoch = ticket.id;  // the parent's epoch number
      message->ctx = CausalContext{ticket.id, epoch_, epoch_span(epoch_)};
      message->outcomes = std::move(slice);
      Output send;
      send.kind = OutputKind::SendParent;
      send.payload().epoch = ticket.id;
      send.message = std::move(message);
      out.push_back(std::move(send));
    } else {
      Output done;
      done.kind = OutputKind::TicketDone;
      done.payload().ticket = ticket.id;
      done.payload().epoch = epoch_;
      done.payload().span = ticket.parent_span;  // the root ticket's own span
      done.payload().parent_span = epoch_span(epoch_);
      done.payload().shard_outcomes = std::move(slice);
      out.push_back(std::move(done));
    }
  }
  commit_ = Commit{};

  if (!tickets_.empty() || !pending_.empty()) {
    // Submissions that arrived mid-commit become the next epoch.
    open_epoch(out);
  } else {
    transition(CoordinatorPhase::Idle, out);
  }
  (void)now;
}

void CoordinatorCore::fingerprint(std::uint64_t& h) const {
  h = mix(h, static_cast<std::uint64_t>(phase_));
  h = mix(h, epoch_);
  h = mix(h, last_parent_ticket_);
  h = mix(h, pending_.size());
  for (const auto& [shard, target] : pending_) {
    h = mix(h, shard);
    h = mix(h, target.bits());
  }
  h = mix(h, commit_.child_outstanding.size());
  h = mix(h, commit_.local_outstanding);
  h = mix(h, commit_.collected.size());
}

}  // namespace sa::proto
