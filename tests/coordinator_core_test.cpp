// CoordinatorCore in isolation: the sans-I/O epoch pipeline stepped by hand,
// no runtime, no transport — inputs in, outputs out.
#include "proto/core/coordinator_core.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "proto/messages.hpp"

namespace {

using namespace sa;
using proto::CoordinatorCore;
using proto::CoordinatorInput;
using proto::CoordinatorPhase;
using proto::CoordinatorTimer;
using proto::Output;
using proto::OutputKind;

config::Configuration cfg(std::uint64_t bits) { return config::Configuration(bits); }

CoordinatorInput submit(std::uint64_t ticket, std::vector<proto::ShardTarget> targets,
                        runtime::Time now = 0) {
  return CoordinatorInput{now, CoordinatorInput::SubmitRequest{ticket, std::move(targets)}};
}

CoordinatorInput epoch_fires(runtime::Time now = 0) {
  return CoordinatorInput{now, CoordinatorInput::TimerFired{CoordinatorTimer::Epoch}};
}

CoordinatorInput commit_fires(runtime::Time now = 0) {
  return CoordinatorInput{now, CoordinatorInput::TimerFired{CoordinatorTimer::Commit}};
}

CoordinatorInput shard_done(std::uint64_t epoch, std::uint32_t shard,
                            proto::AdaptationOutcome outcome = proto::AdaptationOutcome::Success,
                            runtime::Time now = 0) {
  proto::AdaptationResult result;
  result.outcome = outcome;
  return CoordinatorInput{now, CoordinatorInput::ShardFinished{epoch, shard, result}};
}

std::vector<Output> step(CoordinatorCore& core, const CoordinatorInput& input) {
  std::vector<Output> out;
  core.step(input, out);
  return out;
}

std::vector<const Output*> of_kind(const std::vector<Output>& outputs, OutputKind kind) {
  std::vector<const Output*> found;
  for (const Output& output : outputs) {
    if (output.kind == kind) found.push_back(&output);
  }
  return found;
}

const Output* first_of(const std::vector<Output>& outputs, OutputKind kind) {
  const auto found = of_kind(outputs, kind);
  return found.empty() ? nullptr : found.front();
}

TEST(CoordinatorCoreTest, SubmitOpensEpochAndArmsWindow) {
  CoordinatorCore core;
  core.add_local_shard(0, 0);
  const auto out = step(core, submit(1, {{0, cfg(1)}}));
  EXPECT_EQ(core.phase(), CoordinatorPhase::Batching);
  const Output* opened = first_of(out, OutputKind::EpochOpened);
  ASSERT_NE(opened, nullptr);
  EXPECT_EQ(opened->payload().epoch, 1U);
  const Output* arm = first_of(out, OutputKind::ArmTimer);
  ASSERT_NE(arm, nullptr);
  EXPECT_EQ(arm->ctimer, CoordinatorTimer::Epoch);
}

TEST(CoordinatorCoreTest, SameShardTargetsCoalesceLaterWins) {
  CoordinatorCore core;
  core.add_local_shard(0, 0);
  step(core, submit(1, {{0, cfg(1)}}));
  step(core, submit(2, {{0, cfg(2)}}));  // same shard, same window: later wins
  const auto out = step(core, epoch_fires());

  const Output* sealed = first_of(out, OutputKind::EpochSealed);
  ASSERT_NE(sealed, nullptr);
  EXPECT_EQ(sealed->value, 1.0);  // one shard in the batch
  EXPECT_EQ(sealed->payload().extra, 1.0);  // one coalesced submission

  const auto executes = of_kind(out, OutputKind::ExecuteShard);
  ASSERT_EQ(executes.size(), 1U);
  EXPECT_EQ(executes[0]->payload().shard, 0U);
  EXPECT_EQ(executes[0]->config, cfg(2));  // the later target
}

TEST(CoordinatorCoreTest, SealPartitionsBatchAcrossChildrenAndLanes) {
  CoordinatorCore core;
  const std::size_t left = core.add_child({0, 1});
  const std::size_t right = core.add_child({2});
  core.add_local_shard(3, 0);
  step(core, submit(1, {{0, cfg(1)}, {1, cfg(2)}, {2, cfg(4)}, {3, cfg(8)}}));
  const auto out = step(core, epoch_fires());

  const auto sends = of_kind(out, OutputKind::Send);
  ASSERT_EQ(sends.size(), 2U);  // one EpochCommitMsg per involved child
  for (const Output* send : sends) {
    const auto* commit = dynamic_cast<const proto::EpochCommitMsg*>(send->message.get());
    ASSERT_NE(commit, nullptr);
    EXPECT_EQ(commit->epoch, 1U);
    if (send->process == static_cast<config::ProcessId>(left)) {
      ASSERT_EQ(commit->targets.size(), 2U);  // exactly its covered slice
      EXPECT_EQ(commit->targets[0].shard, 0U);
      EXPECT_EQ(commit->targets[1].shard, 1U);
    } else {
      EXPECT_EQ(send->process, static_cast<config::ProcessId>(right));
      ASSERT_EQ(commit->targets.size(), 1U);
      EXPECT_EQ(commit->targets[0].shard, 2U);
    }
  }
  const auto executes = of_kind(out, OutputKind::ExecuteShard);
  ASSERT_EQ(executes.size(), 1U);  // the local lane starts immediately
  EXPECT_EQ(executes[0]->payload().shard, 3U);
}

TEST(CoordinatorCoreTest, LanesSerializeButDistinctLanesStartTogether) {
  CoordinatorCore core;
  core.add_local_shard(0, 0);
  core.add_local_shard(1, 0);  // same lane as 0: must wait for it
  core.add_local_shard(2, 1);  // its own lane: starts at seal
  step(core, submit(1, {{0, cfg(1)}, {1, cfg(1)}, {2, cfg(1)}}));
  auto out = step(core, epoch_fires());
  auto executes = of_kind(out, OutputKind::ExecuteShard);
  ASSERT_EQ(executes.size(), 2U);  // lane heads only
  EXPECT_EQ(executes[0]->payload().shard, 0U);
  EXPECT_EQ(executes[1]->payload().shard, 2U);

  out = step(core, shard_done(1, 0));
  executes = of_kind(out, OutputKind::ExecuteShard);
  ASSERT_EQ(executes.size(), 1U);  // lane 0 advances to its second shard
  EXPECT_EQ(executes[0]->payload().shard, 1U);
}

TEST(CoordinatorCoreTest, PartialFailureIsolatedPerShard) {
  CoordinatorCore core;
  core.add_local_shard(0, 0);
  core.add_local_shard(1, 1);
  step(core, submit(7, {{0, cfg(1)}, {1, cfg(1)}}));
  step(core, epoch_fires());
  step(core, shard_done(1, 0, proto::AdaptationOutcome::UserInterventionRequired));
  const auto out = step(core, shard_done(1, 1, proto::AdaptationOutcome::Success));

  const Output* done = first_of(out, OutputKind::TicketDone);
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->payload().ticket, 7U);
  ASSERT_EQ(done->payload().shard_outcomes.size(), 2U);
  EXPECT_EQ(done->payload().shard_outcomes[0].result.outcome,
            proto::AdaptationOutcome::UserInterventionRequired);
  EXPECT_TRUE(done->payload().shard_outcomes[0].reported);  // it DID report — just failed
  EXPECT_EQ(done->payload().shard_outcomes[1].result.outcome, proto::AdaptationOutcome::Success);
  const Output* completed = first_of(out, OutputKind::EpochCompleted);
  ASSERT_NE(completed, nullptr);
  EXPECT_EQ(completed->payload().extra, 0.0);  // failures are not orphans
}

TEST(CoordinatorCoreTest, CommitTimeoutOrphansSilentSubtree) {
  CoordinatorCore core;
  const std::size_t child = core.add_child({0, 1});
  core.add_local_shard(2, 0);
  step(core, submit(1, {{0, cfg(1)}, {1, cfg(1)}, {2, cfg(1)}}));
  step(core, epoch_fires());
  step(core, shard_done(1, 2));  // the local shard completes; the child is silent
  EXPECT_EQ(core.phase(), CoordinatorPhase::Committing);

  const auto out = step(core, commit_fires());
  const Output* completed = first_of(out, OutputKind::EpochCompleted);
  ASSERT_NE(completed, nullptr);
  EXPECT_EQ(completed->payload().extra, 2.0);  // both of the child's shards orphaned
  const Output* done = first_of(out, OutputKind::TicketDone);
  ASSERT_NE(done, nullptr);
  ASSERT_EQ(done->payload().shard_outcomes.size(), 3U);
  for (const proto::ShardOutcome& outcome : done->payload().shard_outcomes) {
    if (outcome.shard == 2) {
      EXPECT_TRUE(outcome.reported);
      EXPECT_EQ(outcome.result.outcome, proto::AdaptationOutcome::Success);
    } else {
      EXPECT_FALSE(outcome.reported);
      EXPECT_EQ(outcome.result.outcome, proto::AdaptationOutcome::UserInterventionRequired);
    }
  }
  (void)child;
}

TEST(CoordinatorCoreTest, LateChildReportAfterTimeoutIsAbsorbed) {
  CoordinatorCore core;
  const std::size_t child = core.add_child({0});
  step(core, submit(1, {{0, cfg(1)}}));
  step(core, epoch_fires());
  step(core, commit_fires());  // orphans the child's shard, completes the epoch
  EXPECT_EQ(core.phase(), CoordinatorPhase::Idle);

  proto::ShardOutcome outcome;
  outcome.shard = 0;
  const auto out = step(core, 
      CoordinatorInput{0, CoordinatorInput::ChildDone{child, 1, {outcome}}});
  EXPECT_NE(first_of(out, OutputKind::DuplicateMessage), nullptr);
  EXPECT_EQ(first_of(out, OutputKind::EpochCompleted), nullptr);  // no double completion
}

TEST(CoordinatorCoreTest, UnroutableShardOrphansAtSealNotAtTimeout) {
  CoordinatorCore core;
  core.add_local_shard(0, 0);
  step(core, submit(1, {{0, cfg(1)}, {9, cfg(1)}}));  // shard 9 covered by nobody
  step(core, epoch_fires());
  const auto out = step(core, shard_done(1, 0));  // epoch completes without a timeout
  const Output* completed = first_of(out, OutputKind::EpochCompleted);
  ASSERT_NE(completed, nullptr);
  EXPECT_EQ(completed->payload().extra, 1.0);
  EXPECT_EQ(core.phase(), CoordinatorPhase::Idle);
}

TEST(CoordinatorCoreTest, MidCommitSubmissionsBecomeNextEpoch) {
  CoordinatorCore core;
  core.add_local_shard(0, 0);
  step(core, submit(1, {{0, cfg(1)}}));
  step(core, epoch_fires());
  step(core, submit(2, {{0, cfg(2)}}));  // lands while epoch 1 is committing
  const auto out = step(core, shard_done(1, 0));

  EXPECT_NE(first_of(out, OutputKind::TicketDone), nullptr);
  const Output* opened = first_of(out, OutputKind::EpochOpened);
  ASSERT_NE(opened, nullptr);  // the pipeline reopens for the buffered ticket
  EXPECT_EQ(opened->payload().epoch, 2U);
  EXPECT_EQ(core.phase(), CoordinatorPhase::Batching);
}

TEST(CoordinatorCoreTest, ParentRecommitIsDeduplicated) {
  CoordinatorCore core;  // an interior node: tickets are the parent's epochs
  core.set_has_parent(true);
  core.add_local_shard(0, 0);
  step(core, submit(5, {{0, cfg(1)}}));
  const auto out = step(core, submit(5, {{0, cfg(1)}}));  // retransmitted commit
  EXPECT_NE(first_of(out, OutputKind::DuplicateMessage), nullptr);
  step(core, epoch_fires());
  const auto done = step(core, shard_done(1, 0));
  const auto sends = of_kind(done, OutputKind::SendParent);
  ASSERT_EQ(sends.size(), 1U);  // one EpochDoneMsg, not two
  const auto* msg = dynamic_cast<const proto::EpochDoneMsg*>(sends[0]->message.get());
  ASSERT_NE(msg, nullptr);
  EXPECT_EQ(msg->epoch, 5U);  // keyed by the PARENT's epoch number
}

TEST(CoordinatorCoreTest, OutOfEpochFaultAnnouncesStaleWireNumber) {
  CoordinatorCore core;
  core.add_child({0});
  core.inject_fault(proto::CoordinatorFault::CommitOutOfEpoch);

  step(core, submit(1, {{0, cfg(1)}}));
  auto out = step(core, epoch_fires());
  auto sends = of_kind(out, OutputKind::Send);
  ASSERT_EQ(sends.size(), 1U);
  EXPECT_EQ(dynamic_cast<const proto::EpochCommitMsg*>(sends[0]->message.get())->epoch, 1U);
  step(core, commit_fires());  // child never answers; move on

  step(core, submit(2, {{0, cfg(2)}}));
  out = step(core, epoch_fires());
  sends = of_kind(out, OutputKind::Send);
  ASSERT_EQ(sends.size(), 1U);
  // Epoch 2 sealed, but the wire announces epoch 1 again with different work.
  EXPECT_EQ(core.epoch(), 2U);
  EXPECT_EQ(dynamic_cast<const proto::EpochCommitMsg*>(sends[0]->message.get())->epoch, 1U);
}

TEST(CoordinatorCoreTest, FingerprintTracksLogicalState) {
  CoordinatorCore a, b;
  a.add_local_shard(0, 0);
  b.add_local_shard(0, 0);
  std::uint64_t ha = 0, hb = 0;
  a.fingerprint(ha);
  b.fingerprint(hb);
  EXPECT_EQ(ha, hb);

  step(a, submit(1, {{0, cfg(1)}}));
  ha = hb = 0;
  a.fingerprint(ha);
  b.fingerprint(hb);
  EXPECT_NE(ha, hb);

  step(b, submit(1, {{0, cfg(1)}}));
  ha = hb = 0;
  a.fingerprint(ha);
  b.fingerprint(hb);
  EXPECT_EQ(ha, hb);
}

}  // namespace
