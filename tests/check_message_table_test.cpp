// The model checker's per-search message table (check/message_table.hpp) and
// the family tag the cores test instead of a dynamic_cast (proto::as_proto).
//
//   * sends with equal content share one entry; a field a receiver reads
//     (a reset's command or flags, a resume done's blocked_for) keys its own;
//   * every search has its own table, shared by all copies of its root model;
//   * forking a model writes no message reference count;
//   * eight threads interning at once build the same table as one thread;
//   * as_proto() tells protocol traffic from everything else, and both cores
//     ignore a delivery that is not a protocol message.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "check/explorer.hpp"
#include "check/message_table.hpp"
#include "check/model.hpp"
#include "check/scenario.hpp"
#include "proto/core/agent_core.hpp"
#include "proto/core/manager_core.hpp"
#include "proto/messages.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace sa::check {
namespace {

struct Foreign final : runtime::Message {
  std::string type_name() const override { return "foreign"; }
};

proto::StepRef step(std::uint32_t index, std::uint32_t attempt = 0) {
  return proto::StepRef{1, 0, index, attempt};
}

/// The components the resets below name.
const config::ComponentRegistry& registry() {
  static const config::ComponentRegistry components = [] {
    config::ComponentRegistry r;
    r.add("D1", 0);
    r.add("D2", 0);
    r.add("E2", 1);
    return r;
  }();
  return components;
}

runtime::MessagePtr reset(proto::StepRef ref, std::initializer_list<const char*> add,
                          bool drain = false, bool sole = false) {
  auto msg = std::make_shared<proto::ResetMsg>();
  msg->step = ref;
  msg->command.add = config::Configuration::of(registry(), add);
  msg->drain = drain;
  msg->sole_participant = sole;
  return msg;
}

runtime::MessagePtr resume_done(proto::StepRef ref, runtime::Time blocked_for) {
  auto msg = std::make_shared<proto::ResumeDoneMsg>();
  msg->step = ref;
  msg->blocked_for = blocked_for;
  return msg;
}

template <typename Msg>
runtime::MessagePtr plain(proto::StepRef ref) {
  auto msg = std::make_shared<Msg>();
  msg->step = ref;
  return msg;
}

TEST(MessageTable, EqualContentSharesOneEntry) {
  MessageTable table{registry()};
  const runtime::MessagePtr first = reset(step(0), {"D2", "E2"}, true);
  const runtime::MessagePtr second = reset(step(0), {"D2", "E2"}, true);
  const MessageTable::Handle handle = table.intern(first);
  EXPECT_EQ(table.intern(second), handle);
  EXPECT_EQ(table.intern(first), handle);
  EXPECT_EQ(table.size(), 1U);
  // The entry keeps the first send.
  EXPECT_EQ(table.message(handle), first);

  const runtime::MessagePtr ack = plain<proto::ResetDoneMsg>(step(0));
  EXPECT_EQ(table.intern(plain<proto::ResetDoneMsg>(step(0))), table.intern(ack));
  EXPECT_EQ(table.size(), 2U);
}

TEST(MessageTable, EveryFieldAReceiverReadsKeysItsOwnEntry) {
  MessageTable table{registry()};
  const MessageTable::Handle base = table.intern(reset(step(0), {"D2"}));
  // A different command, drain flag or sole-participant flag: distinct
  // entries with distinct structural hashes (receivers act on all three).
  const MessageTable::Handle command = table.intern(reset(step(0), {"E2"}));
  const MessageTable::Handle drain = table.intern(reset(step(0), {"D2"}, true));
  const MessageTable::Handle sole = table.intern(reset(step(0), {"D2"}, false, true));
  const MessageTable::Handle other_step = table.intern(reset(step(1), {"D2"}));
  const MessageTable::Handle retry = table.intern(reset(step(0, 1), {"D2"}));
  const std::vector<MessageTable::Handle> resets{base, command, drain, sole, other_step, retry};
  for (std::size_t i = 0; i < resets.size(); ++i) {
    for (std::size_t j = i + 1; j < resets.size(); ++j) {
      EXPECT_NE(resets[i], resets[j]) << i << " vs " << j;
      EXPECT_NE(table.fingerprint(resets[i]), table.fingerprint(resets[j])) << i << " vs " << j;
    }
  }

  // blocked_for is delivered to the manager's metrics, so it keys the entry;
  // it never steers control flow, so the structural hash leaves it out.
  const MessageTable::Handle short_block = table.intern(resume_done(step(0), 100));
  const MessageTable::Handle long_block = table.intern(resume_done(step(0), 200));
  EXPECT_NE(short_block, long_block);
  EXPECT_EQ(table.fingerprint(short_block), table.fingerprint(long_block));
  EXPECT_EQ(table.intern(resume_done(step(0), 200)), long_block);

  // Same coordinates, different kind.
  EXPECT_NE(table.intern(plain<proto::ResumeMsg>(step(0))),
            table.intern(plain<proto::RollbackMsg>(step(0))));
  EXPECT_EQ(table.size(), 10U);
}

// A reset's structural hash covers its command through the names its masks
// stand for, in ascending component id: the hash of the name-list command a
// reset carried before, so the order footprint_order_less gives same-channel
// messages is the same.
TEST(MessageTable, ResetHashCoversTheNamesOfItsComponents) {
  MessageTable table{registry()};
  auto msg = std::make_shared<proto::ResetMsg>();
  msg->step = step(2, 1);
  msg->command.remove = config::Configuration::of(registry(), {"D1"});
  msg->command.add = config::Configuration::of(registry(), {"E2", "D2"});
  msg->drain = true;
  std::uint64_t expected = 0xcbf29ce484222325ULL;
  for (const std::uint64_t field : {1, 0, 2, 1, 1, 1, 0}) util::hash_mix(expected, field);
  for (const char* name : {"D1", "D2", "E2"}) util::hash_mix(expected, std::string(name));
  EXPECT_EQ(table.fingerprint(table.intern(msg)), expected);
}

TEST(MessageTable, OtherTrafficInternsByIdentity) {
  MessageTable table{registry()};
  const runtime::MessagePtr a = std::make_shared<Foreign>();
  const runtime::MessagePtr b = std::make_shared<Foreign>();
  EXPECT_NE(table.intern(a), table.intern(b));
  EXPECT_EQ(table.intern(a), table.intern(a));
  EXPECT_EQ(table.size(), 2U);
}

ExploreOptions pair_options() {
  ExploreOptions options;
  options.dpor = true;
  options.symmetry = true;
  return options;
}

TEST(MessageTable, SearchesDoNotShareATable) {
  const Scenario scenario = make_pair_scenario();
  const Model first = make_model(scenario, pair_options());
  Model second = make_model(scenario, pair_options());
  EXPECT_NE(&first.message_table(), &second.message_table());
  const Model copy = first;
  Model assigned = second;
  assigned = first;
  EXPECT_EQ(&copy.message_table(), &first.message_table());
  EXPECT_EQ(&assigned.message_table(), &first.message_table());

  // Running one search's model to quiescence grows its table only.
  ASSERT_GT(first.messages_in_flight(), 0U);
  const std::size_t first_size = first.message_table().size();
  for (std::optional<Choice> next = second.sim_choice(); next; next = second.sim_choice()) {
    ASSERT_TRUE(second.apply(*next));
  }
  EXPECT_GT(second.message_table().size(), first_size);
  EXPECT_EQ(first.message_table().size(), first_size);
}

bool holds_reset(const Model& model) {
  for (std::size_t i = 0; i < model.messages_in_flight(); ++i) {
    if (proto::as_proto(model.in_flight_message(i).get())->kind() == proto::MsgKind::Reset) {
      return true;
    }
  }
  return false;
}

TEST(MessageTable, ForkingLeavesInFlightUseCountsUnchanged) {
  const Scenario scenario = make_pair_scenario();
  // A state with three messages in flight, one of them a reset, from a
  // seeded walk. It is built on another thread: that thread's output
  // buffers, which hold the last step's sends, go away with it, so the table
  // holds the only reference to each in-flight message.
  std::optional<Model> root;
  std::thread([&] {
    util::Rng rng(5);
    std::vector<Choice> choices;
    for (int walk = 0; walk < 100 && !root; ++walk) {
      Model model = make_model(scenario, pair_options());
      model.set_record_transitions(false);
      for (model.choices(choices); !choices.empty(); model.choices(choices)) {
        if (model.messages_in_flight() >= 3 && holds_reset(model)) {
          root.emplace(std::move(model));
          break;
        }
        model.apply(choices[rng.next_below(choices.size())]);
      }
    }
  }).join();
  ASSERT_TRUE(root.has_value()) << "no walk reached a reset beside two other messages";
  const std::size_t in_flight = root->messages_in_flight();
  for (std::size_t i = 0; i < in_flight; ++i) {
    ASSERT_EQ(root->in_flight_message(i).use_count(), 1) << "message " << i;
  }

  // Copy-constructed and copy-assigned forks, each then stepped once; the
  // forks that deliver the reset leave its agent holding a copy of the
  // command's masks, not the message.
  std::vector<Model> forks(64, *root);
  std::vector<Choice> choices;
  for (int fork = 0; fork < 10'000; ++fork) {
    Model& model = forks[static_cast<std::size_t>(fork) % forks.size()];
    model = *root;
    model.choices(choices);
    ASSERT_FALSE(choices.empty());
    ASSERT_TRUE(model.apply(choices[static_cast<std::size_t>(fork) % choices.size()]));
  }
  for (std::size_t i = 0; i < in_flight; ++i) {
    EXPECT_EQ(root->in_flight_message(i).use_count(), 1) << "message " << i;
  }
}

/// Sends drawn from a few hundred contents, every send its own object.
std::vector<runtime::MessagePtr> mixed_sends(std::size_t count) {
  util::Rng rng(29);
  std::vector<runtime::MessagePtr> sends;
  sends.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const proto::StepRef ref = step(static_cast<std::uint32_t>(rng.next_below(12)),
                                    static_cast<std::uint32_t>(rng.next_below(3)));
    switch (rng.next_below(4)) {
      case 0:
        sends.push_back(reset(ref, {rng.next_below(2) == 0 ? "D1" : "D2"}, rng.next_below(2) == 0));
        break;
      case 1:
        sends.push_back(resume_done(ref, static_cast<runtime::Time>(rng.next_below(8))));
        break;
      case 2: sends.push_back(plain<proto::AdaptDoneMsg>(ref)); break;
      default: sends.push_back(plain<proto::ResumeMsg>(ref)); break;
    }
  }
  return sends;
}

TEST(MessageTableParallel, EightThreadsInterningAgreeWithOneThread) {
  const std::vector<runtime::MessagePtr> sends = mixed_sends(6000);
  MessageTable reference{registry()};
  std::vector<MessageTable::Handle> expected;
  for (const runtime::MessagePtr& message : sends) expected.push_back(reference.intern(message));
  ASSERT_GT(reference.size(), 300U);  // several chunks and index grows

  constexpr std::size_t kThreads = 8;
  MessageTable shared{registry()};
  std::vector<std::vector<MessageTable::Handle>> got(
      kThreads, std::vector<MessageTable::Handle>(sends.size()));
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      // Each thread starts at a different point of the same list.
      const std::size_t start = t * sends.size() / kThreads;
      for (std::size_t k = 0; k < sends.size(); ++k) {
        const std::size_t i = (start + k) % sends.size();
        got[t][i] = shared.intern(sends[i]);
      }
    });
  }
  for (std::thread& th : pool) th.join();

  EXPECT_EQ(shared.size(), reference.size());
  // The two tables number entries differently; the partition of the sends
  // into entries, and each entry's hash, must be the same.
  std::map<MessageTable::Handle, MessageTable::Handle> to_shared, to_reference;
  for (std::size_t i = 0; i < sends.size(); ++i) {
    for (std::size_t t = 1; t < kThreads; ++t) ASSERT_EQ(got[t][i], got[0][i]) << "send " << i;
    ASSERT_EQ(to_shared.emplace(expected[i], got[0][i]).first->second, got[0][i]) << i;
    ASSERT_EQ(to_reference.emplace(got[0][i], expected[i]).first->second, expected[i]) << i;
    ASSERT_EQ(shared.fingerprint(got[0][i]), reference.fingerprint(expected[i]));
  }
}

// --- as_proto and non-protocol deliveries -----------------------------------

TEST(MessageFamily, AsProtoAcceptsOnlyProtocolMessages) {
  const runtime::MessagePtr reset_msg = reset(step(0), {"D2"});
  EXPECT_EQ(proto::as_proto(reset_msg.get()), reset_msg.get());
  const runtime::MessagePtr done = resume_done(step(0), 5);
  ASSERT_NE(proto::as_proto(done.get()), nullptr);
  EXPECT_EQ(proto::as_proto(done.get())->kind(), proto::MsgKind::ResumeDone);

  const Foreign foreign;
  EXPECT_EQ(proto::as_proto(&foreign), nullptr);
  EXPECT_EQ(proto::as_coord(&foreign), nullptr);
  const proto::EpochDoneMsg coord;
  EXPECT_EQ(proto::as_proto(&coord), nullptr);
  EXPECT_EQ(proto::as_coord(&coord), &coord);
  EXPECT_EQ(proto::as_proto(nullptr), nullptr);
}

TEST(MessageFamily, CoresIgnoreNonProtocolDeliveries) {
  const Scenario scenario = make_pair_scenario();
  const runtime::MessagePtr others[] = {std::make_shared<Foreign>(),
                                        std::make_shared<proto::EpochDoneMsg>()};
  std::vector<proto::Output> out;

  proto::ManagerCore manager(*scenario.invariants, *scenario.actions, *scenario.planner,
                             scenario.manager_config);
  manager.set_current_configuration(scenario.source);
  for (const auto& [process, stage] : scenario.stages) manager.register_agent(process, stage);
  manager.step(proto::ManagerInput{proto::ManagerInput::AdaptCommand{scenario.target}}, out);
  ASSERT_FALSE(out.empty());
  ASSERT_TRUE(manager.busy());
  const config::ProcessId agent = scenario.stages.begin()->first;
  for (const runtime::MessagePtr& message : others) {
    manager.step(proto::ManagerInput{proto::ManagerInput::MessageDelivered{agent, &message}}, out);
    EXPECT_TRUE(out.empty()) << message->type_name();
  }

  proto::AgentCore core(scenario.agent_config);
  for (const runtime::MessagePtr& message : others) {
    core.step(proto::AgentInput{1, proto::AgentInput::MessageDelivered{&message}}, out);
    EXPECT_TRUE(out.empty()) << message->type_name();
    EXPECT_EQ(core.state(), proto::AgentState::Running);
  }
}

}  // namespace
}  // namespace sa::check
