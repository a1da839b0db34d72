#include <gtest/gtest.h>

#include "components/fec.hpp"
#include "components/filter.hpp"
#include "filter_harness.hpp"
#include "proto/adaptable_process.hpp"
#include "sim/simulator.hpp"

namespace sa::proto {
namespace {

components::FilterPtr make_filter(const std::string& name) {
  return std::make_shared<components::PassThroughFilter>(name);
}

struct Fixture : ::testing::Test {
  sim::Simulator sim;
  components::FilterChain chain{sim, "chain"};
  FilterChainProcess process{chain, make_filter};

  LocalCommand replace_cmd(const std::string& from, const std::string& to) {
    LocalCommand cmd;
    cmd.remove = {from};
    cmd.add = {to};
    return cmd;
  }
};

TEST_F(Fixture, PrepareStagesComponents) {
  chain.append_filter(make_filter("old"));
  EXPECT_TRUE(process.prepare(replace_cmd("old", "new")));
  // Staged but not installed yet.
  EXPECT_TRUE(chain.has_filter("old"));
  EXPECT_FALSE(chain.has_filter("new"));
}

TEST_F(Fixture, PrepareFailsForMissingRemoval) {
  EXPECT_FALSE(process.prepare(replace_cmd("ghost", "new")));
}

TEST_F(Fixture, PrepareFailsWhenComponentAlreadyInstalled) {
  chain.append_filter(make_filter("new"));
  LocalCommand cmd;
  cmd.add = {"new"};
  EXPECT_FALSE(process.prepare(cmd));
}

TEST_F(Fixture, PrepareFailsWhenFactoryCannotBuild) {
  FilterChainProcess broken(chain, [](const std::string&) { return components::FilterPtr{}; });
  LocalCommand cmd;
  cmd.add = {"anything"};
  EXPECT_FALSE(broken.prepare(cmd));
}

TEST_F(Fixture, ReplaceInPlacePreservesPosition) {
  chain.append_filter(make_filter("first"));
  chain.append_filter(make_filter("middle"));
  chain.append_filter(make_filter("last"));
  ASSERT_TRUE(process.prepare(replace_cmd("middle", "middle2")));
  ASSERT_TRUE(process.apply(replace_cmd("middle", "middle2")));
  EXPECT_EQ(chain.filter_names(), (std::vector<std::string>{"first", "middle2", "last"}));
}

TEST_F(Fixture, UndoRestoresReplacedFilterInPlace) {
  chain.append_filter(make_filter("a"));
  chain.append_filter(make_filter("b"));
  const auto cmd = replace_cmd("a", "a2");
  ASSERT_TRUE(process.prepare(cmd));
  ASSERT_TRUE(process.apply(cmd));
  ASSERT_TRUE(process.undo(cmd));
  EXPECT_EQ(chain.filter_names(), (std::vector<std::string>{"a", "b"}));
}

TEST_F(Fixture, InsertionAndRemovalCommands) {
  chain.append_filter(make_filter("keep"));
  LocalCommand insert;
  insert.add = {"extra"};
  ASSERT_TRUE(process.prepare(insert));
  ASSERT_TRUE(process.apply(insert));
  EXPECT_EQ(chain.filter_names(), (std::vector<std::string>{"keep", "extra"}));

  LocalCommand remove;
  remove.remove = {"extra"};
  ASSERT_TRUE(process.prepare(remove));
  ASSERT_TRUE(process.apply(remove));
  EXPECT_EQ(chain.filter_names(), (std::vector<std::string>{"keep"}));
}

TEST_F(Fixture, UndoOfInsertionRemovesIt) {
  LocalCommand insert;
  insert.add = {"extra"};
  ASSERT_TRUE(process.prepare(insert));
  ASSERT_TRUE(process.apply(insert));
  ASSERT_TRUE(process.undo(insert));
  EXPECT_FALSE(chain.has_filter("extra"));
}

TEST_F(Fixture, UndoOfRemovalPutsFilterBack) {
  chain.append_filter(make_filter("victim"));
  LocalCommand remove;
  remove.remove = {"victim"};
  ASSERT_TRUE(process.prepare(remove));
  ASSERT_TRUE(process.apply(remove));
  EXPECT_FALSE(chain.has_filter("victim"));
  ASSERT_TRUE(process.undo(remove));
  EXPECT_TRUE(chain.has_filter("victim"));
}

TEST_F(Fixture, ApplyWithoutPrepareFails) {
  chain.append_filter(make_filter("old"));
  EXPECT_FALSE(process.apply(replace_cmd("old", "new")));
  EXPECT_TRUE(chain.has_filter("old"));  // untouched
}

TEST_F(Fixture, AbortClearsStagedComponents) {
  chain.append_filter(make_filter("old"));
  const auto cmd = replace_cmd("old", "new");
  ASSERT_TRUE(process.prepare(cmd));
  process.abort_safe_state();
  EXPECT_FALSE(process.apply(cmd));  // staging gone
}

TEST_F(Fixture, ReachSafeStateBlocksChainAndResumeUnblocks) {
  bool reached = false;
  process.reach_safe_state(false, [&] { reached = true; });
  EXPECT_TRUE(reached);
  EXPECT_TRUE(chain.blocked());
  process.resume();
  EXPECT_FALSE(chain.blocked());
}

TEST_F(Fixture, DrainModeWaitsForQueue) {
  chain.submit(components::Packet::make(1, 0, {1}));
  chain.submit(components::Packet::make(1, 1, {2}));
  sim.run_until(sim::us(1));
  bool reached = false;
  process.reach_safe_state(true, [&] { reached = true; });
  EXPECT_FALSE(reached);
  sim.run();
  EXPECT_TRUE(reached);
  EXPECT_EQ(chain.queued(), 0U);
}

TEST_F(Fixture, ReplacementTransfersComponentState) {
  // An FEC decoder replaced mid-group must hand its open-group bookkeeping to
  // the successor, or the packets buffered across the swap become
  // unrepairable. adopt_state() runs while both components are quiescent.
  auto old_decoder = std::make_shared<components::XorFecDecoderFilter>("fec-old");
  components::XorFecEncoderFilter encoder("enc", 4);
  chain.append_filter(old_decoder);

  // Feed 2 of 4 data packets (one dropped later), leaving an open group.
  std::vector<components::Packet> wires;
  for (std::uint64_t seq = 0; seq < 2; ++seq) {
    for (auto& wire : components::run_filter(encoder, components::Packet::make(1, seq, {1, 2, 3}))) {
      wires.push_back(std::move(wire));
    }
  }
  for (auto& wire : wires) components::run_filter(*old_decoder, std::move(wire));

  FilterChainProcess fec_process(chain, [](const std::string& name) -> components::FilterPtr {
    return std::make_shared<components::XorFecDecoderFilter>(name);
  });
  const auto cmd = replace_cmd("fec-old", "fec-new");
  ASSERT_TRUE(fec_process.prepare(cmd));
  ASSERT_TRUE(fec_process.apply(cmd));

  // Now deliver packet 3 (packet 2 lost) and the parity through the NEW
  // decoder: reconstruction only succeeds if the group state was adopted.
  std::vector<components::Packet> tail;
  for (std::uint64_t seq = 2; seq < 4; ++seq) {
    for (auto& wire : components::run_filter(encoder, components::Packet::make(1, seq, {1, 2, 3}))) {
      tail.push_back(std::move(wire));
    }
  }
  auto new_decoder =
      std::dynamic_pointer_cast<components::XorFecDecoderFilter>(
          chain.remove_filter("fec-new"));
  ASSERT_TRUE(new_decoder);
  std::size_t delivered = 0;
  for (auto& wire : tail) {
    if (wire.sequence == 2 && !wire.encoding_stack.empty() &&
        wire.encoding_stack.back().starts_with("fec:")) {
      continue;  // lose data packet 2
    }
    delivered += components::run_filter(*new_decoder, std::move(wire)).size();
  }
  EXPECT_EQ(new_decoder->recovered(), 1U);
  EXPECT_EQ(delivered, 2U);  // packet 3 + reconstructed packet 2
}

TEST_F(Fixture, CleanupRetainsUndoAbilityUntilNextApply) {
  // Compensating rollback support: after apply+cleanup the removed filter is
  // still recoverable; the NEXT apply discards it.
  chain.append_filter(make_filter("old"));
  const auto cmd = replace_cmd("old", "new");
  ASSERT_TRUE(process.prepare(cmd));
  ASSERT_TRUE(process.apply(cmd));
  process.cleanup(cmd);
  ASSERT_TRUE(process.undo(cmd));
  EXPECT_TRUE(chain.has_filter("old"));
}

}  // namespace
}  // namespace sa::proto
