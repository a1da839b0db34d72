// Bit-exact pins of the model checker's dedup keys: Model::fingerprint() and
// Model::canonical_fingerprint() at every state of seeded random walks.
//
// Every verdict and counter of a search depends on which states its visited
// set merges, so a rewrite of how the keys are computed must leave each key
// unchanged, not merely keep the search counters. Each walk digests (FNV-1a,
// byte by byte) both keys of its current state and of every child one choice
// away, each child forked by copy-assignment into a recycled model as the
// engine forks. The walks run tiny, pair and paper three ways each:
//
//   fifo     per-channel FIFO, no adversary: appends and head removals
//   budgets  drop and duplicate budgets of 1: adds head drops and duplicates
//   reorder  full reordering with the same budgets: adds deliveries and
//            drops from the middle of a channel
//
// The test also checks that each of those channel edits actually happened,
// so a digest cannot stay pinned by walks that never exercise one.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "check/explorer.hpp"
#include "check/model.hpp"
#include "check/scenario.hpp"
#include "util/rng.hpp"

namespace sa::check {
namespace {

constexpr std::uint64_t kWalks = 64;

struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t key) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (key >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void add_keys(const Model& model) {
    add(model.fingerprint());
    add(model.canonical_fingerprint());
  }
};

/// How often each channel edit happened along the walks.
struct Coverage {
  std::size_t states = 0;
  std::size_t appends = 0;  ///< sends and duplicates
  std::size_t head_removals = 0;
  std::size_t mid_removals = 0;
  std::size_t duplicates = 0;
};

/// True iff `choice` (a Deliver or Drop) removes a message that an older
/// in-flight message on the same channel precedes. choices() lists messages
/// in creation order, so an earlier Deliver on the same channel is older.
bool removes_mid_channel(const Model& model, const std::vector<Choice>& choices,
                         const Choice& choice) {
  const ChoiceFootprint target = model.choice_footprint(choice);
  for (const Choice& c : choices) {
    if (c.seq == choice.seq) return false;
    if (c.kind != Choice::Kind::Deliver) continue;
    const ChoiceFootprint fp = model.choice_footprint(c);
    if (fp.channel_agent == target.channel_agent &&
        fp.channel_to_manager == target.channel_to_manager) {
      return true;
    }
  }
  return false;
}

std::uint64_t walk_digest(const char* scenario_name, const ExploreOptions& options,
                          Coverage& coverage) {
  const Scenario scenario = make_scenario(scenario_name);
  Digest digest;
  std::vector<Choice> choices;
  for (std::uint64_t seed = 1; seed <= kWalks; ++seed) {
    util::Rng rng(seed);
    Model model = make_model(scenario, options);
    Model fork = model;  // recycled fork target, as the engine's pool keeps
    for (;;) {
      digest.add_keys(model);
      ++coverage.states;
      model.choices(choices);
      if (choices.empty()) break;
      for (const Choice& c : choices) {
        fork = model;
        fork.apply(c);
        digest.add_keys(fork);
      }
      const Choice choice = choices[rng.next_below(choices.size())];
      const bool removes =
          choice.kind == Choice::Kind::Deliver || choice.kind == Choice::Kind::Drop;
      if (removes) {
        ++(removes_mid_channel(model, choices, choice) ? coverage.mid_removals
                                                       : coverage.head_removals);
      }
      if (choice.kind == Choice::Kind::Duplicate) ++coverage.duplicates;
      const std::size_t before = model.messages_in_flight();
      EXPECT_TRUE(model.apply(choice));
      // A delivery removes one message and may send several.
      const std::size_t after = model.messages_in_flight() + (removes ? 1 : 0);
      if (after > before) coverage.appends += after - before;
    }
  }
  return digest.h;
}

ExploreOptions mode_options(int budget, bool reorder) {
  ExploreOptions options;
  options.drop_budget = budget;
  options.dup_budget = budget;
  options.reorder = reorder;
  return options;
}

struct Case {
  const char* scenario;
  const char* mode;
  ExploreOptions options;
  std::uint64_t digest;
};

TEST(KeyGolden, KeysAlongSeededWalksAreUnchanged) {
  // An agent mixes its reset command's two mask words; with the components'
  // names hashed there instead, each digest is the one pinned before masks.
  const Case cases[] = {
      {"tiny", "fifo", mode_options(0, false), 0x0db80e4919b36ca0},
      {"tiny", "budgets", mode_options(1, false), 0x5c110a6fbc404606},
      {"tiny", "reorder", mode_options(1, true), 0x352e58cb5dae3446},
      {"pair", "fifo", mode_options(0, false), 0x5af49b69b81d0fe9},
      {"pair", "budgets", mode_options(1, false), 0x850303651db3430d},
      {"pair", "reorder", mode_options(1, true), 0xed65dc2d011af89a},
      {"paper", "fifo", mode_options(0, false), 0x27e57604f1f5f2f8},
      {"paper", "budgets", mode_options(1, false), 0x245ebc7ae5e182a6},
      {"paper", "reorder", mode_options(1, true), 0x3147cf9d68d977e0},
  };
  for (const Case& c : cases) {
    Coverage coverage;
    const std::uint64_t digest = walk_digest(c.scenario, c.options, coverage);
    EXPECT_EQ(digest, c.digest) << c.scenario << " " << c.mode << ": 0x" << std::hex << digest;
    EXPECT_GT(coverage.states, kWalks) << c.scenario << " " << c.mode;
    EXPECT_GT(coverage.appends, 0U) << c.scenario << " " << c.mode;
    EXPECT_GT(coverage.head_removals, 0U) << c.scenario << " " << c.mode;
    if (c.options.dup_budget > 0) {
      EXPECT_GT(coverage.duplicates, 0U) << c.scenario << " " << c.mode;
    }
    if (c.options.reorder) {
      EXPECT_GT(coverage.mid_removals, 0U) << c.scenario << " " << c.mode;
    } else {
      EXPECT_EQ(coverage.mid_removals, 0U) << c.scenario << " " << c.mode;
    }
  }
}

}  // namespace
}  // namespace sa::check
