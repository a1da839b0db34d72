// Interned manager states and memoized manager steps of one model-checking
// search.
//
// A search visits millions of states but only a few hundred distinct
// ManagerCore values, and each (value, input) pair thousands of times. So a
// check::Model holds no core: it holds a handle into this table, which keeps
// each distinct value once (by the core's defaulted operator==, every field)
// with its fingerprint(), fingerprint_shared() and every agent's
// process_fingerprint() computed once. And it steps each (value, input) pair
// once: the first time, a copy of the core is stepped, the next value
// interned, and what the outputs do to the model recorded as Effects; after
// that, the step is a lookup.
//
// Only model-visible effects are recorded: sends (as message-table handles
// with the receiving agent's slot), timer arms and disarms, commits and the
// outcome. The model applies each of them itself on every step, so the
// safety monitor sees every send, P1 judges every commit and P5 every
// outcome, whether or not the step was memoized. Bookkeeping outputs
// (transitions, spans, notes) change no model state; a model that records
// transitions steps the real core instead (Model::set_record_transitions).
//
// The memo is exact because the manager core reads no time: its step is a
// function of its value and the input, and a delivery's input is its
// sender plus the message's table handle, which names its full content.
//
// The table is shared by every copy of a search's root model, like the
// MessageTable, and has its concurrency (check/intern_store.hpp): a hit takes
// no lock and writes no shared line; a miss takes a mutex.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "check/intern_store.hpp"
#include "check/message_table.hpp"
#include "config/configuration.hpp"
#include "proto/core/io.hpp"
#include "proto/core/manager_core.hpp"
#include "proto/messages.hpp"
#include "util/small_vector.hpp"

namespace sa::check {

class ManagerTable {
 public:
  using Handle = std::uint32_t;

  /// One model-visible effect of a manager step, in emission order.
  struct Effect {
    enum class Kind : std::uint8_t { Send, ArmTimer, DisarmTimer, Commit, Outcome };
    Kind kind = Kind::Send;
    proto::ManagerTimer timer = proto::ManagerTimer::Protocol;  ///< Arm/DisarmTimer
    std::uint8_t slot = 0;              ///< Send: the receiving agent's slot
    MessageTable::Handle message = 0;   ///< Send: the message, interned
    runtime::Time delay = 0;            ///< ArmTimer
    proto::StepRef ref;                 ///< Commit: the step committed
    config::Configuration config;       ///< Commit: the configuration reached
  };

  /// A step's effects as run() makes them, before the memo keeps them.
  using Effects = util::SmallVector<Effect, 8>;

  /// A memoized manager step: the next value and what the step does to the
  /// model. An Outcome effect's verdict is the next value's summary().
  struct Step {
    Handle next = 0;
    std::vector<Effect> effects;  ///< exactly sized; most steps have none
  };

  /// Seed of the cached fingerprints: the one the model seeds each agent
  /// core's fingerprint with, so the model's keys mix the same values as
  /// when it held the core itself.
  static constexpr std::uint64_t kFingerprintSeed = 0x9ae16a3b2f90404fULL;

  /// Memo keys of the inputs a step may be memoized for (never a request).
  static std::uint64_t timer_input(proto::ManagerTimer timer);
  static std::uint64_t delivery_input(config::ProcessId from, MessageTable::Handle message);

  ManagerTable() = default;  ///< allocates nothing until the first intern()
  ManagerTable(const ManagerTable&) = delete;
  ManagerTable& operator=(const ManagerTable&) = delete;

  /// The entry equal to `core`, added on first sight. Agent slots are the
  /// core's agents() order (ascending process id).
  Handle intern(const proto::ManagerCore& core);

  /// What the model's dedup keys read of a manager value, computed once.
  struct Keys {
    std::uint64_t fingerprint = 0;  ///< core.fingerprint() from kFingerprintSeed
    std::uint64_t shared = 0;       ///< core.fingerprint_shared() from kFingerprintSeed
    /// core.process_fingerprint() of each agent, by slot (six bits each).
    util::SmallVector<std::uint8_t, 8> process_bits;
  };

  const proto::ManagerCore& core(Handle state) const { return *states_[state].core; }
  const Keys& keys(Handle state) const { return states_[state].keys; }

  /// Steps a copy of `state`'s core on `input` and returns the interned
  /// next value. Each message it sends is interned in `messages`, and
  /// `effects` is filled with what the step does to the model. `outputs` is
  /// the step's output buffer; it is left holding the core's own outputs.
  Handle run(Handle state, const proto::ManagerInput& input, MessageTable& messages,
             std::vector<proto::Output>& outputs, Effects& effects);

  /// The step recorded for `state` on `input`, or nullptr. Lock-free.
  const Step* find(Handle state, std::uint64_t input) const;
  /// Records (`next`, `effects`) as `state`'s step on `input` and returns
  /// the recorded step: this one, or an equal one another thread recorded
  /// first.
  const Step& record(Handle state, std::uint64_t input, Handle next, const Effects& effects);

  /// Distinct values interned and steps memoized so far.
  std::size_t states() const { return states_.size(); }
  std::size_t steps() const { return steps_.size(); }

 private:
  struct State {
    std::optional<proto::ManagerCore> core;
    Keys keys;
  };
  struct Memo {
    Handle state = 0;
    std::uint64_t input = 0;
    Step step;
  };

  InternStore<State> states_;  ///< keyed by the core's fingerprint()
  InternStore<Memo> steps_;    ///< keyed by (state, input)
};

}  // namespace sa::check
