#include "check/manager_table.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace sa::check {

namespace {

/// Spreads a memo key over all 64 bits (the splitmix64 finalizer): the
/// store probes from its low bits and tags with its high ones.
std::uint64_t memo_key(ManagerTable::Handle state, std::uint64_t input) {
  std::uint64_t x = input ^ (std::uint64_t{state} * 0x9e3779b97f4a7c15ULL);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint8_t slot_of(const proto::ManagerCore& core, config::ProcessId process) {
  const auto& agents = core.agents();
  for (std::size_t i = 0; i < agents.size(); ++i) {
    if (agents[i].first == process) return static_cast<std::uint8_t>(i);
  }
  throw std::out_of_range("ManagerTable: unknown process " + std::to_string(process));
}

}  // namespace

std::uint64_t ManagerTable::timer_input(proto::ManagerTimer timer) {
  return (std::uint64_t{1} << 40) | static_cast<std::uint64_t>(timer);
}

std::uint64_t ManagerTable::delivery_input(config::ProcessId from,
                                           MessageTable::Handle message) {
  return (static_cast<std::uint64_t>(from) << 32) | message;  // process ids are < 64
}

ManagerTable::Handle ManagerTable::intern(const proto::ManagerCore& core) {
  std::uint64_t fingerprint = kFingerprintSeed;
  core.fingerprint(fingerprint);
  return states_.intern(
      fingerprint, [&core](const State& state) { return *state.core == core; },
      [&core, fingerprint](State& state) {
        state.core.emplace(core);
        state.keys.fingerprint = fingerprint;
        state.keys.shared = kFingerprintSeed;
        core.fingerprint_shared(state.keys.shared);
        for (const auto& [process, stage] : core.agents()) {
          state.keys.process_bits.push_back(
              static_cast<std::uint8_t>(core.process_fingerprint(process)));
        }
      });
}

ManagerTable::Handle ManagerTable::run(Handle state, const proto::ManagerInput& input,
                                       MessageTable& messages,
                                       std::vector<proto::Output>& outputs, Effects& effects) {
  proto::ManagerCore next = core(state);
  next.step(input, outputs);
  effects.clear();
  for (const proto::Output& out : outputs) {
    Effect effect;
    switch (out.kind) {
      case proto::OutputKind::Send:
        effect.kind = Effect::Kind::Send;
        effect.slot = slot_of(next, out.process);
        effect.message = messages.intern(out.message);
        break;
      case proto::OutputKind::ArmTimer:
        effect.kind = Effect::Kind::ArmTimer;
        effect.timer = out.timer;
        effect.delay = out.delay;
        break;
      case proto::OutputKind::DisarmTimer:
        effect.kind = Effect::Kind::DisarmTimer;
        effect.timer = out.timer;
        break;
      case proto::OutputKind::StepCommitted:
        effect.kind = Effect::Kind::Commit;
        effect.ref = out.ref;
        effect.config = out.config;
        break;
      case proto::OutputKind::Outcome:
        effect.kind = Effect::Kind::Outcome;
        break;
      default:
        continue;  // spans, notes, and transitions change no model state
    }
    effects.push_back(effect);
  }
  return intern(next);
}

const ManagerTable::Step* ManagerTable::find(Handle state, std::uint64_t input) const {
  const std::optional<Handle> found =
      steps_.find(memo_key(state, input), [state, input](const Memo& memo) {
        return memo.state == state && memo.input == input;
      });
  return found ? &steps_[*found].step : nullptr;
}

const ManagerTable::Step& ManagerTable::record(Handle state, std::uint64_t input, Handle next,
                                               const Effects& effects) {
  const Handle recorded = steps_.intern(
      memo_key(state, input),
      [state, input](const Memo& memo) { return memo.state == state && memo.input == input; },
      [state, input, next, &effects](Memo& memo) {
        memo.state = state;
        memo.input = input;
        memo.step.next = next;
        memo.step.effects.assign(effects.begin(), effects.end());
      });
  return steps_[recorded].step;
}

}  // namespace sa::check
