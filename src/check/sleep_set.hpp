// DPOR sleep sets (check/engine.hpp, "Reductions"): the entries a frame
// carries, their orbit-stable hash, and the rule that builds a child's set.
//
// A sleep set holds the choices whose subtrees an earlier sibling already
// covers up to reordering of independent choices. An entry keeps only what
// the independence relation reads (ChoiceAccess) and the entry's hash, made
// once per footprint, so a set of four copies as 96 bytes. The engine keys a
// child by the sum of its entries' hashes and builds the set itself only for
// a child the visited set has not seen: the rule below visits the entries in
// set order, and both uses walk it the same way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "check/model.hpp"
#include "util/small_vector.hpp"

namespace sa::check {

/// One sleeping choice: what choices_dependent reads of its footprint, and
/// its orbit-stable hash (sleep_entry_hash).
struct SleepEntry {
  ChoiceAccess access;
  std::uint64_t hash = 0;
};
static_assert(sizeof(SleepEntry) == 24, "a sleep entry is three words");

/// Sleeping entries are always still enabled: independence preserves
/// enabledness, so a quiescent state always has an empty sleep set and leaf
/// accounting is unaffected by DPOR.
using SleepSet = util::SmallVector<SleepEntry, 4>;

/// Orbit-stable hash of one sleeping choice: kind, channel direction, message
/// content / timer slot class, and the *role* fingerprint of the touched
/// agent — deliberately not the process id and not the seq, so two states
/// that canonicalize together under symmetry reduction also hash their sleep
/// sets together, keeping results thread-count independent. A sleep set
/// hashes to the sum of its entries' hashes (order-independent).
inline std::uint64_t sleep_entry_hash(const ChoiceFootprint& fp) {
  std::uint64_t h = 0x2545f4914f6cdd1dULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(static_cast<std::uint64_t>(fp.kind));
  mix(fp.channel_to_manager ? 1 : 0);
  mix(fp.content);
  mix(fp.role);
  return h;
}

inline SleepEntry sleep_entry(const ChoiceFootprint& fp) {
  return SleepEntry{ChoiceAccess::of(fp), sleep_entry_hash(fp)};
}

/// Calls `visit` on each entry of the sleep set of the child that takes
/// awake choice `index` (`awake` holds the frame's awake choices in the order
/// its children are made), in set order: the `inherited` entries that commute
/// with the choice, then every earlier awake sibling that commutes with it —
/// the sibling's subtree covers the reordered schedule. Entries refer to the
/// parent state.
template <typename Visit>
void for_each_child_sleep_entry(const SleepSet& inherited, const std::vector<SleepEntry>& awake,
                                std::size_t index, Visit&& visit) {
  const ChoiceAccess& choice = awake[index].access;
  for (const SleepEntry& s : inherited) {
    if (!choices_dependent(s.access, choice)) visit(s);
  }
  for (std::size_t j = 0; j < index; ++j) {
    if (!choices_dependent(awake[j].access, choice)) visit(awake[j]);
  }
}

}  // namespace sa::check
