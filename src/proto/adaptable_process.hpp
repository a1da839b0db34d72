// The interface an agent uses to drive its local process through an
// adaptation step (paper §3.1: pre-action, in-action, post-action; §5.2:
// resetting / blocking / resuming a MetaSocket).
//
// Concrete implementations: FilterChainProcess (below) adapts a single
// MetaSocket-style FilterChain; the video library builds its server and
// clients on it; tests use scripted stubs to inject fail-to-reset and
// in-action failures.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "components/filter_chain.hpp"
#include "proto/messages.hpp"

namespace sa::proto {

class AdaptableProcess {
 public:
  virtual ~AdaptableProcess() = default;

  /// Pre-action: prepare (e.g. instantiate and initialize) the components
  /// in command.add. Runs while the process is still fully operational
  /// — pre-actions must not interfere with functional behaviour. Returns
  /// false when preparation fails (unknown component, resource exhaustion).
  virtual bool prepare(const LocalCommand& command) = 0;

  /// Drive the process to its local safe state; when `drain` is set, also to
  /// the global safe condition (everything received has been processed).
  /// Invoke `reached` once there — the process must then be blocked.
  virtual void reach_safe_state(bool drain, std::function<void()> reached) = 0;

  /// Abandon a pending reach_safe_state / unblock without adapting
  /// (rollback taken while resetting or safe).
  virtual void abort_safe_state() = 0;

  /// In-action: alter the process structure. Called only while blocked.
  /// Atomic from the process's perspective. Returns false on failure.
  virtual bool apply(const LocalCommand& command) = 0;

  /// Undo a *successful* apply() (rollback taken in the adapted state).
  virtual bool undo(const LocalCommand& command) = 0;

  /// Resume full operation (drains anything queued while blocked).
  virtual void resume() = 0;

  /// Post-action: destroy old components etc. Runs after resume; must not
  /// interfere with functional behaviour.
  virtual void cleanup(const LocalCommand& command) { (void)command; }
};

/// An AdaptableProcess with no application behind it, for runs of the protocol
/// alone: every action succeeds and the safe state is reached at once.
struct ObedientProcess : AdaptableProcess {
  bool prepare(const LocalCommand&) override { return true; }
  void reach_safe_state(bool, std::function<void()> reached) override { reached(); }
  void abort_safe_state() override {}
  bool apply(const LocalCommand&) override { return true; }
  bool undo(const LocalCommand&) override { return true; }
  void resume() override {}
};

/// Creates filter instances by component name — the agent's pre-action uses
/// it to build the components an in-action will insert.
using FilterFactory = std::function<components::FilterPtr(const std::string& name)>;

/// AdaptableProcess over one FilterChain: removals/additions are filter
/// removals/insertions on the chain; safe state is chain quiescence. Masks name
/// filters through `registry` (which must outlive the process); prepare()
/// refuses a command naming a component that `process` does not host.
class FilterChainProcess : public AdaptableProcess {
 public:
  FilterChainProcess(components::FilterChain& chain, const config::ComponentRegistry& registry,
                     config::ProcessId process, FilterFactory factory);

  bool prepare(const LocalCommand& command) override;
  void reach_safe_state(bool drain, std::function<void()> reached) override;
  void abort_safe_state() override;
  bool apply(const LocalCommand& command) override;
  bool undo(const LocalCommand& command) override;
  void resume() override;
  void cleanup(const LocalCommand& command) override;

  components::FilterChain& chain() { return *chain_; }

 private:
  components::FilterChain* chain_;
  const config::ComponentRegistry* registry_;
  config::ProcessId process_;
  FilterFactory factory_;
  /// Components instantiated by prepare(), keyed by name, awaiting apply().
  std::map<std::string, components::FilterPtr> staged_;
  /// Components removed by apply(), kept for undo()/cleanup().
  std::map<std::string, components::FilterPtr> removed_;
};

}  // namespace sa::proto
