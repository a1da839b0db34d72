#include "proto/messages.hpp"

namespace sa::proto {

std::string LocalCommand::describe(const config::ComponentRegistry& registry) const {
  std::string out;
  const auto list = [&out](char sign, const std::vector<std::string>& names) {
    for (const std::string& name : names) {
      if (!out.empty()) out += ' ';
      out += sign + name;
    }
  };
  list('-', remove.names(registry));
  list('+', add.names(registry));
  return out.empty() ? "(no-op)" : out;
}

std::string StepRef::describe() const {
  return "req" + std::to_string(request_id) + ".plan" + std::to_string(plan) + ".step" +
         std::to_string(step_index) + ".try" + std::to_string(attempt);
}

}  // namespace sa::proto
