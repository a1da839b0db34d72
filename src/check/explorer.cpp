#include "check/explorer.hpp"

#include <stdexcept>
#include <utility>

#include "obs/export.hpp"
#include "util/json.hpp"

namespace sa::check {

Model make_model(const Scenario& scenario, const ExploreOptions& options) {
  Model model(scenario,
              Model::Limits{options.drop_budget, options.dup_budget, options.reorder},
              options.fault);
  for (const config::ProcessId process : options.fail_to_reset) {
    model.set_fail_to_reset(process, true);
  }
  model.start();
  return model;
}

ReplayResult replay(const Scenario& scenario, const ExploreOptions& options,
                    const std::vector<Choice>& schedule) {
  Model model = make_model(scenario, options);
  ReplayResult result;
  for (const Choice& choice : schedule) {
    if (!model.apply(choice)) {
      result.schedule_valid = false;
      break;
    }
  }
  // Counterexample schedules stop at the violating choice; only a schedule
  // that actually drained the run gets the end-of-run checks.
  if (result.schedule_valid && model.choices().empty()) model.finalize();
  result.violations = model.violations();
  if (model.outcome() != nullptr) result.outcome = *model.outcome();
  result.transitions = model.transitions();
  return result;
}

// --- ManagerFault names -----------------------------------------------------

const char* to_string(proto::ManagerFault fault) {
  switch (fault) {
    case proto::ManagerFault::None: return "none";
    case proto::ManagerFault::ResumeBeforeLastAdaptDone: return "resume-before-last-adapt-done";
    case proto::ManagerFault::RollbackAfterResume: return "rollback-after-resume";
  }
  return "?";
}

proto::ManagerFault fault_from_string(std::string_view name) {
  if (name == "none") return proto::ManagerFault::None;
  if (name == "resume-before-last-adapt-done" || name == "resume-early") {
    return proto::ManagerFault::ResumeBeforeLastAdaptDone;
  }
  if (name == "rollback-after-resume") return proto::ManagerFault::RollbackAfterResume;
  throw std::invalid_argument("unknown fault: " + std::string(name));
}

// --- JSON schedule files ----------------------------------------------------

std::string to_json(const ScheduleFile& file) {
  std::string json;
  json += "{\n  \"scenario\": \"";
  json += obs::json_escape(file.scenario);
  json += "\",\n  \"options\": {";
  json += "\"max_depth\": " + std::to_string(file.options.max_depth);
  json += ", \"max_states\": " + std::to_string(file.options.max_states);
  json += ", \"drop_budget\": " + std::to_string(file.options.drop_budget);
  json += ", \"dup_budget\": " + std::to_string(file.options.dup_budget);
  json += std::string(", \"reorder\": ") + (file.options.reorder ? "true" : "false");
  json += std::string(", \"fault\": \"") + to_string(file.options.fault) + "\"";
  json += ", \"threads\": " + std::to_string(file.options.threads);
  json += std::string(", \"dpor\": ") + (file.options.dpor ? "true" : "false");
  json += std::string(", \"symmetry\": ") + (file.options.symmetry ? "true" : "false");
  json += ", \"fail_to_reset\": [";
  for (std::size_t i = 0; i < file.options.fail_to_reset.size(); ++i) {
    if (i != 0) json += ", ";
    json += std::to_string(file.options.fail_to_reset[i]);
  }
  json += "]},\n  \"schedule\": [";
  for (std::size_t i = 0; i < file.schedule.size(); ++i) {
    if (i != 0) json += ", ";
    json += "{\"kind\": \"";
    json += to_string(file.schedule[i].kind);
    json += "\", \"seq\": ";
    json += std::to_string(file.schedule[i].seq);
    json += "}";
  }
  json += "],\n  \"violations\": [";
  for (std::size_t i = 0; i < file.violations.size(); ++i) {
    if (i != 0) json += ", ";
    json += "\"";
    json += obs::json_escape(file.violations[i]);
    json += "\"";
  }
  json += "]\n}\n";
  return json;
}

ScheduleFile schedule_from_json(const std::string& text) {
  using Value = util::JsonValue;
  const Value root = util::parse_json(text, "schedule JSON");
  if (root.type != Value::Type::Object) throw std::runtime_error("schedule JSON: not an object");

  ScheduleFile file;
  if (const Value* scenario = root.find("scenario")) file.scenario = scenario->string;
  if (file.scenario.empty()) throw std::runtime_error("schedule JSON: missing scenario");

  if (const Value* options = root.find("options")) {
    auto number = [options](const char* key, auto fallback) {
      const Value* v = options->find(key);
      return v != nullptr ? static_cast<decltype(fallback)>(v->number) : fallback;
    };
    file.options.max_depth = number("max_depth", file.options.max_depth);
    file.options.max_states = number("max_states", file.options.max_states);
    file.options.drop_budget = number("drop_budget", file.options.drop_budget);
    file.options.dup_budget = number("dup_budget", file.options.dup_budget);
    file.options.threads = number("threads", file.options.threads);
    if (const Value* reorder = options->find("reorder")) file.options.reorder = reorder->boolean;
    if (const Value* dpor = options->find("dpor")) file.options.dpor = dpor->boolean;
    if (const Value* symmetry = options->find("symmetry")) {
      file.options.symmetry = symmetry->boolean;
    }
    if (const Value* fault = options->find("fault")) {
      file.options.fault = fault_from_string(fault->string);
    }
    if (const Value* fail = options->find("fail_to_reset")) {
      for (const Value& v : fail->array) {
        file.options.fail_to_reset.push_back(static_cast<config::ProcessId>(v.number));
      }
    }
  }

  if (const Value* schedule = root.find("schedule")) {
    for (const Value& entry : schedule->array) {
      Choice choice;
      const Value* kind = entry.find("kind");
      const Value* seq = entry.find("seq");
      if (kind == nullptr || seq == nullptr) {
        throw std::runtime_error("schedule JSON: schedule entry missing kind/seq");
      }
      if (kind->string == "deliver") {
        choice.kind = Choice::Kind::Deliver;
      } else if (kind->string == "drop") {
        choice.kind = Choice::Kind::Drop;
      } else if (kind->string == "duplicate") {
        choice.kind = Choice::Kind::Duplicate;
      } else if (kind->string == "fire") {
        choice.kind = Choice::Kind::Fire;
      } else {
        throw std::runtime_error("schedule JSON: unknown choice kind " + kind->string);
      }
      choice.seq = static_cast<std::uint64_t>(seq->number);
      file.schedule.push_back(choice);
    }
  }

  if (const Value* violations = root.find("violations")) {
    for (const Value& v : violations->array) file.violations.push_back(v.string);
  }
  return file;
}

}  // namespace sa::check
