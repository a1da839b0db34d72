#include "components/filter.hpp"

namespace sa::components {

StateSnapshot Filter::refract() const {
  auto snapshot = Component::refract();
  snapshot["processed"] = std::to_string(stats_.processed);
  snapshot["bypassed"] = std::to_string(stats_.bypassed);
  snapshot["dropped"] = std::to_string(stats_.dropped);
  snapshot["processing_time_us"] = std::to_string(processing_time_);
  return snapshot;
}

}  // namespace sa::components
