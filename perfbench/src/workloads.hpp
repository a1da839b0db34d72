// The four workloads. Each runs its set-up `RunConfig::setups` times, then a
// timed phase of `RunConfig::seconds`, checks its correctness gates, and
// fills the six end-to-end metrics; with `RunConfig::traced` it also times
// calls into each layer it loads and fills `Report::layers`.
#pragma once

#include "common.hpp"

namespace pb {

Report run_codec_swap(const RunConfig& cfg);
Report run_fleet_wave(const RunConfig& cfg);
Report run_map_socket(const RunConfig& cfg);
Report run_check_pair(const RunConfig& cfg);

}  // namespace pb
