// The traced per-layer run: the workload untraced and traced, the audit of
// the traced stream, and host-time probes of each layer's public calls,
// sized from the workload.
#pragma once

#include <cstdint>

#include "workloads.hpp"

namespace perfbench {

/// Prints one JSON line {"workload", "seed", "checks", "metrics"}; returns
/// 0 (the checks are judged by run.py).
int RunLayers(const Workload& workload, std::uint64_t seed);

}  // namespace perfbench
