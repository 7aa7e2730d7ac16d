#pragma once

// The four workloads. Each fills a report with its end-to-end metrics
// (untraced run) or its per-layer metrics (traced run), and counts every
// request it attempted and every one that failed, was refused or gave a
// wrong answer.

#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// plant_cold (dynamic = false) and dynamic_cold (dynamic = true): one
/// fresh analysis_engine per request, closed loop, one request in flight.
report run_cold(const run_config& cfg, bool dynamic);

/// whatif_serve: a seeded what-if request stream against an in-process
/// serve_tcp on loopback, closed loop over three connections.
report run_whatif(const run_config& cfg);

/// etree_uq: compile the event-tree scenario and run it with parameter
/// uncertainty, one request in flight.
report run_etree(const run_config& cfg);

/// Writes the traced run's spans as one JSON object with an array per
/// span log; adds a problem to `r` if the file cannot be written.
void write_spans(report& r, const std::string& path,
                 const std::vector<std::pair<std::string, const span_log*>>&
                     logs);

}  // namespace perfbench
