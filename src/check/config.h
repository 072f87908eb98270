// Enablement and the process-global diagnostic sink of the checking layer.
//
// Whether a Machine gets an access tracker attached follows the knob rule
// (obs/knobs.h): MachineConfig::check (0/1) wins, then the GPUDDT_CHECK
// environment variable, then off. The bench --check flag sets the
// variable.
//
// Diagnostics from every tracker and validator in the process land in one
// sink: counted without bound, stored up to a cap, echoed to stderr up to
// a smaller cap. report_json() serializes the sink (and the tracker
// aggregate counters) as a `gpuddt-check-v1` document for
// tools/check_report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/diagnostics.h"

namespace gpuddt::check {

/// Resolve enablement for a machine whose config carries `machine_check`
/// (-1 follows GPUDDT_CHECK / 0 off / 1 on).
bool enabled_for(int machine_check);

// --- Diagnostic sink --------------------------------------------------------

/// Record a diagnostic: count it, store it (up to a cap) and echo it to
/// stderr (up to a smaller cap). Thread-safe: the sink is process-global
/// and Runtimes on different threads report into it.
void report(Diagnostic diag);

/// Stored diagnostics (capped copy; counts below are exact).
std::vector<Diagnostic> diagnostics();

/// Exact totals since process start / the last clear.
std::int64_t hazard_count();
std::int64_t violation_count();

/// Drop stored diagnostics and zero the totals (tests).
void clear_diagnostics();

// --- Tracker aggregate counters (all trackers in the process) ---------------

void add_tracked(std::int64_t ops, std::int64_t ranges);
void add_dropped(std::int64_t records);
std::int64_t ops_tracked();
std::int64_t ranges_tracked();
std::int64_t records_dropped();

// --- Report -----------------------------------------------------------------

/// Serialize the sink as a `gpuddt-check-v1` JSON document.
std::string report_json();

/// report_json() into `path`; returns false on I/O failure.
bool write_report(const std::string& path);

}  // namespace gpuddt::check
