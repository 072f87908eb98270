// Canonical serialization of gpuddt-metrics-v1 dumps.
//
// Two dumps of the same run must compare byte-for-byte, so the
// determinism harness (tools/determinism_check) and the baseline gate
// (metrics_diff --gate --baseline) both reduce dumps to one canonical
// form before comparing:
//
//   - only the `schema`, `counters` and `histograms` sections survive;
//     the `trace` section is diagnostic payload (event capture is bounded
//     and --trace is opt-in), not a gated metric, and is dropped;
//   - `check.*` metrics are dropped: they come from the optional access
//     checker (GPUDDT_CHECK / --check), so keeping them would make the
//     canonical text depend on whether the checker ran;
//   - object keys are sorted (json::Object is a std::map, so parsing
//     alone establishes this);
//   - numbers print as integers whenever they are exactly representable
//     as one, and as max-precision doubles ("%.17g") otherwise, so the
//     text never depends on who serialized the value first.
//
// docs/determinism.md describes the rules and how the baselines under
// bench/baselines/ are regenerated.
#pragma once

#include <string>

#include "obs/json.h"

namespace gpuddt::obs {

/// Canonical text of a parsed gpuddt-metrics-v1 dump. Throws
/// std::runtime_error when `doc` lacks the schema marker or either
/// metrics section.
std::string canonical_metrics(const json::Value& doc);

/// Canonical text of a parsed gpuddt-latency-v1 report (obs/flowstats.h,
/// docs/latency.md): fixed section order (schema, flowstats, classes),
/// sorted keys inside each section, the same number-printing rules as
/// canonical_metrics. FlowStats::to_json() emits exactly this form, so
/// serialize -> parse -> canonicalize is byte-idempotent. Throws
/// std::runtime_error when `doc` is not a latency report.
std::string canonical_latency(const json::Value& doc);

/// Schema-dispatching canonicalizer: gpuddt-latency-v1 documents go
/// through canonical_latency, everything else through canonical_metrics
/// (which rejects unknown schemas). The determinism harness and the
/// baseline gate use this so metrics dumps and latency reports share one
/// --gate / --canon path.
std::string canonical_report(const json::Value& doc);

}  // namespace gpuddt::obs
