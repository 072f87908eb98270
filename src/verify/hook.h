// GPUDDT_VERIFY - the verifier's opt-in DevCache-insert hook.
//
// When enabled, every DEV unit list inserted into a DevCache (engine
// finish-path fills and prefetches alike) is first certified by the
// symbolic prover: verify_type over the datatype's three
// representations, then verify_dev over the exact unit list. An
// unproven obligation reports a structured diagnostic into the
// src/check/ sink and throws CertificationFailure - an uncertified DEV
// never becomes reachable from the cache.
//
// Enablement follows the knob rule (obs/knobs.h): the GPUDDT_VERIFY
// environment variable, else off. It has no config field.
//
// Certification traffic is observable through the verify.* counters
// (docs/metrics.md): obligations proved/failed, DEVs
// certified/rejected, and wall-clock prover time (verify.prover_ns -
// excluded from canonical dumps, like check.*, because it is
// instrumentation, not simulated behavior).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>

#include "core/dev.h"

namespace gpuddt::obs {
class Recorder;
}

namespace gpuddt::verify {

class CertificationFailure : public std::runtime_error {
 public:
  explicit CertificationFailure(const std::string& what)
      : std::runtime_error(what) {}
};

/// Resolved enablement: GPUDDT_VERIFY, else off.
bool enabled();

/// Certify (dt, count, unit_bytes) -> units at a cache-insert boundary.
/// Counts verify.* metrics into `rec` (nullable) and throws
/// CertificationFailure on the first unproven obligation. Callers gate
/// on enabled().
void certify_insert(const mpi::DatatypePtr& dt, std::int64_t count,
                    std::int64_t unit_bytes,
                    std::span<const core::CudaDevDist> units,
                    obs::Recorder* rec);

}  // namespace gpuddt::verify
