#include "verify/hook.h"

#include <chrono>
#include <string>

#include "check/config.h"
#include "obs/knobs.h"
#include "obs/recorder.h"
#include "verify/verifier.h"

namespace gpuddt::verify {

namespace {

/// Count one report's obligations and surface any failure as a
/// diagnostic; returns true when the report certifies.
bool account(const Report& rep, obs::Recorder* rec) {
  std::int64_t proved = 0;
  std::int64_t failed = 0;
  for (const Obligation& o : rep.obligations) {
    (o.proved ? proved : failed)++;
  }
  obs::count(rec, "verify.obligations.proved", proved);
  if (failed > 0) obs::count(rec, "verify.obligations.failed", failed);
  return failed == 0;
}

}  // namespace

bool enabled() { return obs::resolve(obs::Knob::kVerify); }

void certify_insert(const mpi::DatatypePtr& dt, std::int64_t count,
                    std::int64_t unit_bytes,
                    std::span<const core::CudaDevDist> units,
                    obs::Recorder* rec) {
  // Wall clock, not the virtual clock: the prover is tooling overhead,
  // never part of the simulated program. The counter is dropped from
  // canonical metric dumps (obs/canon.cpp) for exactly that reason.
  // det-lint: allow(wall_clock) - instrumentation-only, canon-excluded
  const auto t0 = std::chrono::steady_clock::now();
  const Report type_rep = verify_type(*dt);
  const Report dev_rep = verify_dev(*dt, count, unit_bytes, units);
  const bool type_ok = account(type_rep, rec);
  const bool dev_ok = account(dev_rep, rec);
  const bool ok = type_ok && dev_ok;
  // det-lint: allow(wall_clock) - instrumentation-only, canon-excluded
  const auto t1 = std::chrono::steady_clock::now();
  obs::count(rec, "verify.prover_ns",
             std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                 .count());
  if (ok) {
    obs::count(rec, "verify.devs.certified");
    return;
  }
  obs::count(rec, "verify.devs.rejected");
  const Report& bad = type_rep.certified() ? dev_rep : type_rep;
  const Obligation* o = bad.first_failed();
  check::Diagnostic diag;
  diag.kind = "verify";
  diag.type = o->name;
  diag.message = "verify: obligation '" + o->name + "' unproven for " +
                 bad.subject + ": " + o->detail;
  check::report(diag);
  throw CertificationFailure(diag.message);
}

}  // namespace gpuddt::verify
