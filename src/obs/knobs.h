// Run-mode switches: one table, one resolution rule.
//
// Every switch that an environment variable can turn on is one row of
// kKnobs, and every row resolves the same way:
//   1. an explicit config field (>= 0) wins: 0 is off, anything else on;
//   2. otherwise the row's one environment variable, read on every call
//      (so a test can scope an override around one machine or runtime);
//   3. otherwise off.
// The variable accepts 1/on/true/yes and 0/off/false/no in any letter
// case; an empty value counts as unset, and any other value throws
// std::invalid_argument naming the variable and the value. docs/api.md
// carries the same table, and tools/doc_lint.py holds the docs to it.
#pragma once

namespace gpuddt::obs {

enum class Knob { kCheck, kVerify, kStreamTriggered };

struct KnobSpec {
  Knob knob;
  const char* env;  ///< the one environment variable
};

/// One row per env-backed switch, in Knob order. Each comment names the
/// config field its consumer passes to resolve().
inline constexpr KnobSpec kKnobs[] = {
    // sg::MachineConfig::check
    {Knob::kCheck, "GPUDDT_CHECK"},
    // no field
    {Knob::kVerify, "GPUDDT_VERIFY"},
    // mpi::RuntimeConfig::stream_triggered
    {Knob::kStreamTriggered, "GPUDDT_STREAM_TRIGGERED"},
};

/// Resolve `knob`: `field` >= 0 wins, then the environment, then off.
bool resolve(Knob knob, int field = -1);

}  // namespace gpuddt::obs
