#include "obs/canon.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace gpuddt::obs {

namespace {

void append_number(std::string& out, double v) {
  char buf[48];
  // Counters and histogram fields are int64 at the source; print them
  // back as integers so the canonical text matches the exporter's.
  // 2^53 bounds exact integer representation in a double.
  if (std::nearbyint(v) == v && std::fabs(v) < 9007199254740992.0) {
    std::snprintf(buf, sizeof(buf), "%" PRId64,
                  static_cast<std::int64_t>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  out += buf;
}

void write_value(std::string& out, const json::Value& v) {
  switch (v.kind()) {
    case json::Value::Kind::kNull:
      out += "null";
      return;
    case json::Value::Kind::kBool:
      out += v.as_bool() ? "true" : "false";
      return;
    case json::Value::Kind::kNumber:
      append_number(out, v.as_double());
      return;
    case json::Value::Kind::kString:
      out += '"';
      out += json::escape(v.as_string());
      out += '"';
      return;
    case json::Value::Kind::kArray: {
      out += '[';
      bool first = true;
      for (const json::Value& e : v.as_array()) {
        if (!first) out += ",";
        first = false;
        write_value(out, e);
      }
      out += ']';
      return;
    }
    case json::Value::Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, e] : v.as_object()) {
        if (!first) out += ",";
        first = false;
        out += '"';
        out += json::escape(key);
        out += "\":";
        write_value(out, e);
      }
      out += '}';
      return;
    }
  }
}

/// One "name": value line per metric keeps mismatch reports (and text
/// diffs of checked-in baselines) readable.
/// Metrics produced by the optional access checker, not by the simulated
/// program. GPUDDT_CHECK=1 runs (ci.sh stage 2) attach the checker to
/// every machine, so keeping these would make the canonical text depend
/// on the run configuration instead of on program behavior.
bool instrumentation_metric(const std::string& key) {
  // verify.prover_ns is wall-clock prover time (src/verify/hook.cpp) -
  // real host nanoseconds, never deterministic across runs. The other
  // verify.* counters are pure counts and stay canonical. sim.wall_ns
  // and sim.vns_per_wall_s (bench_sim_throughput) are likewise real
  // host time; the rest of the sim.* family (dispatches, wakeups,
  // yields, virtual_ns) is deterministic and stays canonical.
  return key.rfind("check.", 0) == 0 || key == "verify.prover_ns" ||
         key == "sim.wall_ns" || key == "sim.vns_per_wall_s";
}

void write_section(std::string& out, const char* name,
                   const json::Object& section) {
  out += "  \"";
  out += name;
  out += "\": {";
  bool first = true;
  for (const auto& [key, v] : section) {
    if (instrumentation_metric(key)) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json::escape(key) + "\": ";
    write_value(out, v);
  }
  out += first ? "}" : "\n  }";
}

}  // namespace

std::string canonical_metrics(const json::Value& doc) {
  if (!doc.is_object() || !doc.contains("schema") ||
      doc.at("schema").as_string() != "gpuddt-metrics-v1") {
    throw std::runtime_error(
        "canonical_metrics: not a gpuddt-metrics-v1 dump");
  }
  if (!doc.contains("counters") || !doc.contains("histograms")) {
    throw std::runtime_error(
        "canonical_metrics: dump lacks counters/histograms sections");
  }
  std::string out;
  out.reserve(4096);
  out += "{\n  \"schema\": \"gpuddt-metrics-v1\",\n";
  write_section(out, "counters", doc.at("counters").as_object());
  out += ",\n";
  write_section(out, "histograms", doc.at("histograms").as_object());
  out += "\n}\n";
  return out;
}

std::string canonical_latency(const json::Value& doc) {
  if (!doc.is_object() || !doc.contains("schema") ||
      doc.at("schema").as_string() != "gpuddt-latency-v1") {
    throw std::runtime_error(
        "canonical_latency: not a gpuddt-latency-v1 report");
  }
  if (!doc.contains("flowstats") || !doc.contains("classes")) {
    throw std::runtime_error(
        "canonical_latency: report lacks flowstats/classes sections");
  }
  std::string out;
  out.reserve(4096);
  out += "{\n  \"schema\": \"gpuddt-latency-v1\",\n";
  write_section(out, "flowstats", doc.at("flowstats").as_object());
  out += ",\n";
  write_section(out, "classes", doc.at("classes").as_object());
  out += "\n}\n";
  return out;
}

std::string canonical_report(const json::Value& doc) {
  if (doc.is_object() && doc.contains("schema") &&
      doc.at("schema").is_string() &&
      doc.at("schema").as_string() == "gpuddt-latency-v1") {
    return canonical_latency(doc);
  }
  return canonical_metrics(doc);
}

}  // namespace gpuddt::obs
