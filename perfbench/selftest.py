#!/usr/bin/env python3
"""Self-tests of the benchmark itself. Run from the repository root:

    python3 perfbench/selftest.py [--workloads sweep,steady,mix] [--seed N]

For each workload it checks, on short runs:
  1. corruption: flipping one delivered byte makes the run fail
     (failed > 0, correct false, ok_frac < 1);
  2. determinism: two runs of one seed give bit-identical vt_* metrics,
     and two traced runs bit-identical virtual-clock stage times and
     deterministic counts;
  3. accounting: from the traced run's span dump, recomputed here
     independently of bench.cpp, every layer's self time is at most
     wall_s, and setup_s + the union of the other layers' spans +
     vtime.uncovered_s adds up to wall_s. The tolerance is the glue code
     between spans outside Runtime::run, which no span covers: 0.2% of
     wall_s, at least 0.5 ms.
Exits 0 when every check passes.
"""
import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

DETERMINISTIC = ("vtime.dispatches", "vtime.wakeups", "vtime.yields",
                 "core.units_converted", "protocols.fragments",
                 "protocols.rdma_pipelined", "protocols.host_staged",
                 "mpi.pml_ops", "mpi.pml_bytes", "mpi.types_built")
SETUP_LAYERS = ("simgpu.setup", "simgpu.teardown", "mpi.type_build")


def merged(ivs):
    out = []
    for b, e in sorted(ivs):
        if e <= b:
            continue
        if out and b <= out[-1][1]:
            out[-1][1] = max(out[-1][1], e)
        else:
            out.append([b, e])
    return out


def subtract(a, b):
    """a minus b, both merged."""
    out, j = [], 0
    for lo, hi in a:
        while j < len(b) and b[j][1] <= lo:
            j += 1
        k = j
        while k < len(b) and b[k][0] < hi:
            if b[k][0] > lo:
                out.append([lo, b[k][0]])
            lo = max(lo, b[k][1])
            k += 1
        if lo < hi:
            out.append([lo, hi])
    return out


def length(m):
    return sum(e - b for b, e in m)


def accounting(dump, wall_s):
    """Recompute the pass's split from its raw spans; returns failures."""
    spans = dump["spans"]
    verify = merged([(s[1], s[2]) for s in spans if s[0] == "bench.verify"])

    def eff(ivs):
        return length(subtract(merged(ivs), verify)) * 1e-9

    wall = (dump["t1"] - dump["t0"]) * 1e-9 - length(verify) * 1e-9
    children = [[] for _ in spans]
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    self_by_layer, errors = {}, []
    for i, s in enumerate(spans):
        if s[0] == "bench.verify":
            continue
        rest = subtract([[s[1], s[2]]], merged(children[i]))
        self_by_layer.setdefault(s[0], []).extend(rest)
    for layer, ivs in self_by_layer.items():
        if eff(ivs) > wall_s:
            errors.append(f"{layer} self time {eff(ivs):.6f} s > wall_s")
    live = [s for s in spans if s[0] != "bench.verify"]
    setup = merged([(s[1], s[2]) for s in live if s[0] in SETUP_LAYERS])
    setup_s = eff(setup)
    run_s = eff([(s[1], s[2]) for s in live if s[0] == "vtime.run"])
    inside_s = eff([(s[1], s[2]) for s in live if s[4] >= 0])
    uncovered_s = run_s - inside_s
    others = merged([(s[1], s[2]) for s in live
                     if s[0] not in SETUP_LAYERS and s[0] != "vtime.run"])
    busy_s = length(subtract(subtract(others, setup), verify)) * 1e-9
    total = setup_s + busy_s + uncovered_s
    tol = max(5e-4, 2e-3 * wall_s)
    if abs(wall - wall_s) > 1e-6:
        errors.append(f"span timeline {wall:.6f} s != reported wall_s")
    if abs(total - wall_s) > tol:
        errors.append(f"setup {setup_s:.6f} + layers {busy_s:.6f} + "
                      f"uncovered {uncovered_s:.6f} = {total:.6f} s, "
                      f"wall_s {wall_s:.6f} s (tolerance {tol:.6f})")
    for key, mine in (("setup_s", setup_s), ("busy_s", busy_s),
                      ("uncovered_s", uncovered_s)):
        if abs(dump[key] - mine) > 1e-6:
            errors.append(f"reported {key} {dump[key]} != recomputed {mine}")
    return errors


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=1)
    a = ap.parse_args()
    binary = run.build()
    out_dir = os.path.join(run.build_dir(), "selftest")
    os.makedirs(out_dir, exist_ok=True)
    failures = []

    def go(workload, *extra, trace=0):
        args = ["--workload", workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(trace),
                "--report-dir", out_dir] + list(extra)
        code, stdout = run.run_bench(binary, args)
        if code != 0:
            raise SystemExit(f"benchmark failed ({code}) on {args}")
        return run.result_of(stdout)

    for w in a.workloads.split(","):
        def check(ok, what):
            print(f"{'ok  ' if ok else 'FAIL'} {w}: {what}", flush=True)
            if not ok:
                failures.append(f"{w}: {what}")

        bad = go(w, "--inject-corruption")
        check(bad["failed"] > 0 and not bad["correct"] and
              bad["metrics"]["ok_frac"]["value"] < 1,
              f"one flipped byte fails the run (failed={bad['failed']})")

        r1, r2 = go(w), go(w)
        for r in (r1, r2):
            check(r["correct"] and r["failed"] == 0, "clean run is correct")
        vt = [k for k in r1["metrics"] if k.startswith("vt_")]
        same = all(r1["metrics"][k] == r2["metrics"][k] for k in vt)
        check(same, "vt_* metrics bit-identical across two runs of a seed")

        spans = [os.path.join(out_dir, f"spans-{w}-{i}.json")
                 for i in (1, 2)]
        t1 = go(w, "--spans-out", spans[0], trace=1)
        t2 = go(w, "--spans-out", spans[1], trace=1)
        keys = [k for k in t1["metrics"]
                if k.startswith("vt.stage.") or k in DETERMINISTIC]
        diff = [k for k in keys
                if t1["metrics"][k] != t2["metrics"][k]]
        check(not diff, "virtual stage times and counts bit-identical "
              f"across two traced runs {diff or ''}")
        check(t1["metrics"]["obs.flowstats_lost"]["value"] == 0,
              "no flow lost by the latency engine")
        with open(spans[0]) as f:
            dump = json.load(f)
        errs = accounting(dump, dump["wall_s"])
        check(not errs, "fiber-aware accounting adds up "
              + ("; ".join(errs) if errs else ""))

    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
