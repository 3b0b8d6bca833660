#!/usr/bin/env python3
"""Benchmark of the NPB suite: builds it, runs one workload, checks it, reports.

    python3 perfbench/run.py --workload paper-S --seed 1 --seconds 30 --trace 0

Run from the repository root.  The suite is built from source with the
repository's own CMake project into .bench_build/ (or $CARGO_TARGET_DIR),
then the runner npb_perfbench runs the workload's cells in shuffled passes.
With --trace 0 every pass is untraced and the end-to-end metrics are
reported; with --trace 1 untraced and traced passes alternate, the layer
probes run, and the per-layer metrics are reported.  Human-readable lines
come first; the last line of standard output is the JSON result.  See
README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

PAPER_SEVEN = ["BT", "SP", "LU", "FT", "IS", "CG", "MG"]
STRUCTURED = {"BT", "SP", "LU", "FT", "MG"}
# The paper's Java/Fortran serial ratios (section 5.1).
PAPER_RATIO = {True: (2.6, 10.0), False: (1.5, 3.5)}


def cells(benches, cls, modes, threads):
    return [(b, cls, m, t) for b in benches for m in modes for t in threads]


# NPB inputs are fixed by class; a workload is a list of cells
# (benchmark, class, mode, threads).  Threads never exceed the 4 CPUs.
WORKLOADS = {
    # The paper's Table 2-6 matrix at class S: short steps, so dispatch and
    # barriers are a large share; the only workload running the Checked
    # array policy (java) and the simd kernels (vec).
    "paper-S": cells(PAPER_SEVEN, "S", ["native", "java", "vec"], [0, 1, 4]),
    # Structured-grid solvers and stencils at class W: compute and memory
    # bound, long steps, LU's wavefront pipeline at 4 threads, no RNG.
    # LU does not run at one thread: it would add 6 s a pass for an
    # overhead paper-S already measures on LU.
    "grid-W": cells(["BT", "MG"], "W", ["native"], [0, 1, 4])
    + cells(["LU"], "W", ["native"], [0, 4]),
    # RNG inside the timed region (EP) and in set-up (FT, IS, CG), with the
    # irregular-access codes CG and IS.
    "rng-W": cells(["EP", "FT", "IS", "CG"], "W", ["native"], [0, 1, 4]),
}

MIN_PASSES = 3       # a median needs at least three samples per cell
TRACED_MIN_PASSES = 2  # one untraced and one traced pass
PLAN_PASSES = 100    # more passes than any run can use


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_quiet(cmd, tmp):
    """Runs a build step, keeping its output off stdout; exits on failure."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, env=dict(os.environ, TMPDIR=tmp))
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        log("perfbench: build step failed: " + " ".join(cmd))
        sys.exit(1)


def build():
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    npb_dir = os.path.join(out, "npb")
    bench_dir = os.path.join(out, "perfbench")
    tmp = os.path.join(out, "tmp")  # compiler scratch stays in the checkout
    os.makedirs(tmp, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(npb_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", ROOT, "-B", npb_dir, "-DCMAKE_BUILD_TYPE=Release"], tmp)
    run_quiet(["cmake", "--build", npb_dir, "--target", "npb_suite", "-j", jobs], tmp)
    if not os.path.exists(os.path.join(bench_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", bench_dir,
                   "-DCMAKE_BUILD_TYPE=Release", "-DNPB_BUILD_DIR=" + npb_dir], tmp)
    run_quiet(["cmake", "--build", bench_dir, "-j", jobs], tmp)
    return os.path.join(bench_dir, "npb_perfbench")


def drive(binary, plan_lines, seconds, min_passes, probes):
    """Runs npb_perfbench on a plan and returns its records."""
    cmd = [binary, "--seconds", str(seconds), "--min-passes", str(min_passes)]
    if probes:
        cmd.append("--probes")
    proc = subprocess.run(cmd, input="\n".join(plan_lines) + "\n",
                          stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        log("perfbench: npb_perfbench exited with %d" % proc.returncode)
        sys.exit(1)
    return [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]


def token(cell):
    return "%s:%s:%s:%d" % cell


def key(rec):
    return (rec["bench"], rec["cls"], rec["mode"], rec["threads"])


def passed(rec):
    """A cell counts only when it ran, verified, and met a frozen reference."""
    return not rec["error"] and rec["verified"] and rec["reference_checked"]


class Sweep:
    """Per-cell samples of one run, failed cell runs set aside."""

    def __init__(self, records):
        self.cell_recs = [r for r in records if r["rec"] == "cell"]
        self.probes = {r["name"]: r for r in records if r["rec"] == "probe"}
        self.proc = next(r for r in records if r["rec"] == "proc")
        self.attempted = len(self.cell_recs)
        self.failures = [r for r in self.cell_recs if not passed(r)]
        self.ok = {}
        for r in self.cell_recs:
            if passed(r):
                self.ok.setdefault((r["traced"], key(r)), []).append(r)

    def median(self, traced, cell, field):
        return statistics.median(r[field] for r in self.ok[(traced, cell)])

    def cells(self, traced):
        return sorted(c for t, c in self.ok if t == traced)

    def sum_seconds(self, traced, threads):
        """Sum over passing cells at `threads` of the per-cell median."""
        return sum(self.median(traced, c, "seconds")
                   for c in self.cells(traced) if c[3] == threads)

    def setup(self, traced):
        return sum(statistics.median(r["wall"] - r["seconds"] for r in self.ok[(traced, c)])
                   for c in self.cells(traced))

    def peak_rss_kb(self, traced):
        """The largest per-cell median of the cell process's peak RSS."""
        return max(self.median(traced, c, "maxrss_kb") for c in self.cells(traced))

    def obs(self, cell, field):
        return statistics.median(r["obs"][field] for r in self.ok[(1, cell)])


def selftest(binary):
    """Forces one cell to fail and checks that the accounting counts it."""
    fail, good = ("CG", "S", "native", 4), ("CG", "S", "native", 1)
    sweep = Sweep(drive(binary, ["U %s:fail %s" % (token(fail), token(good))], 0, 1, False))
    ok = (sweep.attempted == 2 and len(sweep.failures) == 1
          and key(sweep.failures[0]) == fail and sweep.sum_seconds(0, 4) == 0.0
          and sweep.sum_seconds(0, 1) > 0.0)
    if not ok:
        log("perfbench: self-test failed: a forced failure was not accounted")
        sys.exit(1)


def make_plan(workload, seed, trace):
    """Shuffled passes: the seed orders cells and passes, never NPB inputs."""
    rng = random.Random(seed)
    tokens = [token(c) for c in WORKLOADS[workload]]
    kinds = []
    while len(kinds) < PLAN_PASSES:
        kinds += rng.sample(["U", "T"], 2) if trace else ["U"]
    lines = []
    for kind in kinds:
        rng.shuffle(tokens)
        lines.append(kind + " " + " ".join(tokens))
    return lines


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(sweep):
    return {
        "serial_s": metric(sweep.sum_seconds(0, 0), "s"),
        "t1_s": metric(sweep.sum_seconds(0, 1), "s"),
        "t4_s": metric(sweep.sum_seconds(0, 4), "s"),
        "setup_s": metric(sweep.setup(0), "s"),
        "peak_rss_mb": metric(sweep.peak_rss_kb(0) / 1024.0, "MiB"),
    }


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def mode_ratios(sweep, traced, mode):
    """Serial time of `mode` over native, per benchmark that ran both."""
    out = {}
    for c in sweep.cells(traced):
        native = (c[0], c[1], "native", 0)
        if c[2] == mode and c[3] == 0 and (traced, native) in sweep.ok:
            out[c[0]] = sweep.median(traced, c, "seconds") / sweep.median(traced, native, "seconds")
    return out


def overhead_1t(sweep, traced):
    """Threads=1 time over serial time, summed over the cells that have both."""
    pairs = [(c, c[:3] + (0,)) for c in sweep.cells(traced) if c[3] == 1]
    return (sum(sweep.median(traced, c, "seconds") for c, _ in pairs)
            / sum(sweep.median(traced, s, "seconds") for _, s in pairs))


def efficiency_4t(sweep, traced):
    return sweep.sum_seconds(traced, 0) / (4 * sweep.sum_seconds(traced, 4))


def paper_summary(sweep, traced):
    """The paper's own quantities from this sweep (ungated)."""
    lines = []
    for mode, layer in (("java", "array"), ("vec", "simd")):
        ratios = mode_ratios(sweep, traced, mode)
        for b, r in sorted(ratios.items()):
            paper = ""
            if mode == "java":
                paper = " (paper, %s: %.1f-%.1f)" % (
                    ("structured grid",) + PAPER_RATIO[True] if b in STRUCTURED
                    else ("unstructured",) + PAPER_RATIO[False])
            lines.append("%s.%s.%s_native_ratio %.3f%s" % (layer, b, mode, r, paper))
        if ratios:
            lines.append("%s.%s_native_ratio %.3f (geometric mean)"
                         % (layer, mode, geomean(ratios.values())))
    lines.append("par.overhead_1t %.3f (paper: 1.10-1.20)" % overhead_1t(sweep, traced))
    lines.append("par.efficiency_4t %.3f" % efficiency_4t(sweep, traced))
    return lines


def probe_median(sweep, name):
    return statistics.median(sweep.probes[name]["samples"])


def per_layer(sweep):
    """Per-layer metrics of a traced run, plus detail lines for the log."""
    traced = sweep.cells(1)
    t4 = [c for c in traced if c[3] == 4]
    detail = ["cell.%s.%s.t%d_s %.6f" % (c[0], c[2], c[3], sweep.median(1, c, "seconds"))
              for c in traced]

    mop = {}
    for c in traced:
        # mops * seconds is the operation count; rounding to 9 digits drops
        # the last-bit noise of the division inside npb_perfbench.
        mop[c[0]] = float("%.9g" % statistics.median(
            r["mops"] * r["seconds"] for r in sweep.ok[(1, c)]))
    detail += ["kernel.%s.mop %.9g" % (b, mop[b]) for b in sorted(mop)]

    # obs accounting from outside: each of the `threads` ranks has the timed
    # wall to spend; whatever the snapshot's region, barrier, pipeline and
    # dispatch seconds do not cover is unaccounted (negative: overcounted).
    gap = {c: c[3] * sweep.median(1, c, "seconds")
           - sum(sweep.obs(c, f) for f in
                 ("region_s", "barrier_wait_s", "pipeline_wait_s", "dispatch_s"))
           for c in t4}
    per_bench = {}
    for c, g in gap.items():
        per_bench[c[0]] = per_bench.get(c[0], 0.0) + g
    detail += ["obs.%s.unaccounted_s %+.6f (%s)"
               % (b, g, "under-accounted" if g > 0 else "over-accounted")
               for b, g in sorted(per_bench.items())]
    detail.append("obs.unaccounted_s %+.6f" % sum(gap.values()))
    detail.append("par.pipeline_wait_s %.6f" % sum(sweep.obs(c, "pipeline_wait_s") for c in t4))
    fill = sweep.probes["mem.place_fill_gbps"]
    detail.append("mem.place_fill array %.0f MiB, last-level cache %.0f MiB"
                  % (fill["array_bytes"] / 2**20, fill["llc_bytes"] / 2**20))

    def obs_sum(field, over):
        return sum(sweep.obs(c, field) for c in over)

    untraced_total = sum(sweep.median(0, c, "seconds") for c in sweep.cells(0))
    traced_total = sum(sweep.median(1, c, "seconds") for c in traced)
    metrics = {
        "kernel.mop": metric(sum(mop.values()), "Mop"),
        "rng.randlc_ns": metric(probe_median(sweep, "rng.randlc_ns"), "ns"),
        "rng.vranlc_ns": metric(probe_median(sweep, "rng.vranlc_ns"), "ns"),
        "rng.skip_us": metric(probe_median(sweep, "rng.skip_us"), "us"),
        "par.team_run_us": metric(probe_median(sweep, "par.team_run_us"), "us"),
        "par.barrier_episode_us": metric(probe_median(sweep, "par.barrier_episode_us"), "us"),
        "par.dispatches": metric(obs_sum("dispatches", t4), "count"),
        "par.dispatch_s": metric(obs_sum("dispatch_s", t4), "s"),
        "par.barrier_episodes": metric(obs_sum("barrier_episodes", t4), "count"),
        "par.barrier_wait_s": metric(obs_sum("barrier_wait_s", t4), "s"),
        # Cells without a scheduled loop record 0 and are left out.
        "par.loop_imbalance": metric(statistics.mean(
            x for x in (sweep.obs(c, "loop_imbalance") for c in t4) if x > 0), "ratio"),
        "par.overhead_1t": metric(overhead_1t(sweep, 1), "ratio"),
        "par.efficiency_4t": metric(efficiency_4t(sweep, 1), "ratio"),
        "mem.bytes": metric(obs_sum("mem_bytes", traced) / 2**20, "MiB"),
        "mem.allocs": metric(obs_sum("mem_allocs", traced), "count"),
        "mem.first_touch_s": metric(probe_median(sweep, "mem.first_touch_s"), "s"),
        "mem.place_fill_gbps": metric(probe_median(sweep, "mem.place_fill_gbps"), "GB/s"),
        "obs.overhead_frac": metric(traced_total / untraced_total - 1.0, "fraction"),
        "obs.scoped_timer_ns": metric(probe_median(sweep, "obs.scoped_timer_ns"), "ns"),
        "obs.unaccounted_abs_s": metric(sum(abs(g) for g in gap.values()), "s"),
    }
    return metrics, detail


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    binary = build()
    selftest(binary)
    trace = args.trace == 1
    records = drive(binary, make_plan(args.workload, args.seed, trace), args.seconds,
                    TRACED_MIN_PASSES if trace else MIN_PASSES, trace)
    sweep = Sweep(records)

    kinds = (0, 1) if trace else (0,)
    complete = all((t, c) in sweep.ok for t in kinds for c in WORKLOADS[args.workload])
    failed = len(sweep.failures)
    for r in sweep.failures:
        print("FAILED %s:%s:%s:%d %s" % (key(r) + (r["error"] or "unverified",)))

    print("workload %s seed %d trace %d: %d passes, %d cell runs, fail_frac %.4f"
          % (args.workload, args.seed, args.trace, sweep.proc["passes"],
             sweep.attempted, failed / sweep.attempted))
    if trace:
        metrics, detail = per_layer(sweep) if complete else ({}, [])
        for line in detail:
            print(line)
    else:
        metrics = end_to_end(sweep)
    if complete:
        for line in paper_summary(sweep, 1 if trace else 0):
            print(line)
    for name, m in metrics.items():
        print("%-24s %14.6f %s" % (name, m["value"], m["unit"]))

    print(json.dumps({"correct": failed == 0 and complete,
                      "attempted": sweep.attempted,
                      "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
