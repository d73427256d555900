"""Benchmark of the fuzzytyp CLI: seeded closed-loop workloads with
checked verdicts, and a traced run for per-layer numbers.

    python3 bench/run.py --workload entail-scan --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

Workloads: entail-scan, klm-search, mlp-bridge (see pools.py and
NOTES.md), or `all` to run each in its own process.  One client sends
one query at a time through `fuzzytyp.cli.main`, in-process, in whole
cycles of the workload's query set, until at least --seconds of query
time have passed and the tail percentile has ten samples beyond it.
Every answer is compared with expected.json and every witness is
re-checked by refcheck.py; any failed query makes the exit code 1.

On a shared host the machine's speed can change by up to 2x for a
minute or more at a time, so end-to-end times are given in *cal*: each query's time divided by
the time of a fixed standard-library loop (`calibrate`), the mean of
one run just before and one just after the query.  The same times in
ms and per second are printed beside them.

The last line of standard output is one JSON object: correct,
attempted, failed, and metrics, the end-to-end metrics with --trace 0
and the per-layer metrics with --trace 1.  The lines before it give
the same numbers and a few more, by name and unit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import harness
import pools
import tracing

#: Set-ups timed per untraced run: one before the loop, one after each
#: cycle, and the rest after the loop, so that their median samples the
#: machine's speed over the whole run and not only over its first second.
SETUP_REPEATS = 9
#: Complete scans rerun at --jobs 2 after the timed loop (entail-scan).
JOBS2_SCANS = 4
#: The loop stops after this multiple of --seconds even if the tail
#: percentile is still short of samples.
HARD_STOP = 2.5
WORK = {  # workload -> (name of its work rate, unit, what is counted)
    "entail-scan": ("scan_space_per_s", "interps/s", "closed-form space of complete scans"),
    "klm-search": ("trials_per_s", "trials/s", "reported trials"),
    "mlp-bridge": ("stimuli_per_s", "stimuli/s", "stimuli"),
}


#: Lines in the shape of an interpretation file, for `calibrate`.
CAL_TEXT = "\n".join(f"concept C{i % 13} e{i % 5} {i % 7}/{i % 5 + 1}" for i in range(120))


def calibrate() -> float:
    """Seconds of a fixed loop of the program's two kinds of work,
    rational arithmetic and reading and writing text, done with the
    standard library alone, about 2 ms: the machine's current speed,
    measured with code the program cannot change."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(1, i) * Fraction(i % 7 + 1, 3)
    for _ in range(10):
        table = {}
        for line in CAL_TEXT.splitlines():
            _, name, elem, degree = line.split(" ")
            table[(name, elem)] = degree
        "\n".join(f"{name} {elem} {degree}" for (name, elem), degree in sorted(table.items()))
    return time.perf_counter() - t0


class Run:
    """Measured queries, with their failures."""

    def __init__(self, main) -> None:
        self.main = main
        # query, seconds, answer, seconds of the calibration around it
        self.samples: list[tuple[dict, float, dict, float]] = []
        self.failures: list[str] = []
        self.checked: set = set()

    def query(self, q: dict) -> float:
        # each query starts from a collected heap, as a fresh CLI process
        # would, instead of paying for the garbage of the one before it
        gc.collect()
        before = calibrate()
        result = harness.run_query(self.main, q)
        gc.collect()
        cal = (before + calibrate()) / 2
        ans = harness.answer(q, result)
        found = harness.problems(q, result, ans, self.checked)
        if found:
            self.failures.append(f"{q['pool']}/{q['index']}: " + "; ".join(found))
        self.samples.append((q, result["seconds"], {"counts": ans["counts"],
                                                    "out_bytes": ans["out_bytes"]}, cal))
        return result["seconds"]

    def cycles(self, cycle: list[dict], count: int) -> float:
        """Query time of ``count`` passes over the cycle."""
        return sum(self.query(q) for _ in range(count) for q in cycle)

    @property
    def attempted(self) -> int:
        return len(self.samples)


def prepare(workload: str, seed: int, workdir: Path) -> None:
    """Set-up as timed by setup_s: this runs in a fresh interpreter,
    imports fuzzytyp, generates the seeded inputs and writes them."""
    harness.import_cli()
    cycle = pools.generate(workload, seed, pools.load_expected())
    pools.write_inputs(cycle, workdir)
    (workdir / "manifest.json").write_text(json.dumps(cycle))


def timed_setup(workload: str, seed: int, target: Path) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--prepare", str(target),
                    "--workload", workload, "--seed", str(seed)], check=True)
    return time.perf_counter() - t0


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def work_rate(workload: str, samples, times: list[float]) -> float:
    """Work per unit of ``times``, one time per sample."""
    if workload == "entail-scan":
        done = [(q["space"], t) for (q, *_), t in zip(samples, times)
                if q["pool"] == "entail-complete"]
    elif workload == "klm-search":
        done = [(a["counts"].get("trials", 0), t) for (_, _, a, _), t in zip(samples, times)]
    else:
        done = [(q["stimuli"], t) for (q, *_), t in zip(samples, times)]
    return sum(w for w, _ in done) / sum(t for _, t in done)


def end_to_end(workload: str, seconds: int, cycle: list[dict], run: Run,
               setups: list[float], setup):
    """``setup()`` times one more set-up; ``setups`` holds those so far."""
    tail_p = pools.WORKLOADS[workload][1]
    need = int(10 / (1 - tail_p / 100)) + 1  # samples for ten beyond the tail
    busy, done = 0.0, 0
    while not done or (busy < seconds * HARD_STOP
                       and (busy < seconds or len(run.samples) < need)):
        busy += run.cycles(cycle, 1)
        done += 1
        if len(setups) < SETUP_REPEATS:
            setups.append(setup())
    while len(setups) < SETUP_REPEATS:
        setups.append(setup())
    seconds_each = [s for _, s, _, _ in run.samples]
    times_ms = [s * 1000 for s in seconds_each]
    times_cal = [s / cal for _, s, _, cal in run.samples]
    tail, tail_cal = percentile(times_ms, tail_p), percentile(times_cal, tail_p)
    beyond = sum(t > tail_cal for t in times_cal)
    rate_name, rate_unit, rate_what = WORK[workload]
    n = len(times_ms)
    cal_ms = statistics.median(c for *_, c in run.samples) * 1000
    extra = {
        "cal_ms": (cal_ms, "ms", "median calibration: the machine's speed in this run"),
        "verdict_ms.p50": (statistics.median(times_ms), "ms", "as verdict_cal.p50, in ms"),
        "verdict_ms.tail": (tail, "ms", f"as verdict_cal.tail, in ms (p{tail_p})"),
        "queries_per_s": (n / busy, "1/s", "as queries_per_cal, per second"),
        rate_name: (work_rate(workload, run.samples, seconds_each), rate_unit,
                    f"{rate_what}, as work_per_cal, per second"),
    }
    if workload == "entail-scan":
        extra["scan_space_per_s.jobs2"] = jobs2_rate(run, cycle)
    extra["failed_ratio"] = (len(run.failures) / run.attempted, "ratio",
                             f"{len(run.failures)} of {run.attempted}")
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} fresh set-ups"),
        "verdict_cal.p50": (statistics.median(times_cal), "cal", f"{n} queries"),
        "verdict_cal.tail": (tail_cal, "cal", f"p{tail_p} of {n} queries, {beyond} beyond it"),
        "queries_per_cal": (n / sum(times_cal), "1/cal",
                            f"{done} cycles of {len(cycle)} queries in {busy:.1f} s"),
        "work_per_cal": (work_rate(workload, run.samples, times_cal), "items/cal",
                         f"{rate_what} per cal"),
        "peak_rss_mb": (rss_kb / 1024, "MB", "this process and its children"),
    }
    return metrics, extra


def jobs2_rate(run: Run, cycle: list[dict]) -> tuple[float, str, str]:
    """The cycle's first plain complete scans, rerun at --jobs 2 (the fm
    ones are below the engine's threshold for worker processes)."""
    scans = [q for q in cycle
             if q["pool"] == "entail-complete" and q["mode"] == "plain"][:JOBS2_SCANS]
    space = busy = 0.0
    for q in scans:
        q2 = dict(q, calls=[q["calls"][0] + ["--jobs", "2"]])
        busy += run.query(q2)
        space += q["space"]
    return space / busy, "interps/s", f"{len(scans)} complete scans at --jobs 2, not bounded"


def per_layer(seconds: int, cycle: list[dict], run: Run) -> dict:
    """An untraced pass and a traced pass over the same whole cycles."""
    count = max(1, seconds // 20)
    untraced = run.cycles(cycle, count)
    first = len(run.samples)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run.cycles(cycle, count)
    finally:
        tracer.uninstall()
    if tracer.missing:
        print("warning: not traced, no such function: " + ", ".join(tracer.missing))
    samples = run.samples[first:]
    counts: dict[str, int] = {}
    for _, _, ans, _ in samples:
        for key, value in ans["counts"].items():
            counts[key] = counts.get(key, 0) + value
    L = tracer.layers

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {
        "engine.decode.calls": (L["engine.decode"].calls, "count"),
        "engine.decode.s": (L["engine.decode"].busy, "s"),
        "engine.scan.self_s": (L["engine.scan"].self_s, "s"),
        "engine.examined": (counts.get("examined", 0), "count"),
        "engine.models": (counts.get("models", 0), "count"),
        "engine.model_ratio": (ratio(counts.get("models", 0), counts.get("examined", 0)), "ratio"),
    }
    for layer in ("interpretation.strict", "interpretation.satisfies",
                  "interpretation.axiom_degree", "interpretation.typical",
                  "weighted.fm_model", "weighted.faithful", "weighted.coherent",
                  "weighted.weight", "postulates.check_instance", "syntax.validate",
                  "mlp.forward"):
        m[f"{layer}.calls"] = (L[layer].calls, "count")
        m[f"{layer}.s"] = (L[layer].busy, "s")
    m["algebra.ops"] = (L["algebra"].calls, "count")
    m["algebra.s"] = (L["algebra"].busy, "s")
    m["weighted.fm_reject_ratio"] = (ratio(tracer.unfaithful, tracer.strict_ok), "ratio")
    for key in ("trials", "engaged", "vacuous", "uncertified"):
        m[f"postulates.{key}"] = (counts.get(key, 0), "count")
    m["postulates.engaged_ratio"] = (ratio(counts.get("engaged", 0), counts.get("trials", 0)),
                                     "ratio")
    m["postulates.search.self_s"] = (L["postulates.search"].self_s, "s")
    for family in pools.FAMILIES:
        m[f"postulates.trial_ms.{family}"] = (
            1000 * ratio(tracer.family_s[family], tracer.family_trials[family]), "ms")
    for layer in ("parser.read", "parser.write"):
        m[f"{layer}.s"] = (L[layer].busy, "s")
        m[f"{layer}.bytes"] = (L[layer].bytes, "bytes")
    m["mlp.parse.s"] = (L["mlp.parse"].busy, "s")
    m["mlp.to_kb.s"] = (L["mlp.to_kb"].busy, "s")
    m["cli.self_s"] = (L["cli"].self_s, "s")
    m["cli.out_bytes"] = (sum(ans["out_bytes"] for _, _, ans, _ in samples), "bytes")
    m["trace.overhead"] = (traced / untraced, "ratio")
    return {k: (v, unit, "") for k, (v, unit) in m.items()}


def run_workload(args) -> int:
    workdir = harness.ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups: list[float] = []

        def setup() -> float:
            return timed_setup(args.workload, args.seed, workdir / f"setup{len(setups)}")

        setups.append(setup())
        cycle = json.loads((workdir / "setup0" / "manifest.json").read_text())
        cli = harness.import_cli()
        run = Run(lambda argv: cli.main(argv))  # looked up per call, so tracing sees it
        if args.trace:
            metrics = per_layer(args.seconds, cycle, run)
            extra = {}
        else:
            metrics, extra = end_to_end(args.workload, args.seconds, cycle, run, setups, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  (nproc {os.cpu_count()}, python {platform.python_version()}, "
          "closed loop, 1 client)")
    for name, (value, unit, note) in {**metrics, **extra}.items():
        print(f"  {name:<36} {value:>14.6g} {unit:<10} {note}")
    for failure in run.failures[:20]:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 1 if run.failures else 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    worst = 0
    for workload in pools.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload",
                               workload, "--seed", str(args.seed), "--seconds",
                               str(args.seconds), "--trace", str(args.trace)])
        worst = max(worst, proc.returncode)
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*pools.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.prepare is not None:
        prepare(args.workload, args.seed, args.prepare)
        return 0
    if not (harness.SRC / "fuzzytyp").is_dir():
        print(f"error: no fuzzytyp sources under {harness.SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
