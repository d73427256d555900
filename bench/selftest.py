"""Self-test of the benchmark harness and of the reference checker.

    python3 bench/selftest.py          # or: python3 -m pytest bench/selftest.py

Pins the reference checker on known numbers, shows that a wrong
expected answer, a corrupted witness and a crash are each counted as a
failed query, runs every workload at tiny load with and without
tracing and asserts that every metric of BENCHMARK.json is printed
with its unit, and checks that the command fails cleanly without the
program's sources.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import harness
import pools
import refcheck
import run

DATA = harness.HERE / "data"
SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
#: Printed on the human-readable lines of an untraced run.
RAW = {"cal_ms": "ms", "verdict_ms.p50": "ms", "verdict_ms.tail": "ms", "queries_per_s": "1/s",
       "failed_ratio": "ratio"}
EXTRA = {
    "entail-scan": {**RAW, "scan_space_per_s": "interps/s",
                    "scan_space_per_s.jobs2": "interps/s"},
    "klm-search": {**RAW, "trials_per_s": "trials/s"},
    "mlp-bridge": {**RAW, "stimuli_per_s": "stimuli/s"},
}


def _remove(path: Path) -> None:
    """Delete a scratch directory, and its parent once that is empty."""
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass


def _penguin() -> tuple[refcheck.KB, refcheck.Interp]:
    kb = refcheck.read_kb((DATA / "penguin.fkb").read_text())
    return kb, refcheck.read_interp((DATA / "penguin.fint").read_text(), kb.logic)


def test_reference_penguin_weights():
    kb, interp = _penguin()
    bird, penguin = refcheck.weights(interp, kb, "Bird"), refcheck.weights(interp, kb, "Penguin")
    assert (bird["reddy"], bird["opus"]) == (F(120), F(100))
    assert (penguin["reddy"], penguin["opus"]) == (F(30), F(120))
    assert refcheck.fm_model(interp, kb)
    interp.concepts[("Penguin", "reddy")] = F(9, 10)
    assert not refcheck.faithful(interp, kb)


def test_reference_refl1_singleton():
    interp = refcheck.read_interp("domain e0\nconcept P1 e0 1/2\n", "godel")
    conclusion = refcheck.read_axiom("T(P1) <= P1 >= 1")
    assert refcheck.axiom_degree(interp, conclusion) == F(1, 2)
    assert not refcheck.satisfied(interp, conclusion)
    refcheck.check_klm_witness("godel", [], "T(P1) <= P1 >= 1 1/2",
                               "domain e0\nconcept P1 e0 1/2")


def test_reference_families():
    half, quarter = F(1, 2), F(1, 4)
    assert [refcheck.t_and(f, half, half) for f in pools.FAMILIES] == [half, half, 0, quarter]
    assert [refcheck.t_impl(f, half, quarter) for f in pools.FAMILIES] == [half, quarter,
                                                                          F(3, 4), half]
    assert [refcheck.t_not(f, quarter) for f in pools.FAMILIES] == [F(3, 4), 0, F(3, 4), 0]


def _first(workload: str, pool: str, workdir: Path) -> dict:
    cycle = pools.generate(workload, 0, pools.load_expected())
    query = copy.deepcopy(next(q for q in cycle if q["pool"] == pool))
    pools.write_inputs([query], workdir)
    return query


def _zeroing(main):
    """A CLI whose printed witness interpretation has every concept
    degree set to 0.  Then every T(.) is empty, so no typicality
    conclusion can fail: the witness is wrong whatever it was."""
    def wrapper(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        lines = [line.rsplit(" ", 1)[0] + " 0" if line.startswith("cm concept ") else line
                 for line in buf.getvalue().splitlines()]
        sys.stdout.write("\n".join(lines) + "\n")
        return code
    return wrapper


def test_failures_are_counted():
    workdir = harness.ROOT / ".bench_work" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        main = harness.import_cli().main
        klm = _first("klm-search", "klm-cex", workdir / "klm")
        entail = _first("entail-scan", "entail-refuted", workdir / "entail")

        clean = run.Run(main)
        clean.query(klm)
        clean.query(entail)
        assert clean.failures == [], clean.failures

        wrong = copy.deepcopy(entail)
        wrong["expect"]["verdict"] = "no-countermodel"
        counted = run.Run(main)
        counted.query(wrong)
        assert len(counted.failures) == 1

        # a corrupted witness no longer matches, and the reference
        # checker rejects it even where it is expected to match
        corrupt = run.Run(_zeroing(main))
        result = harness.run_query(corrupt.main, klm)
        ans = harness.answer(klm, result)
        assert ans["witness"] != klm["expect"]["witness"]
        corrupt.query(klm)
        assert len(corrupt.failures) == 1
        trusting = copy.deepcopy(klm)
        trusting["expect"]["witness"] = ans["witness"]
        found = harness.problems(trusting, result, ans)
        assert found and found[0].startswith("reference check"), found

        # a crash, and a crash that surfaces as exit 1, are failures too
        def crash(argv):
            raise ZeroDivisionError("boom")
        crashed = run.Run(crash)
        crashed.query(entail)
        crashed.query(klm)
        assert len(crashed.failures) == 2
        silent = run.Run(lambda argv: 1)
        silent.query(entail)
        assert len(silent.failures) == 1
    finally:
        _remove(workdir)


def _run(*args: str, cwd: Path = harness.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _sample(workload: str, workdir: Path) -> list[dict]:
    """A few queries of the workload: the first of each cell kind."""
    seen, picked = set(), []
    for q in pools.generate(workload, 7, pools.load_expected()):
        kind = (q["pool"], q.get("mode"), q["cell"] if q["kind"] == "mlp" else None)
        if kind not in seen:
            seen.add(kind)
            picked.append(q)
    pools.write_inputs(picked, workdir)
    return picked


def _units(metrics: dict) -> dict:
    return {name: entry[1] for name, entry in metrics.items()}


def test_tiny_runs_emit_every_metric():
    """Each workload at tiny load, untraced and traced, in-process."""
    workdir = harness.ROOT / ".bench_work" / "selftest-tiny"
    shutil.rmtree(workdir, ignore_errors=True)
    cli = harness.import_cli()
    try:
        for workload in pools.WORKLOADS:
            sample = _sample(workload, workdir / workload)
            untraced, traced = (run.Run(lambda argv: cli.main(argv)) for _ in range(2))
            metrics, extra = run.end_to_end(workload, 0, sample, untraced, [0.5], lambda: 0.5)
            assert _units(metrics) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
            assert _units(extra) == EXTRA[workload]
            layers = run.per_layer(0, sample, traced)
            assert _units(layers) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
            for r in (untraced, traced):
                assert r.attempted and not r.failures, (workload, r.failures)
    finally:
        _remove(workdir)


def test_command_prints_result_line():
    """The whole command on the smallest workload, one cycle."""
    proc = _run("--workload", "mlp-bridge", "--seed", "3", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    printed = {line.split()[0]: line.split()[2] for line in proc.stdout.splitlines()[1:-1]}
    assert all(printed.get(k) == v for k, v in EXTRA["mlp-bridge"].items()), printed


def test_fails_without_sources():
    bare = harness.ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(harness.HERE, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
        proc = _run("--workload", "klm-search", "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        _remove(bare)


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    print(f"{len(tests)} passed")
