"""Running one benchmark query through `fuzzytyp.cli.main` in-process,
reducing its output to a comparable answer, and checking that answer.

An answer is (exit codes, verdict, witness, counts).  Verdict and
witness come from the `--format records` output.  Counts (examined,
models, trials, engaged, ...) are reported as metrics but never
compared, so enumeration or search changes that keep verdicts and
witnesses do not need a new `expected.json`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import time
from pathlib import Path

import refcheck

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WITNESS_KEYS = {
    "entail": ("cm",),
    "klm": ("subst", "premise", "conclusion", "cm"),
}
COUNT_KEYS = ("examined", "models", "trials", "engaged", "vacuous", "uncertified")


def import_cli():
    """Import the CLI of the checkout's own `src/`, never an installed copy."""
    if not (SRC / "fuzzytyp" / "cli.py").is_file():
        raise SystemExit(f"error: no fuzzytyp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fuzzytyp.cli
    if Path(fuzzytyp.cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: fuzzytyp was imported from {fuzzytyp.cli.__file__}")
    return fuzzytyp.cli


def call(main, argv: list[str]) -> tuple[int | None, str, str]:
    """One `main` call with captured output; exit code None if it raised."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--format", "records", *argv])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed query, never a verdict
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def run_query(main, query: dict) -> dict:
    """Run every call of a query, timing the whole query.  For mlp the
    input files are (re)written inside the timed region, as step 1."""
    outputs = []
    t0 = time.perf_counter()
    if query["kind"] == "mlp":
        for name, text in query["files"].items():
            Path(query["dir"], name).write_text(text)
    for argv in query["calls"]:
        code, out, err = call(main, argv)
        outputs.append((code, out, err))
        if code is None:
            break
    elapsed = time.perf_counter() - t0
    return {"seconds": elapsed, "outputs": outputs}


def _records(text: str) -> list[tuple[str, str]]:
    """(key, rest) per record line; the versioned header is skipped."""
    lines = text.splitlines()[1:]
    return [(line.partition(" ")[0], line.partition(" ")[2]) for line in lines]


def answer(query: dict, result: dict) -> dict:
    """Reduce a query's outputs to exit codes, verdict, witness and counts."""
    outputs = result["outputs"]
    exits = " ".join("raised" if c is None else str(c) for c, _, _ in outputs)
    counts: dict[str, int] = {}
    size = sum(len(out) for _, out, _ in outputs)
    if query["kind"] == "mlp":
        if len(outputs) < 3 or any(c is None for c, _, _ in outputs):
            return {"exit": exits, "verdict": "", "witness": "", "counts": counts,
                    "out_bytes": size}
        mlp_rec, parse_rec, check_rec = (dict(_records(o)) for _, o, _ in outputs)
        verdict = (f"faithful={mlp_rec.get('faithful')} parse={'ok' in parse_rec} "
                   f"strict={check_rec.get('strict')} faithful={check_rec.get('faithful')} "
                   f"coherent={check_rec.get('coherent')} fm-model={check_rec.get('fm-model')}")
        out_dir = Path(query["dir"], "out")
        try:
            emitted = [(out_dir / n).read_text() for n in ("net.kb.fkb", "net.interp.fint")]
        except OSError:
            emitted = ["", ""]
        weight_lines = [r for k, r in _records(outputs[2][1]) if k == "weight"]
        blob = "\n--\n".join(emitted + ["\n".join(weight_lines)])
        counts["stimuli"] = query["stimuli"]
        return {"exit": exits, "verdict": verdict,
                "witness": hashlib.sha256(blob.encode()).hexdigest(),
                "counts": counts, "out_bytes": size, "emitted": emitted,
                "weights": weight_lines}
    records = _records(outputs[0][1])
    verdict = next((rest for key, rest in records if key == "verdict"), "")
    keys = WITNESS_KEYS[query["kind"]]
    witness = "\n".join(f"{k} {r}" for k, r in records if k in keys)
    for key, rest in records:
        if key in COUNT_KEYS and rest.isdigit():
            counts[key] = int(rest)
    return {"exit": exits, "verdict": verdict, "witness": witness, "counts": counts,
            "out_bytes": size}


def reference_check(query: dict, ans: dict) -> None:
    """Re-check the witness with the independent evaluator, after the
    serialize (by the program) -> parse (by refcheck) round trip."""
    kind = query["kind"]
    lines = ans["witness"].splitlines()
    if kind == "entail" and ans["verdict"] == "refuted":
        fint = "\n".join(line[3:] for line in lines if line.startswith("cm "))
        refcheck.check_countermodel(query["files"]["kb.fkb"], query["goal"],
                                    query["family"], query["mode"], fint)
    elif kind == "klm" and ans["verdict"] == "violated":
        fint = "\n".join(line[3:] for line in lines if line.startswith("cm "))
        premises = [line[8:] for line in lines if line.startswith("premise ")]
        conclusion = next(line[11:] for line in lines if line.startswith("conclusion "))
        refcheck.check_klm_witness(query["family"], premises, conclusion, fint)
    elif kind == "mlp":
        reported = {}
        for line in ans["weights"]:
            name, elem, w = line.split(" ")
            reported[(name, elem)] = w
        refcheck.check_fm_model(ans["emitted"][0], ans["emitted"][1], reported)


def problems(query: dict, result: dict, ans: dict, checked: set | None = None) -> list[str]:
    """Why this query failed; empty if it gave the expected answer and
    its witness re-checks.  ``checked`` memoizes reference checks of
    witnesses already verified in this run."""
    expect = query["expect"]
    found = []
    for code, _, err in result["outputs"]:
        if code is None:
            found.append(f"raised {err}")
    for field in ("exit", "verdict", "witness"):
        if ans[field] != expect[field]:
            found.append(f"{field}: expected {expect[field]!r:.80}, got {ans[field]!r:.80}")
    if not found:
        key = (query["pool"], query["index"], ans["witness"])
        if checked is None or key not in checked:
            try:
                reference_check(query, ans)
            except (refcheck.RefError, KeyError, ValueError, StopIteration) as exc:
                found.append(f"reference check: {exc}")
            else:
                if checked is not None:
                    checked.add(key)
    return found
