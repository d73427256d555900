"""Record the expected answer of every pool entry into expected.json.

    python3 bench/record.py

Runs candidates of each pool through the CLI at the current source
tree, keeps the first accepted ones per cell, re-checks every witness
with the independent reference checker, and writes, per entry, the
expected exit code(s), verdict and witness.  Counts such as examined,
models or engaged are deliberately not recorded.  Re-record only when
a change is meant to alter verdicts or witnesses, and say so.
"""

from __future__ import annotations

import fnmatch
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import harness
import pools

#: The answer each pool must give; pools marked "keep if" discard other
#: candidates instead of failing.  Coherence of a net's interpretation
#: is not implied by faithfulness, so it is recorded as found.
ACCEPT = {
    "entail-refuted": ("keep if", "1", "refuted"),
    "entail-truncated": ("must", "3", "truncated"),
    "entail-complete": ("must", "0", "no-countermodel"),
    "klm-verify": ("must", "0", "holds-within-bounds"),
    "klm-cex": ("keep if", "1", "violated"),
    "mlp": ("must", "0 0 0", "faithful=true parse=True strict=true faithful=true "
                             "coherent=* fm-model=true"),
}
MAX_CANDIDATES = 4000


def git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=harness.ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def record_pool(main, pool: str, workdir: Path) -> list[dict]:
    gen, cells, quota = pools.POOLS[pool]
    rule, want_exit, want_verdict = ACCEPT[pool]
    kept: dict[str, list[dict]] = {}
    for index in range(MAX_CANDIDATES):
        if len(kept) == cells and all(len(v) == quota(c) for c, v in kept.items()):
            break
        cand = gen(index)
        if len(kept.get(cand["cell"], [])) == quota(cand["cell"]):
            continue
        fingerprint = pools.digest(cand)
        pools.write_inputs([cand], workdir / pool / str(index))
        ans = harness.answer(cand, harness.run_query(main, cand))
        if ans["exit"] != want_exit or not fnmatch.fnmatchcase(ans["verdict"], want_verdict):
            if rule == "must":
                raise SystemExit(f"{pool}/{index}: expected {want_verdict} (exit {want_exit}), "
                                 f"got {ans['verdict']} (exit {ans['exit']})")
            continue
        harness.reference_check(cand, ans)
        kept.setdefault(cand["cell"], []).append({
            "index": index, "cell": cand["cell"], "digest": fingerprint,
            "exit": ans["exit"], "verdict": ans["verdict"], "witness": ans["witness"]})
    else:
        raise SystemExit(f"{pool}: cells not filled after {MAX_CANDIDATES} candidates")
    entries = [e for cell in sorted(kept) for e in kept[cell]]
    print(f"{pool}: {len(entries)} entries from {index} candidates", file=sys.stderr)
    return entries


def main() -> int:
    cli = harness.import_cli()
    workdir = harness.ROOT / ".bench_work" / f"record-{os.getpid()}"
    try:
        recorded = {
            "recorded_at": git_sha(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "pools": {pool: record_pool(cli.main, pool, workdir) for pool in pools.POOLS},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    pools.EXPECTED.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
