"""Query pools and the seeded workload generators.

Every query the benchmark can issue is a *candidate* of a pool: a pure
function of (pool name, index) that returns the files to write and the
CLI calls to make.  `record.py` runs candidates once through the CLI
and keeps, per pool, the accepted ones in `expected.json` together with
their expected exit code, verdict and witness.

Each pool keeps a fixed number of entries per *cell* (for example a
logic family and mode), so its cost mix is fixed by design.  A workload
is the union of some pools; one *cycle* sends each of their entries
once, in an order drawn from the workload seed.  The set is pinned
rather than drawn per seed because every entry needs a recorded answer,
and because a fresh draw per seed would put the draw's variance into
every end-to-end figure.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction as F
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"

FAMILIES = ("zadeh", "godel", "lukasiewicz", "product")
MODES = ("plain", "fm")

# --------------------------------------------------------------------------
# entail: the penguin KB, and small generated KBs with one role
# --------------------------------------------------------------------------

PENGUIN_CONCEPTS = ("Bird", "Penguin", "Canary", "Fly", "Yellow", "Black", "Red")
PENGUIN_ROLES = ("has_Wings", "has_Feather")

#: Goals every model of the penguin KB satisfies, in every family: its
#: own strict axioms, and a weakening (the implication is antitone in
#: its first argument, and a t-norm never exceeds its arguments).
PENGUIN_ENTAILED = (
    "(and Yellow Black) <= Bot >= 1",
    "(and Yellow Red) <= Bot >= 1",
    "(and Black Red) <= Bot >= 1",
    "(and (and Yellow Black) Fly) <= Bot >= 1/2",
)

#: Budget of the refuted queries: only goals refuted within it are kept.
REFUTED_BUDGET = 64
TRUNCATED_BUDGET = 1000


def _penguin() -> str:
    return (HERE / "data" / "penguin.fkb").read_text()


def _entail_cell(index: int) -> tuple[str, str]:
    cell = index % (len(MODES) * len(FAMILIES))
    return MODES[cell // len(FAMILIES)], FAMILIES[cell % len(FAMILIES)]


def _entail(pool: str, index: int, kb: str, goal: str, q: int, budget: int,
            space: int = 0) -> dict:
    mode, family = _entail_cell(index)
    return {
        "pool": pool, "index": index, "kind": "entail", "cell": f"{mode}/{family}",
        "mode": mode, "family": family, "goal": goal, "space": space,
        "files": {"kb.fkb": kb},
        "calls": [["entail", "{dir}/kb.fkb", goal, "--mode", mode, "--logic", family,
                   "--max-domain", "2", "--denominator", str(q), "--budget", str(budget)]],
    }


def _penguin_concept(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(PENGUIN_CONCEPTS) if rng.random() < 0.9 else rng.choice(("Top", "Bot"))
    op = rng.choice(("not", "and", "or", "some", "all"))
    if op == "not":
        return f"(not {_penguin_concept(rng, depth - 1)})"
    if op in ("and", "or"):
        return f"({op} {_penguin_concept(rng, depth - 1)} {_penguin_concept(rng, depth - 1)})"
    return f"({op} {rng.choice(PENGUIN_ROLES)} {_penguin_concept(rng, depth - 1)})"


def entail_refuted(index: int) -> dict:
    """A random goal over the penguin signature; the README example
    fills the first slot of every cell."""
    rng = random.Random(f"entail-refuted/{index}")
    if index < len(MODES) * len(FAMILIES):
        return _entail("entail-refuted", index, _penguin(), "T(Penguin) <= Fly >= 0.9",
                       10, REFUTED_BUDGET)
    if rng.random() < 0.5:
        lhs = f"T({rng.choice(PENGUIN_CONCEPTS)})"
    else:
        lhs = _penguin_concept(rng, 2)
    threshold = rng.choice(("1/3", "1/2", "3/4", "0.9", "1"))
    cmp = ">=" if threshold == "1" else rng.choice((">=", ">"))
    goal = f"{lhs} <= {_penguin_concept(rng, 2)} {cmp} {threshold}"
    return _entail("entail-refuted", index, _penguin(), goal,
                   rng.choice((2, 3, 4, 5, 10)), REFUTED_BUDGET)


def entail_truncated(index: int) -> dict:
    """An entailed goal on the penguin KB; the scan stops at the budget."""
    goal = PENGUIN_ENTAILED[(index // 8 + index) % len(PENGUIN_ENTAILED)]
    return _entail("entail-truncated", index, _penguin(), goal, 2, TRUNCATED_BUDGET)


def entail_complete(index: int) -> dict:
    """A generated KB whose goal weakens one of its axioms, so every
    (fm-)model satisfies it: the scan settles the whole space without a
    countermodel.  KBs of one mode share one shape, so their scans cost
    about the same.

    plain: concepts A B, role r, a TBox axiom; the goal conjoins a
    concept to its left side.  6588 interpretations, and the size-2
    block is large enough for --jobs to use worker processes.
    fm: concept A, role r, individual a, a TBox axiom and an ABox
    assertion about a; the goal disjoins a concept to the assertion.
    1467 interpretations.
    """
    rng = random.Random(f"entail-complete/{index}")
    mode, family = _entail_cell(index)
    threshold = rng.choice(("1/2", "1"))
    weaker = rng.choice(("1/2", "1")) if threshold == "1" else "1/2"
    w1, w2 = (rng.choice((-5, -3, -2, -1, 1, 2, 3, 5)) for _ in range(2))
    if mode == "plain":
        a, b, c, d = (rng.choice(("A", "B")) for _ in range(4))
        lhs = f"({rng.choice(('and', 'or'))} {a} {b})"
        rhs = f"({rng.choice(('some', 'all'))} r {c})"
        kb = (f"logic {family}\nconcepts A B\nroles r\ndistinguished A\n"
              f"tbox:\n{lhs} <= {rhs} >= {threshold}\n"
              f"wtbox A:\nT(A) <= B @ {w1}\nT(A) <= (some r B) @ {w2}\n")
        goal = f"(and {lhs} {d}) <= {rhs} >= {weaker}"
        space = 3 ** (2 + 1) + 3 ** (2 * 2 + 4)
    else:
        lhs = f"({rng.choice(('and', 'or'))} A ({rng.choice(('some', 'all'))} r A))"
        rhs = rng.choice(("A", "(some r A)", "(all r A)"))
        kb = (f"logic {family}\nconcepts A\nroles r\nindividuals a\ndistinguished A\n"
              f"tbox:\n{lhs} <= {rhs} >= 1/2\nabox:\nA(a) >= {threshold}\n"
              f"wtbox A:\nT(A) <= (some r A) @ {w1}\nT(A) <= A @ {w2}\n")
        goal = f"(or A {rng.choice(('A', '(some r A)', '(all r A)'))})(a) >= {weaker}"
        space = 3 ** (1 + 1) + 3 ** (2 + 4) * 2
    return _entail("entail-complete", index, kb, goal, 2, 200_000, space)


# --------------------------------------------------------------------------
# klm-test in the acceptance configuration
# --------------------------------------------------------------------------

STRONG = ("AND1", "CM1", "LLE1", "RW1")
WEAK = ("REFL0", "LLE0", "RW0", "AND0", "OR0", "CMSTAR")
#: Postulate variants known to hold per family (acceptance 2, 3 and 5).
HOLDS = {
    "zadeh": STRONG + WEAK,
    "godel": STRONG + WEAK,
    "lukasiewicz": STRONG,
    "product": STRONG,
}
#: Variants known to fail (acceptance 4), as (postulate, family).
FAILS = (("REFL1", "godel"), ("REFL1", "lukasiewicz"), ("REFL1", "product"),
         ("OR1", "lukasiewicz"), ("CM0", "godel"))
KLM_FLAGS = ["--max-domain", "5", "--denominator", "6", "--depth", "2"]
VERIFY_TRIALS = 500
CEX_TRIALS = 3000
_VERIFY_CELLS = [(f, p) for f in FAMILIES for p in HOLDS[f]]


def _klm(pool: str, index: int, postulate: str, family: str, mode: str,
         trials: int) -> dict:
    return {
        "pool": pool, "index": index, "kind": "klm", "cell": f"{family}/{postulate}",
        "family": family, "files": {},
        "calls": [["klm-test", "--postulate", postulate, "--logic", family, "--mode", mode,
                   "--trials", str(trials), "--seed", str(index), *KLM_FLAGS]],
    }


def klm_verify(index: int) -> dict:
    family, postulate = _VERIFY_CELLS[index % len(_VERIFY_CELLS)]
    return _klm("klm-verify", index, postulate, family, "verify", VERIFY_TRIALS)


def klm_cex(index: int) -> dict:
    postulate, family = FAILS[index % len(FAILS)]
    return _klm("klm-cex", index, postulate, family, "find-counterexample", CEX_TRIALS)


# --------------------------------------------------------------------------
# mlp: random 4-8-8-2 nets, one layer of each activation
# --------------------------------------------------------------------------

MLP_LAYERS = (4, 8, 8, 2)
MLP_STIMULI = (8, 16, 32)


def mlp_net(index: int) -> dict:
    rng = random.Random(f"mlp/{index}")
    n = MLP_STIMULI[index % len(MLP_STIMULI)]
    acts = ["hard-sigmoid", "clipped-linear", "step"]
    rng.shuffle(acts)
    lines = ["layers " + " ".join(map(str, MLP_LAYERS)), "bias b"]
    lines += [f"activation {layer} {act}" for layer, act in enumerate(acts, start=1)]
    for layer in range(1, len(MLP_LAYERS)):
        for j in range(MLP_LAYERS[layer]):
            for i in range(MLP_LAYERS[layer - 1]):
                w = F(rng.randint(-12, 12), rng.randint(1, 6))
                lines.append(f"synapse u{layer - 1}_{i} u{layer}_{j} {w}")
            lines.append(f"synapse b u{layer}_{j} {F(rng.randint(-6, 6), rng.randint(1, 4))}")
    stimuli = [f"stimulus s{k} " + " ".join(str(F(rng.randint(0, 24), 24))
                                              for _ in range(MLP_LAYERS[0]))
               for k in range(n)]
    return {
        "pool": "mlp", "index": index, "kind": "mlp", "cell": str(n), "stimuli": n,
        "files": {"net.fnet": "\n".join(lines) + "\n", "net.stim": "\n".join(stimuli) + "\n"},
        "calls": [["mlp", "{dir}/net.fnet", "{dir}/net.stim", "--out-dir", "{dir}/out"],
                  ["parse", "{dir}/out/net.kb.fkb"],
                  ["check-model", "{dir}/out/net.kb.fkb", "{dir}/out/net.interp.fint"]],
    }


# --------------------------------------------------------------------------
# Pools and workloads
# --------------------------------------------------------------------------

#: pool name -> (candidate generator, number of cells, entries kept per cell)
POOLS = {
    "entail-refuted": (entail_refuted, len(MODES) * len(FAMILIES), lambda cell: 8),
    "entail-truncated": (entail_truncated, len(MODES) * len(FAMILIES), lambda cell: 1),
    "entail-complete": (entail_complete, len(MODES) * len(FAMILIES),
                        lambda cell: 2 if cell.startswith("plain/") else 1),
    "klm-verify": (klm_verify, len(_VERIFY_CELLS), lambda cell: 1),
    "klm-cex": (klm_cex, len(FAILS), lambda cell: 2),
    "mlp": (mlp_net, len(MLP_STIMULI), lambda cell: 6),
}

#: workload -> (its pools, tail percentile reported as verdict_cal.tail).
#: One cycle of a workload sends every entry of its pools once; the
#: percentile is the highest that has ten samples beyond it in a
#: 25-s run at this commit (see NOTES.md).
WORKLOADS = {
    "entail-scan": (("entail-refuted", "entail-truncated", "entail-complete"), 95),
    "klm-search": (("klm-verify", "klm-cex"), 95),
    "mlp-bridge": (("mlp",), 90),
}


def candidate(pool: str, index: int) -> dict:
    return POOLS[pool][0](index)


def digest(cand: dict) -> str:
    """Fingerprint of a candidate's inputs, to catch generator drift."""
    blob = json.dumps({"files": cand["files"], "calls": cand["calls"]}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


def generate(workload: str, seed: int, expected: dict) -> list[dict]:
    """One cycle of a workload: every recorded entry of its pools, with
    its expected answer attached, in an order drawn from the seed."""
    cycle = []
    for pool in WORKLOADS[workload][0]:
        for entry in expected["pools"][pool]:
            cand = candidate(pool, entry["index"])
            if digest(cand) != entry["digest"]:
                raise RuntimeError(f"{pool}/{entry['index']}: inputs differ from the "
                                   "recorded ones; re-record expected.json")
            cand["expect"] = entry
            cycle.append(cand)
    random.Random(f"{workload}/{seed}").shuffle(cycle)
    return cycle


def write_inputs(queries: list[dict], workdir: Path) -> None:
    """Write every query's files into its own directory and resolve the
    directory placeholder in its calls."""
    for k, q in enumerate(queries):
        qdir = workdir / f"q{k:03d}"
        qdir.mkdir(parents=True)
        for name, text in q["files"].items():
            (qdir / name).write_text(text)
        q["dir"] = str(qdir)
        q["calls"] = [[a.replace("{dir}", str(qdir)) for a in call] for call in q["calls"]]
