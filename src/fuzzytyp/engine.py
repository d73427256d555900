"""Bounded enumeration of finite fuzzy interpretations over a degree
grid, and countermodel search for entailment, fm-entailment, and
validity.

Entailment over the full (infinite) model class is out of reach; the
engine gives two-sided answers only for refutation.  A returned
countermodel is a genuine witness and can be re-checked independently;
"no countermodel within bounds" is exactly that, never a proof.

Enumeration is exhaustive for the given bounds and indexable: the
atomic valuations of an interpretation with domain size n form a mixed
radix numeral (base q+1 per concept/role entry, base n per individual),
with the first declared concept's entries varying fastest.  Domain
sizes are scanned in ascending order, so the first countermodel found
has a minimal domain.  Identical configurations yield identical
streams, verdicts, and statistics, whatever the worker count.

Every scan asks one compiled ``Question`` (axioms that make a model,
a goal) of each index, on grid digits that one odometer steps in
place, up to MAX_LANES consecutive indices (lanes) in one pass of the
compiled program; postulate instances are asked the same way
(``postulates``), one lane at a time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from operator import and_
from typing import Iterator, Literal

from fuzzytyp.algebra import CONNECTIVES, LogicFamily
from fuzzytyp.interpretation import FuzzyInterpretation, Program, axiom_value, run
from fuzzytyp.syntax import (
    ConceptAssertion,
    FuzzyAxiom,
    Inclusion,
    RoleAssertion,
    WeightedKB,
    concept_names,
    role_names,
)
from fuzzytyp.weighted import compile_table, follows_preference, scaled_weights


@dataclass(frozen=True)
class EnumSignature:
    """The names an enumerated interpretation assigns values to."""

    concepts: tuple[str, ...]
    roles: tuple[str, ...] = ()
    individuals: tuple[str, ...] = ()


@dataclass(frozen=True)
class SearchConfig:
    """Bounds and mode of the exhaustive scans: enumeration, entailment
    (plain or fm) and validity."""

    logic: LogicFamily
    max_domain_size: int = 2
    denominator: int = 2
    budget: int = 200_000
    mode: Literal["plain", "fm"] = "plain"
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.max_domain_size < 1:
            raise ValueError("max_domain_size must be >= 1")
        if self.denominator < 1:
            raise ValueError("denominator must be >= 1")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


def domain_elements(n: int) -> tuple[str, ...]:
    return tuple(f"e{i}" for i in range(n))


def count_interpretations(sig: EnumSignature, domain_size: int, denominator: int) -> int:
    """Closed form: (q+1)^(concept entries + role entries) * n^individuals."""
    n = domain_size
    entries = len(sig.concepts) * n + len(sig.roles) * n * n
    return (denominator + 1) ** entries * n ** len(sig.individuals)


def _decode(sig: EnumSignature, n: int, q: int, index: int
            ) -> tuple[list[list[int]], list[list[list[int]]], dict[str, int]]:
    """The digits of ``index``: per concept its n grid numerators over q,
    per role its n rows of n, per individual its element's index."""
    base = q + 1
    k = index
    atoms = []
    for _ in range(len(sig.concepts) + n * len(sig.roles)):
        row = []
        for _ in range(n):
            k, digit = divmod(k, base)
            row.append(digit)
        atoms.append(row)
    roles = [atoms[len(sig.concepts) + r * n:len(sig.concepts) + (r + 1) * n]
             for r in range(len(sig.roles))]
    del atoms[len(sig.concepts):]
    element = {}
    for ind in sig.individuals:
        k, element[ind] = divmod(k, n)
    if k:
        raise IndexError(f"index {index} out of range for domain size {n}")
    return atoms, roles, element


#: Most interpretations (lanes) one pass of the compiled program tests
#: at once; see ``_odometer``.
MAX_LANES = 729


def _odometer(sig: EnumSignature, n: int, q: int, start: int, stop: int, max_lanes: int = 1
              ) -> Iterator[tuple[int, int, list[list[int]], list[list[list[int]]],
                                  dict[str, int]]]:
    """Indices start..stop-1 of the size-n block in passes: per pass
    (its first index, its lane count L, atoms, roles, element).  A pass
    covers every setting of the first k digit positions, L = (q+1)^k
    consecutive indices, lane l being the pass's first index plus l.
    Those positions are concept cells (they come first), so the lanes
    share their role digits and individuals; ``atoms`` holds each
    concept's digits of all lanes, lane l's element x at ``l*n + x``,
    the layout ``interpretation.run`` evaluates.  k grows by one per
    pass, up to the largest k with L <= max_lanes that starts the pass
    on a multiple of L and ends it by ``stop``; with max_lanes 1 every
    pass is one index and its atoms are the decoded rows.  The first
    index is decoded, each next one a step of the same lists in place
    (first digit fastest), so copy whatever must outlive the next step."""
    if start >= stop:
        return
    base = q + 1
    atoms, roles, element = _decode(sig, n, q, start)
    cells = [(row, i) for row in atoms + [row for block in roles for row in block]
             for i in range(n)]
    top = 0
    while top < len(atoms) * n and base ** (top + 1) <= max_lanes:
        top += 1
    patterns: dict[int, list[list[int]]] = {}  # k -> the lane digits of the rows it reaches
    index, k = start, -1
    while True:
        k = min(k + 1, top)
        while index % base ** k or index + base ** k > stop:
            k -= 1
        lanes = base ** k
        if k:
            if k not in patterns:
                patterns[k] = [[lane // base ** p % base for lane in range(lanes)
                                for p in range(r * n, r * n + n)]
                               for r in range(-(-k // n))]
            yield index, lanes, _lane_rows(atoms, patterns[k], n, k, lanes), roles, element
        else:
            yield index, 1, atoms, roles, element
        index += lanes
        if index >= stop:
            return
        for row, i in cells[k:]:
            if row[i] < q:
                row[i] += 1
                break
            row[i] = 0
        else:
            for ind, e in element.items():
                if e < n - 1:
                    element[ind] = e + 1
                    break
                element[ind] = 0


def _lane_rows(atoms: list[list[int]], patterns: list[list[int]], n: int, k: int, lanes: int
               ) -> list[list[int]]:
    """Each concept's digits over the lanes of a pass that varies the
    first k positions: its lane pattern (0 past position k) with the
    shared digits filled in, or, past position k, its row repeated."""
    rows = []
    for r, row in enumerate(atoms):
        if r * n >= k:
            rows.append(row * lanes)
            continue
        lane_row = patterns[r]
        if any(row[k - r * n:]):
            lane_row = lane_row[:]
            for x in range(k - r * n, n):
                if row[x]:
                    lane_row[x::n] = [row[x]] * lanes
        rows.append(lane_row)
    return rows


def interpretation_at(sig: EnumSignature, logic: LogicFamily, domain_size: int,
                      denominator: int, index: int) -> FuzzyInterpretation:
    """Decode the interpretation at ``index`` (0-based) of the size-n
    block of the enumeration stream."""
    atoms, roles, element = _decode(sig, domain_size, denominator, index)
    return interpretation_of_digits(sig, logic, domain_size, denominator, atoms, roles, element)


def interpretation_of_digits(sig: EnumSignature, logic: LogicFamily, n: int, q: int,
                             atoms: list[list[int]], roles: list[list[list[int]]],
                             element: dict[str, int]) -> FuzzyInterpretation:
    """The interpretation with domain e0..e(n-1) whose degrees are the
    given grid numerators over q (laid out as ``_decode`` returns them)
    and whose individuals denote the given element indices."""
    dom = domain_elements(n)
    grid = [Fraction(i, q) for i in range(q + 1)]
    return FuzzyInterpretation(
        logic=logic, domain=dom,
        concept_names=sig.concepts, role_names=sig.roles,
        concept_val={(name, x): grid[digit]
                     for name, row in zip(sig.concepts, atoms)
                     for x, digit in zip(dom, row) if digit},
        role_val={(name, a, b): grid[digit]
                  for name, rows in zip(sig.roles, roles)
                  for a, row in zip(dom, rows)
                  for b, digit in zip(dom, row) if digit},
        individuals={ind: dom[i] for ind, i in element.items()})


def enumerate_interpretations(sig: EnumSignature, config: SearchConfig
                              ) -> Iterator[FuzzyInterpretation]:
    """All interpretations with domain size <= the bound and atomic
    valuations on the grid {0, 1/q, ..., 1}; sizes ascending."""
    q = config.denominator
    for n in range(1, config.max_domain_size + 1):
        for _, _, atoms, roles, element in _odometer(sig, n, q, 0,
                                                     count_interpretations(sig, n, q)):
            yield interpretation_of_digits(sig, config.logic, n, q, atoms, roles, element)


def random_digits(rng: random.Random, sig: EnumSignature, domain_size: int, denominator: int
                  ) -> tuple[list[list[int]], list[list[list[int]]], dict[str, int]]:
    """The digits, laid out as ``_decode`` returns them, of one uniformly
    random index of the size-n block (one ``rng.randrange`` draw)."""
    n = domain_size
    total = count_interpretations(sig, n, denominator)
    return _decode(sig, n, denominator, rng.randrange(total))


def random_interpretation(rng: random.Random, sig: EnumSignature, logic: LogicFamily,
                          domain_size: int, denominator: int) -> FuzzyInterpretation:
    """One uniformly random grid interpretation (used by the randomized
    property suites)."""
    return interpretation_of_digits(sig, logic, domain_size, denominator,
                                    *random_digits(rng, sig, domain_size, denominator))


# --------------------------------------------------------------------------
# Verdicts
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchStats:
    examined: int
    models_found: int
    truncated: bool
    max_domain_size: int
    denominator: int

    def __str__(self) -> str:
        tail = ", budget exhausted" if self.truncated else ""
        return (f"examined {self.examined} interpretations "
                f"({self.models_found} models) within |domain| <= "
                f"{self.max_domain_size}, grid 1/{self.denominator}{tail}")


@dataclass(frozen=True)
class Refuted:
    countermodel: FuzzyInterpretation
    stats: SearchStats


@dataclass(frozen=True)
class NoCountermodel:
    stats: SearchStats


EntailmentVerdict = Refuted | NoCountermodel

#: Size blocks smaller than this are scanned in-process even when more
#: workers were requested; forking costs more than it saves there.
POOL_MIN_SPAN = 4096


# --------------------------------------------------------------------------
# Scan machinery
# --------------------------------------------------------------------------

def threshold_numerator(threshold: Fraction, q: int) -> int | Fraction:
    """``threshold`` as a numerator over q: an int when q * threshold is
    whole, else the equal Fraction (which compares exactly with ints)."""
    p, d = threshold.as_integer_ratio()
    t = p * q
    return Fraction(t, d) if t % d else t // d


#: Outcomes of ``Question.test`` on one interpretation; only a model's
#: (HOLDS or COUNTER) is true.
NOT_A_MODEL, HOLDS, COUNTER = range(3)


def _check(program: Program, axiom: FuzzyAxiom, q: int) -> tuple:
    """An axiom compiled into ``program`` as a check: (its code, the node
    count its evaluation needs, its comparison, its threshold as a
    numerator over q)."""
    return (program.add_axiom(axiom), len(program.nodes), axiom.cmp.op,
            threshold_numerator(axiom.threshold, q))


class Question:
    """One entailment question over a signature and the grid 1/q,
    compiled once into one program: the axioms that make a model (a
    KB's strict part, or a postulate instance's premises), the KB's
    weighted tables when ``kb`` is given (fm mode), and the goal (or the
    instance's conclusion).  Validity is entailment from no axioms.  A
    question keeps its signature and pickles, so worker processes can
    scan it."""

    def __init__(self, sig: EnumSignature, logic: LogicFamily, q: int, axioms,
                 goal: FuzzyAxiom, kb: WeightedKB | None = None):
        program = Program(sig.concepts, sig.roles)
        self.sig = sig
        self.q = q
        self.ops = CONNECTIVES[logic]
        self.checks = [_check(program, ax, q) for ax in axioms]
        self.tables: list[tuple] = []  # (slot, node count, terms) per weighted table
        for name in kb.distinguished if kb is not None else ():
            if kb.weighted_inclusions(name):
                _, terms = compile_table(program, kb, name)
                self.tables.append((program.concept_slots[name], len(program.nodes), terms))
        self.goal = _check(program, goal, q)
        self.nodes = program.nodes

    def test(self, n: int, atoms: list[list[int]], roles: list[list[list[int]]],
             element: dict[str, int], lanes: int = 1) -> list[int]:
        """The question on the grid digits of ``lanes`` interpretations
        laid out as ``_odometer`` passes them (one when ``lanes`` is 1):
        per lane NOT_A_MODEL if an axiom fails or a preference is not
        faithful to its table, else HOLDS or COUNTER as the goal does.
        Nodes are evaluated only as far as the checks reached need them,
        so a pass stops once no lane is a model."""
        nodes, ops, q = self.nodes, self.ops, self.q
        vals: list[list] = []
        model = [True] * lanes  # per lane: is it a model so far?
        for code, end, holds, t in self.checks:
            run(nodes, end, vals, ops, q, n, atoms, roles, lanes)
            degree = axiom_value(code, vals, ops, q, roles, element, n, lanes)
            if lanes == 1:  # a postulate trial, or a pass of one index
                if not holds(degree[0], t):
                    return [NOT_A_MODEL]
                continue
            model = list(map(and_, model, map(holds, degree, repeat(t))))
            if True not in model:
                return [NOT_A_MODEL] * lanes
        # one element has no preference to be faithful to
        for slot, end, terms in self.tables if n > 1 else ():
            run(nodes, end, vals, ops, q, n, atoms, roles, lanes)
            degrees = atoms[slot]
            for lane in compress(range(lanes), model):
                lane_degrees = degrees[lane * n:lane * n + n]
                model[lane] = follows_preference(
                    lane_degrees, scaled_weights(lane_degrees, vals, terms, lane * n))
            if True not in model:
                return [NOT_A_MODEL] * lanes
        code, end, holds, t = self.goal
        run(nodes, end, vals, ops, q, n, atoms, roles, lanes)
        degree = axiom_value(code, vals, ops, q, roles, element, n, lanes)
        outcomes = [NOT_A_MODEL] * lanes
        for lane in compress(range(lanes), model):
            outcomes[lane] = HOLDS if holds(degree[lane], t) else COUNTER
        return outcomes


def scan_block(question: Question, n: int, start: int, stop: int
               ) -> tuple[int | None, int, int]:
    """Test indices [start, stop) of the size-n block in order, up to
    MAX_LANES of them in one pass of the compiled program; returns
    (index of the first countermodel or None, indices examined, models
    seen up to and including that index)."""
    test = question.test
    models = 0
    for index, lanes, atoms, roles, element in _odometer(question.sig, n, question.q,
                                                         start, stop, MAX_LANES):
        outcomes = test(n, atoms, roles, element, lanes)
        if COUNTER in outcomes:
            lane = outcomes.index(COUNTER)
            models += lane + 1 - outcomes[:lane].count(NOT_A_MODEL)
            return index + lane, index + lane - start + 1, models
        models += lanes - outcomes.count(NOT_A_MODEL)
    return None, stop - start, models


def scan(question: Question, max_domain_size: int, budget: int, jobs: int = 1
         ) -> tuple[tuple[int, int] | None, int, int, bool]:
    """Scan the size blocks 1..max_domain_size in order, each cut to the
    budget left; returns ((n, index) of the first countermodel or None,
    examined, models, whether the budget left an index unexamined).
    With ``jobs`` > 1 a block of POOL_MIN_SPAN or more indices is split
    into chunks for worker processes, aggregated in chunk order, so the
    result is the sequential one."""
    examined = models = 0
    truncated = False
    for n in range(1, max_domain_size + 1):
        remaining = budget - examined
        if remaining <= 0:
            return None, examined, models, True
        total = count_interpretations(question.sig, n, question.q)
        span = min(total, remaining)
        truncated = span < total
        if jobs == 1 or span < POOL_MIN_SPAN:
            found, seen, m = scan_block(question, n, 0, span)
            examined += seen
            models += m
        else:
            # imported here: the pool's modules take about a tenth of the
            # CLI's start-up, and only a pooled scan needs them
            from concurrent.futures import ProcessPoolExecutor
            found = None
            chunk = max(2048, span // (jobs * 8))
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = [pool.submit(scan_block, question, n, s, min(s + chunk, span))
                           for s in range(0, span, chunk)]
                # the first countermodel by index wins
                for fut in futures:
                    found, seen, m = fut.result()
                    examined += seen
                    models += m
                    if found is not None:
                        for later in futures:
                            later.cancel()
                        break
        if found is not None:
            return (n, found), examined, models, truncated
    return None, examined, models, truncated


def _scan(config: SearchConfig, question: Question) -> EntailmentVerdict:
    found, examined, models, truncated = scan(question, config.max_domain_size,
                                              config.budget, config.jobs)
    stats = SearchStats(examined, models, truncated, config.max_domain_size, config.denominator)
    if found is None:
        return NoCountermodel(stats)
    n, index = found
    return Refuted(interpretation_at(question.sig, config.logic, n, config.denominator, index),
                   stats)


# --------------------------------------------------------------------------
# Signatures of KBs and axioms
# --------------------------------------------------------------------------

def _axiom_names(ax: FuzzyAxiom) -> tuple[set[str], set[str], set[str]]:
    if isinstance(ax, Inclusion):
        return (concept_names(ax.lhs) | concept_names(ax.rhs),
                role_names(ax.lhs) | role_names(ax.rhs), set())
    if isinstance(ax, ConceptAssertion):
        return concept_names(ax.concept), role_names(ax.concept), {ax.individual}
    if isinstance(ax, RoleAssertion):
        return set(), {ax.role}, {ax.subject, ax.object}
    raise TypeError(f"not an axiom: {ax!r}")


def signature_for(kb: WeightedKB, goal: FuzzyAxiom | None = None) -> EnumSignature:
    """Names occurring in the KB's axioms, its weighted tables, and the
    goal, in declaration order.  Names that occur nowhere cannot affect
    any verdict and are left out of the enumeration."""
    cs: set[str] = set()
    rs: set[str] = set()
    inds: set[str] = set()
    for ax in kb.all_axioms():
        c, r, i = _axiom_names(ax)
        cs |= c
        rs |= r
        inds |= i
    for name, inclusions in kb.wtbox.items():
        cs.add(name)
        for incl in inclusions:
            cs |= concept_names(incl.consequent)
            rs |= role_names(incl.consequent)
    if goal is not None:
        c, r, i = _axiom_names(goal)
        cs |= c
        rs |= r
        inds |= i
    order = {name: pos for pos, name in enumerate(kb.concepts)}
    return EnumSignature(
        concepts=tuple(sorted(cs, key=lambda s: order.get(s, len(order)))),
        roles=tuple(sorted(rs, key=lambda s: (kb.roles.index(s) if s in kb.roles else 10**9))),
        individuals=tuple(sorted(inds, key=lambda s: (kb.individuals.index(s)
                                                      if s in kb.individuals else 10**9))),
    )


def signature_of_axiom(ax: FuzzyAxiom) -> EnumSignature:
    c, r, i = _axiom_names(ax)
    return EnumSignature(tuple(sorted(c)), tuple(sorted(r)), tuple(sorted(i)))


# --------------------------------------------------------------------------
# Public checks
# --------------------------------------------------------------------------

def check_entailment_bounded(kb: WeightedKB, goal: FuzzyAxiom,
                             config: SearchConfig) -> EntailmentVerdict:
    """Search for a model of the KB (its strict part in plain mode, an
    fm-model in fm mode) falsifying the goal axiom."""
    return _scan(config, Question(signature_for(kb, goal), config.logic, config.denominator,
                                  kb.all_axioms(), goal, kb if config.mode == "fm" else None))


def check_validity_bounded(goal: FuzzyAxiom, config: SearchConfig) -> EntailmentVerdict:
    """Search for any interpretation at all falsifying the axiom: an
    entailment scan from the empty KB over the axiom's own names."""
    return _scan(config, Question(signature_of_axiom(goal), config.logic, config.denominator,
                                  (), goal))
