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
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
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


def _advance(rows: list[list[int]], element: dict[str, int], n: int, q: int) -> None:
    """Step decoded digits in place to the next index: the concept rows,
    then the role rows, then the individuals, first digit fastest."""
    for row in rows:
        for i, digit in enumerate(row):
            if digit < q:
                row[i] = digit + 1
                return
            row[i] = 0
    for ind, digit in element.items():
        if digit < n - 1:
            element[ind] = digit + 1
            return
        element[ind] = 0


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


def enumerate_digits(sig: EnumSignature, max_domain_size: int, denominator: int
                     ) -> Iterator[tuple[int, list[list[int]], list[list[list[int]]],
                                         dict[str, int]]]:
    """(n, digits) of every interpretation in stream order, sizes
    ascending, the digits laid out as ``_decode`` returns them.  Each
    size block decodes index 0 once and steps those lists in place, so
    copy whatever must outlive the next step."""
    q = denominator
    for n in range(1, max_domain_size + 1):
        atoms, roles, element = _decode(sig, n, q, 0)
        rows = atoms + [row for block in roles for row in block]
        for k in range(count_interpretations(sig, n, q)):
            if k:
                _advance(rows, element, n, q)
            yield n, atoms, roles, element


def enumerate_interpretations(sig: EnumSignature, config: SearchConfig
                              ) -> Iterator[FuzzyInterpretation]:
    """All interpretations with domain size <= the bound and atomic
    valuations on the grid {0, 1/q, ..., 1}; sizes ascending."""
    q = config.denominator
    for n, atoms, roles, element in enumerate_digits(sig, config.max_domain_size, q):
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
    whole, else the exact Fraction (which compares exactly with ints)."""
    t = threshold * q
    return t.numerator if t.denominator == 1 else t


# The question scanned is a (kb, goal, mode) tuple, which pickles, so
# worker processes can evaluate it.  Validity is entailment from the
# empty KB.

def _compile_axioms(program: Program, axioms, q: int) -> list[tuple]:
    """Per axiom: (its code, the node count its evaluation needs, its
    comparison, its threshold as a numerator over q)."""
    return [(program.add_axiom(ax), len(program.nodes), ax.cmp.op,
             threshold_numerator(ax.threshold, q)) for ax in axioms]


def _scan_chunk(args) -> tuple[int | None, int, int]:
    """Scan indices [start, stop) of one size block; returns
    (local index of first countermodel or None, indices examined,
    models seen up to and including that index).

    The KB and the goal are compiled once.  The first index is decoded
    into grid numerators over q, and each next one is a step of those
    digits; each is checked on them: the strict part, then, in fm mode,
    faithfulness, then the goal."""
    sig, logic, n, q, start, stop, (kb, goal, mode) = args
    program = Program(sig.concepts, sig.roles)
    strict = _compile_axioms(program, kb.all_axioms(), q)
    tables: list[tuple] = []
    if mode == "fm":
        for name in kb.distinguished:
            if kb.weighted_inclusions(name):
                _, terms = compile_table(program, kb, name)
                tables.append((program.concept_slots[name], len(program.nodes), terms))
    [(goal_code, goal_end, goal_holds, goal_t)] = _compile_axioms(program, [goal], q)
    nodes = program.nodes
    ops = CONNECTIVES[logic]

    atoms, roles, element = _decode(sig, n, q, start)
    rows = atoms + [row for block in roles for row in block]
    models = 0
    for k in range(start, stop):
        if k > start:
            _advance(rows, element, n, q)
        vals: list[list] = []
        for code, end, holds, t in strict:
            run(nodes, end, vals, ops, q, n, atoms, roles)
            if not holds(axiom_value(code, vals, ops, q, roles, element), t):
                break
        else:
            for slot, end, terms in tables:
                run(nodes, end, vals, ops, q, n, atoms, roles)
                degrees = atoms[slot]
                if not follows_preference(degrees, scaled_weights(degrees, vals, terms)):
                    break
            else:  # a model, an fm-model in fm mode
                models += 1
                run(nodes, goal_end, vals, ops, q, n, atoms, roles)
                if not goal_holds(axiom_value(goal_code, vals, ops, q, roles, element), goal_t):
                    return k, k - start + 1, models
    return None, stop - start, models


def _scan(sig: EnumSignature, config: SearchConfig, question: tuple) -> EntailmentVerdict:
    examined = 0
    models = 0
    truncated = False
    remaining = config.budget

    for n in range(1, config.max_domain_size + 1):
        total = count_interpretations(sig, n, config.denominator)
        if remaining <= 0:
            truncated = True
            break
        span = min(total, remaining)
        if span < total:
            truncated = True
        found: int | None = None

        if config.jobs == 1 or span < POOL_MIN_SPAN:
            found, seen, m = _scan_chunk((sig, config.logic, n, config.denominator,
                                          0, span, question))
            examined += seen
            models += m
        else:
            chunk = max(2048, span // (config.jobs * 8))
            starts = list(range(0, span, chunk))
            with ProcessPoolExecutor(max_workers=config.jobs) as pool:
                futures = [pool.submit(_scan_chunk,
                                       (sig, config.logic, n, config.denominator,
                                        s, min(s + chunk, span), question))
                           for s in starts]
                # chunk-ordered aggregation keeps the verdict identical to
                # the sequential scan: the first countermodel by index wins
                for fut in futures:
                    local, seen, m = fut.result()
                    examined += seen
                    models += m
                    if local is not None:
                        found = local  # _scan_chunk reports absolute indices
                        for later in futures:
                            later.cancel()
                        break

        remaining -= span if found is None else found + 1
        if found is not None:
            stats = SearchStats(examined, models, truncated,
                                config.max_domain_size, config.denominator)
            counter = interpretation_at(sig, config.logic, n, config.denominator, found)
            return Refuted(counter, stats)

    stats = SearchStats(examined, models, truncated,
                        config.max_domain_size, config.denominator)
    return NoCountermodel(stats)


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
    sig = signature_for(kb, goal)
    return _scan(sig, config, (kb, goal, config.mode))


def check_validity_bounded(goal: FuzzyAxiom, config: SearchConfig) -> EntailmentVerdict:
    """Search for any interpretation at all falsifying the axiom: an
    entailment scan from the empty KB over the axiom's own names."""
    empty = WeightedKB(logic=config.logic, concepts=())
    return _scan(signature_of_axiom(goal), config, (empty, goal, config.mode))
