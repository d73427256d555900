"""Instance checkers and counterexample search for the preferential
consequence postulates, reformulated for crisp typicality inclusions
over fuzzy concepts.

Two reformulation families are covered, reading a defeasible
"typical As are Cs" either as the strong inclusion  T(A) <= C >= 1
(the REFL1..CM1 family) or as the weak inclusion  T(A) <= C > 0
(the REFL0..CM0 family), plus the mixed cautious-monotonicity variant
CMSTAR whose first premise is strong and whose conclusion is weak.

LLE and RW carry a semantic validity premise (concept equivalence,
resp. inclusion, valid in every fuzzy interpretation).  Validity in
general is not decided here; premises are certified either by a
per-logic catalog of schema instances (each certified once by an
exhaustive bounded validity check, plus an algebraic note) or by an
explicit bounded check.  Uncertified premises never pass silently.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator

from fuzzytyp.algebra import LogicFamily
from fuzzytyp.engine import (
    COUNTER,
    NOT_A_MODEL,
    EnumSignature,
    NoCountermodel,
    Question,
    SearchConfig,
    check_validity_bounded,
    interpretation_at,
    interpretation_of_digits,
    random_digits,
    scan,
)
from fuzzytyp.interpretation import AND, ATOM, OR, FuzzyInterpretation, axiom_degree, run
from fuzzytyp.syntax import (
    And,
    Atomic,
    BOTTOM,
    Cmp,
    Concept,
    Exists,
    Forall,
    Inclusion,
    Not,
    Or,
    TOP,
    Typ,
)

_GE1 = (Cmp.GE, Fraction(1))
_GT0 = (Cmp.GT, Fraction(0))


class UncertifiedPremiseError(Exception):
    """The validity premise of an LLE/RW instance was not certified."""


def _inc(lhs: Concept, rhs: Concept, t: tuple[Cmp, Fraction]) -> Inclusion:
    return Inclusion(lhs, rhs, t[0], t[1])


@dataclass(frozen=True)
class PostulateSchema:
    """One postulate: premise/conclusion axiom schemas over the concept
    metavariables it uses, plus an optional validity premise.  Premises
    are typicality inclusions T(X) <= Y, and no comparison or threshold
    depends on the substitution (the search reads them off once)."""

    name: str
    metavars: tuple[str, ...]
    validity: tuple[str, str, str] | None  # (kind, lhs var, rhs var)
    premises: Callable[[dict[str, Concept]], tuple[Inclusion, ...]]
    conclusion: Callable[[dict[str, Concept]], Inclusion]


def _make_family(suffix: str, t: tuple[Cmp, Fraction]) -> dict[str, PostulateSchema]:
    return {
        f"REFL{suffix}": PostulateSchema(
            f"REFL{suffix}", ("C",), None,
            lambda s, t=t: (),
            lambda s, t=t: _inc(Typ(s["C"]), s["C"], t)),
        f"LLE{suffix}": PostulateSchema(
            f"LLE{suffix}", ("A", "B", "C"), ("equiv", "A", "B"),
            lambda s, t=t: (_inc(Typ(s["A"]), s["C"], t),),
            lambda s, t=t: _inc(Typ(s["B"]), s["C"], t)),
        f"RW{suffix}": PostulateSchema(
            f"RW{suffix}", ("A", "C", "D"), ("incl", "C", "D"),
            lambda s, t=t: (_inc(Typ(s["A"]), s["C"], t),),
            lambda s, t=t: _inc(Typ(s["A"]), s["D"], t)),
        f"AND{suffix}": PostulateSchema(
            f"AND{suffix}", ("A", "C", "D"), None,
            lambda s, t=t: (_inc(Typ(s["A"]), s["C"], t), _inc(Typ(s["A"]), s["D"], t)),
            lambda s, t=t: _inc(Typ(s["A"]), And(s["C"], s["D"]), t)),
        f"OR{suffix}": PostulateSchema(
            f"OR{suffix}", ("A", "B", "C"), None,
            lambda s, t=t: (_inc(Typ(s["A"]), s["C"], t), _inc(Typ(s["B"]), s["C"], t)),
            lambda s, t=t: _inc(Typ(Or(s["A"], s["B"])), s["C"], t)),
        f"CM{suffix}": PostulateSchema(
            f"CM{suffix}", ("A", "C", "D"), None,
            lambda s, t=t: (_inc(Typ(s["A"]), s["D"], t), _inc(Typ(s["A"]), s["C"], t)),
            lambda s, t=t: _inc(Typ(And(s["A"], s["D"])), s["C"], t)),
    }


POSTULATES: dict[str, PostulateSchema] = {
    **_make_family("1", _GE1),
    **_make_family("0", _GT0),
    "CMSTAR": PostulateSchema(
        "CMSTAR", ("A", "C", "D"), None,
        lambda s: (_inc(Typ(s["A"]), s["D"], _GE1), _inc(Typ(s["A"]), s["C"], _GT0)),
        lambda s: _inc(Typ(And(s["A"], s["D"])), s["C"], _GT0)),
}


# --------------------------------------------------------------------------
# Premise catalogs
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    """A certified validity-premise schema.

    ``build`` instantiates the schema with filler concepts; ``matches``
    recognizes arbitrary instances of it (schema validity survives
    substitution, so recognition is sound)."""

    name: str
    kind: str  # "equiv" or "incl"
    arity: int
    note: str
    cert_max_domain: int
    cert_denominator: int
    build: Callable[..., tuple[Concept, Concept]]
    matches: Callable[[Concept, Concept], bool]


def _pointwise_entries() -> list[CatalogEntry]:
    return [
        CatalogEntry(
            "and-comm", "equiv", 2, "t-norms are commutative", 3, 6,
            lambda x, y: (And(x, y), And(y, x)),
            lambda l, r: (isinstance(l, And) and isinstance(r, And)
                          and l.left == r.right and l.right == r.left)),
        CatalogEntry(
            "or-comm", "equiv", 2, "s-norms are commutative", 2, 6,
            lambda x, y: (Or(x, y), Or(y, x)),
            lambda l, r: (isinstance(l, Or) and isinstance(r, Or)
                          and l.left == r.right and l.right == r.left)),
        CatalogEntry(
            "and-assoc", "equiv", 3, "t-norms are associative", 2, 4,
            lambda x, y, z: (And(And(x, y), z), And(x, And(y, z))),
            lambda l, r: (isinstance(l, And) and isinstance(l.left, And)
                          and isinstance(r, And) and isinstance(r.right, And)
                          and l.left.left == r.left and l.left.right == r.right.left
                          and l.right == r.right.right)),
        CatalogEntry(
            "or-assoc", "equiv", 3, "s-norms are associative", 2, 4,
            lambda x, y, z: (Or(Or(x, y), z), Or(x, Or(y, z))),
            lambda l, r: (isinstance(l, Or) and isinstance(l.left, Or)
                          and isinstance(r, Or) and isinstance(r.right, Or)
                          and l.left.left == r.left and l.left.right == r.right.left
                          and l.right == r.right.right)),
        CatalogEntry(
            "and-weaken", "incl", 2, "a (x) b <= a and <= b, residuum 1", 2, 6,
            lambda x, y: (And(x, y), x),
            lambda l, r: isinstance(l, And) and (l.left == r or l.right == r)),
        CatalogEntry(
            "or-intro", "incl", 2, "a <= a (+) b, residuum 1", 2, 6,
            lambda x, y: (x, Or(x, y)),
            lambda l, r: isinstance(r, Or) and (r.left == l or r.right == l)),
        CatalogEntry(
            "bot-least", "incl", 1, "0 |> b = 1 in all four families", 3, 6,
            lambda x: (BOTTOM, x),
            lambda l, r: l == BOTTOM),
        CatalogEntry(
            "top-greatest", "incl", 1, "a |> 1 = 1 in all four families", 3, 6,
            lambda x: (x, TOP),
            lambda l, r: r == TOP),
    ]


def _zadeh_entries() -> list[CatalogEntry]:
    # Zadeh validity at threshold 1 forces crisp degrees, so only
    # degree-forcing schemas survive
    return [
        CatalogEntry(
            "or-top", "equiv", 1, "a (+) 1 = 1 exactly", 3, 6,
            lambda x: (Or(x, TOP), TOP),
            lambda l, r: (isinstance(l, Or) and (l.left == TOP or l.right == TOP)
                          and r == TOP)),
        CatalogEntry(
            "and-bot", "equiv", 1, "a (x) 0 = 0 exactly", 3, 6,
            lambda x: (And(x, BOTTOM), BOTTOM),
            lambda l, r: (isinstance(l, And) and (l.left == BOTTOM or l.right == BOTTOM)
                          and r == BOTTOM)),
        CatalogEntry(
            "bot-least", "incl", 1, "max(1 - 0, b) = 1", 3, 6,
            lambda x: (BOTTOM, x),
            lambda l, r: l == BOTTOM),
        CatalogEntry(
            "top-greatest", "incl", 1, "max(1 - a, 1) = 1", 3, 6,
            lambda x: (x, TOP),
            lambda l, r: r == TOP),
    ]


def valid_premise_catalog(logic: LogicFamily) -> list[CatalogEntry]:
    """Certified equivalence/inclusion schemas usable as LLE/RW
    premises in the given logic."""
    if logic is LogicFamily.ZADEH:
        return _zadeh_entries()
    return _pointwise_entries()


def certify_catalog_entry(entry: CatalogEntry, logic: LogicFamily,
                          max_domain: int | None = None,
                          denominator: int | None = None) -> bool:
    """Exhaustively re-check the entry, at its documented bounds unless
    overridden."""
    fillers = [Atomic(f"X{i}") for i in range(entry.arity)]
    lhs, rhs = entry.build(*fillers)
    config = SearchConfig(logic=logic,
                          max_domain_size=max_domain or entry.cert_max_domain,
                          denominator=denominator or entry.cert_denominator,
                          budget=10**9)
    axioms = [Inclusion(lhs, rhs, Cmp.GE, Fraction(1))]
    if entry.kind == "equiv":
        axioms.append(Inclusion(rhs, lhs, Cmp.GE, Fraction(1)))
    return all(isinstance(check_validity_bounded(ax, config), NoCountermodel)
               for ax in axioms)


def catalog_oracle(logic: LogicFamily) -> Callable[[str, Concept, Concept], bool]:
    """Validity oracle by catalog membership (either orientation for
    equivalences)."""
    entries = valid_premise_catalog(logic)

    def oracle(kind: str, lhs: Concept, rhs: Concept) -> bool:
        for entry in entries:
            if entry.kind != kind:
                continue
            if entry.matches(lhs, rhs):
                return True
            if kind == "equiv" and entry.matches(rhs, lhs):
                return True
        return False

    return oracle


# --------------------------------------------------------------------------
# Instance checking
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class InstanceCheck:
    """Outcome of evaluating one postulate instance in one
    interpretation."""

    postulate: str
    holds: bool
    vacuous: bool  # some premise not satisfied, conclusion not evaluated against
    substitution: dict[str, Concept]
    premises: tuple[Inclusion, ...]
    premise_degrees: tuple[Fraction, ...]
    conclusion: Inclusion
    conclusion_degree: Fraction


def check_instance(interp: FuzzyInterpretation, postulate: str | PostulateSchema,
                   validity_oracle: Callable[[str, Concept, Concept], bool] | None = None,
                   *, A: Concept | None = None, B: Concept | None = None,
                   C: Concept | None = None, D: Concept | None = None) -> InstanceCheck:
    """Evaluate a postulate instance: if all premises are satisfied in
    the interpretation, the conclusion must be too.

    LLE/RW instances require a validity oracle certifying the semantic
    premise; an uncertified premise raises, never passes.
    """
    schema = POSTULATES[postulate] if isinstance(postulate, str) else postulate
    given = {"A": A, "B": B, "C": C, "D": D}
    subst = {var: val for var, val in given.items() if val is not None}
    if set(subst) != set(schema.metavars):
        raise ValueError(
            f"{schema.name} takes metavariables {schema.metavars}, got {tuple(subst)}")

    if schema.validity is not None:
        kind, lvar, rvar = schema.validity
        if validity_oracle is None:
            raise UncertifiedPremiseError(f"{schema.name} needs a validity oracle")
        if not validity_oracle(kind, subst[lvar], subst[rvar]):
            raise UncertifiedPremiseError(
                f"validity premise of {schema.name} not certified for "
                f"({subst[lvar]!r}, {subst[rvar]!r})")

    premises = schema.premises(subst)
    premise_degrees = tuple(axiom_degree(interp, p) for p in premises)
    conclusion = schema.conclusion(subst)
    conclusion_degree = axiom_degree(interp, conclusion)
    engaged = all(p.cmp.apply(d, p.threshold) for p, d in zip(premises, premise_degrees))
    concl_ok = conclusion.cmp.apply(conclusion_degree, conclusion.threshold)
    return InstanceCheck(
        postulate=schema.name,
        holds=(not engaged) or concl_ok,
        vacuous=not engaged,
        substitution=subst,
        premises=premises,
        premise_degrees=premise_degrees,
        conclusion=conclusion,
        conclusion_degree=conclusion_degree,
    )


# --------------------------------------------------------------------------
# Counterexample search
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ShapeBound:
    """Bounds on the concept instantiations tried by the search."""

    atoms: tuple[str, ...] = ("P1", "P2", "P3")
    roles: tuple[str, ...] = ()
    max_depth: int = 2

    @cached_property
    def _atomic_concepts(self) -> tuple[Atomic, ...]:
        return tuple(Atomic(a) for a in self.atoms)


@dataclass(frozen=True)
class KlmStats:
    trials: int
    engaged: int  # instances whose premises were all satisfied
    vacuous: int
    uncertified: int
    budget_exhausted: bool


@dataclass(frozen=True)
class Violated:
    """A re-checkable witness: premises satisfied, conclusion false."""

    interp: FuzzyInterpretation
    check: InstanceCheck
    stats: KlmStats


@dataclass(frozen=True)
class HoldsWithinBounds:
    stats: KlmStats


PostulateVerdict = Violated | HoldsWithinBounds


def _random_concept(rng: random.Random, shape: ShapeBound, depth: int) -> Concept:
    atoms = shape._atomic_concepts
    if depth == 0 or rng.random() < 0.45:
        # mostly atoms; Top/Bot now and then
        roll = rng.random()
        if roll < 0.85:
            return rng.choice(atoms)
        return TOP if roll < 0.925 else BOTTOM
    ops = ["not", "and", "or"] + (["some", "all"] if shape.roles else [])
    op = rng.choice(ops)
    if op == "not":
        return Not(_random_concept(rng, shape, depth - 1))
    if op == "and":
        return And(_random_concept(rng, shape, depth - 1),
                   _random_concept(rng, shape, depth - 1))
    if op == "or":
        return Or(_random_concept(rng, shape, depth - 1),
                  _random_concept(rng, shape, depth - 1))
    role = rng.choice(shape.roles)
    filler = _random_concept(rng, shape, depth - 1)
    return Exists(role, filler) if op == "some" else Forall(role, filler)


def _concept_candidates(shape: ShapeBound) -> Iterator[Concept]:
    """Deterministic small-first stream of typicality-free concepts."""
    level: list[Concept] = [Atomic(a) for a in shape.atoms] + [TOP, BOTTOM]
    seen: set[Concept] = set(level)
    yield from level
    for _ in range(shape.max_depth):
        nxt: list[Concept] = []
        for c in level:
            nxt.append(Not(c))
        for left, right in itertools.product(level, level):
            nxt.append(And(left, right))
            nxt.append(Or(left, right))
        for role in shape.roles:
            for c in level:
                nxt.append(Exists(role, c))
                nxt.append(Forall(role, c))
        fresh = [c for c in nxt if c not in seen]
        seen.update(fresh)
        yield from fresh
        level = level + fresh


def _random_substitution(rng: random.Random, schema: PostulateSchema, shape: ShapeBound,
                         entries: list[CatalogEntry]) -> dict[str, Concept]:
    """A drawn instantiation; an LLE/RW validity premise is built from
    one of ``entries``, the catalog entries of its kind."""
    subst: dict[str, Concept] = {}
    if schema.validity is not None:
        _, lvar, rvar = schema.validity
        entry = rng.choice(entries)
        fillers = [_random_concept(rng, shape, shape.max_depth - 1)
                   for _ in range(entry.arity)]
        subst[lvar], subst[rvar] = entry.build(*fillers)
    for var in schema.metavars:
        if var not in subst:
            subst[var] = _random_concept(rng, shape, shape.max_depth)
    return subst


def _sample_digits(rng: random.Random, sig: EnumSignature, n: int, q: int
                   ) -> tuple[list[list[int]], list[list[list[int]]]]:
    """Random grid digits, laid out as the engine decodes them: drawn
    from the full grid most of the time but now and then from a small
    palette of values.  Lumpy valuations produce degree ties, and ties
    are where typicality sets grow and the interesting counterexamples
    live; the bias only speeds discovery, witnesses are re-checked like
    any others."""
    roll = rng.random()
    if roll < 0.6:
        atoms, roles, _ = random_digits(rng, sig, n, q)
        return atoms, roles
    palette = [0, rng.choice(range(1, q + 1))]
    if roll < 0.8:
        palette.append(rng.choice(range(1, q + 1)))
    atoms = [[rng.choice(palette) for _ in range(n)] for _ in sig.concepts]
    roles = [[[rng.choice(palette) for _ in range(n)] for _ in range(n)] for _ in sig.roles]
    return atoms, roles


def _force(rng: random.Random, question: Question, n: int, atoms: list[list[int]],
           roles: list[list[list[int]]]) -> None:
    """Rewrite atom digits in place so that the premises of an instance
    have a chance to be satisfied non-vacuously: for each premise
    T(X) <= Cons theta t, push the consequent up on the typical X
    elements (to q for a strong premise, >= with threshold numerator q;
    to a random positive digit otherwise).  The typical elements are
    those where T(X) is nonzero on the digits as given, in element
    order.  Best effort only; the question's test evaluates the
    premises afterwards."""
    # a premise's code is (INCLUSION, its T(X) node, its consequent node)
    nodes, q = question.nodes, question.q
    vals: list[list] = []
    run(nodes, max(code[1] for code, *_ in question.checks) + 1, vals, question.ops, q, n,
        atoms, roles)
    typicals = [[i for i, v in enumerate(vals[code[1]]) if v] for code, *_ in question.checks]

    def push(node: int, i: int, digit: int) -> None:
        op, a, b = nodes[node]
        if op == ATOM:
            atoms[a][i] = digit
        elif op == AND:
            push(a, i, digit)
            push(b, i, digit)
        elif op == OR:
            push(a, i, digit)
        # anything else: leave to chance

    for (code, _, holds, t), elems in zip(question.checks, typicals):
        strong = holds is operator.ge and t == q
        for i in elems:
            push(code[2], i, q if strong else rng.randint(1, q))


def _certified(schema: PostulateSchema, oracle: Callable[[str, Concept, Concept], bool],
               subst: dict[str, Concept]) -> bool:
    if schema.validity is None:
        return True
    kind, lvar, rvar = schema.validity
    return oracle(kind, subst[lvar], subst[rvar])


def _random_trials(rng: random.Random, schema: PostulateSchema, shape: ShapeBound,
                   logic: LogicFamily, sig: EnumSignature, max_domain_size: int, q: int,
                   trials: int) -> Iterator[tuple[int, list[list[int]], list[list[list[int]]],
                                                  dict[str, Concept], Question]]:
    """(n, atoms, roles, substitution, question) of each seeded trial:
    digits and an instantiation drawn, and on every second trial the
    digits forced toward engaging the premises."""
    entries = [e for e in valid_premise_catalog(logic)
               if schema.validity is not None and e.kind == schema.validity[0]]
    for trial in range(trials):
        n = rng.randint(1, max_domain_size)
        atoms, roles = _sample_digits(rng, sig, n, q)
        subst = _random_substitution(rng, schema, shape, entries)
        question = Question(sig, logic, q, schema.premises(subst), schema.conclusion(subst))
        if trial % 2 == 1 and question.checks:
            _force(rng, question, n, atoms, roles)
        yield n, atoms, roles, subst, question


class InternalCheckError(RuntimeError):
    """The trial check on grid digits and ``check_instance`` on the
    witness interpretation disagree: a defect, never a verdict."""


def _witness(schema: PostulateSchema, oracle, interp: FuzzyInterpretation,
             subst: dict[str, Concept], stats: KlmStats) -> Violated:
    """A violating trial's interpretation, re-checked through
    ``check_instance``."""
    check = check_instance(interp, schema, oracle, **subst)
    if check.holds:
        raise InternalCheckError(
            f"{schema.name}: the trial check found a violation that check_instance "
            f"does not confirm for {subst!r}")
    return Violated(interp, check, stats)


def search_counterexample(postulate: str | PostulateSchema, logic: LogicFamily,
                          shape: ShapeBound = ShapeBound(), *, max_domain_size: int = 2,
                          denominator: int = 2, trials: int = 2000, seed: int = 0,
                          exhaustive: bool = False) -> PostulateVerdict:
    """Look for an interpretation plus instantiation violating the
    postulate, over domains of at most ``max_domain_size`` elements and
    atomic degrees on the grid {0, 1/q, ..., 1} with q = ``denominator``.

    Random mode (default) runs ``trials`` seeded draws of an
    interpretation and an instantiation, alternating raw draws with
    premise-forcing draws so that a healthy share of instances engages
    the premises.  Exhaustive mode enumerates instantiations small-first
    and scans the bounded interpretation space for each with the
    engine's block scanner, examining at most ``trials`` interpretations
    in all and reporting the number examined; it does not use the seed.

    Each instance is an entailment question (premises, conclusion),
    tested on grid digits; an interpretation is built only for a
    violating trial, whose ``InstanceCheck`` comes from
    ``check_instance`` (a disagreement raises ``InternalCheckError``).
    """
    if max_domain_size < 1:
        raise ValueError("max_domain_size must be >= 1")
    if denominator < 1:
        raise ValueError("denominator must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if shape.max_depth < 0:
        raise ValueError("depth must be >= 0")
    schema = POSTULATES[postulate] if isinstance(postulate, str) else postulate
    oracle = catalog_oracle(logic)
    sig = EnumSignature(concepts=shape.atoms, roles=shape.roles)
    q = denominator
    engaged = vacuous = uncertified = 0

    if exhaustive:
        spent = 0
        candidates = list(_concept_candidates(shape))
        for subst_tuple in itertools.product(candidates, repeat=len(schema.metavars)):
            subst = dict(zip(schema.metavars, subst_tuple))
            if not _certified(schema, oracle, subst):
                uncertified += 1
                continue
            question = Question(sig, logic, q, schema.premises(subst), schema.conclusion(subst))
            found, seen, models, truncated = scan(question, max_domain_size, trials - spent)
            spent += seen
            engaged += models
            vacuous += seen - models
            if found is not None:
                n, index = found
                stats = KlmStats(spent, engaged, vacuous, uncertified, False)
                return _witness(schema, oracle, interpretation_at(sig, logic, n, q, index),
                                subst, stats)
            if truncated:
                return HoldsWithinBounds(KlmStats(spent, engaged, vacuous, uncertified, True))
        return HoldsWithinBounds(KlmStats(spent, engaged, vacuous, uncertified, False))

    rng = random.Random(seed)
    for trial, (n, atoms, roles, subst, question) in enumerate(_random_trials(
            rng, schema, shape, logic, sig, max_domain_size, q, trials)):
        if not _certified(schema, oracle, subst):
            uncertified += 1
            continue
        outcome, = question.test(n, atoms, roles, {})
        if outcome == NOT_A_MODEL:
            vacuous += 1
            continue
        engaged += 1
        if outcome == COUNTER:
            stats = KlmStats(trial + 1, engaged, vacuous, uncertified, False)
            interp = interpretation_of_digits(sig, logic, n, q, atoms, roles, {})
            return _witness(schema, oracle, interp, subst, stats)
    return HoldsWithinBounds(KlmStats(trials, engaged, vacuous, uncertified, False))
