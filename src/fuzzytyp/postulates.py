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
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from fuzzytyp.algebra import LogicFamily, ONE
from fuzzytyp.engine import (
    EnumSignature,
    NoCountermodel,
    SearchConfig,
    check_validity_bounded,
    enumerate_interpretations,
    interpretation_of_digits,
    random_interpretation,
)
from fuzzytyp.interpretation import FuzzyInterpretation, axiom_degree, typical_elements
from fuzzytyp.syntax import (
    And,
    Atomic,
    BOTTOM,
    Cmp,
    Concept,
    Exists,
    Forall,
    Inclusion,
    KBError,
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
    metavariables it uses, plus an optional validity premise."""

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


def _sample_interpretation(rng: random.Random, sig: EnumSignature, logic: LogicFamily,
                           domain_size: int, denominator: int) -> FuzzyInterpretation:
    """Random grid interpretation, drawn from the full grid most of the
    time but now and then from a small palette of values.  Lumpy
    valuations produce degree ties, and ties are where typicality sets
    grow and the interesting counterexamples live; the bias only speeds
    discovery, witnesses are re-checked like any others."""
    roll = rng.random()
    if roll < 0.6:
        return random_interpretation(rng, sig, logic, domain_size, denominator)
    n, q = domain_size, denominator
    palette = [0, rng.choice(range(1, q + 1))]
    if roll < 0.8:
        palette.append(rng.choice(range(1, q + 1)))
    atoms = [[rng.choice(palette) for _ in range(n)] for _ in sig.concepts]
    roles = [[[rng.choice(palette) for _ in range(n)] for _ in range(n)] for _ in sig.roles]
    return interpretation_of_digits(sig, logic, n, q, atoms, roles, {})


def _random_concept(rng: random.Random, shape: ShapeBound, depth: int) -> Concept:
    atoms: list[Concept] = [Atomic(a) for a in shape.atoms]
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
    role = rng.choice(list(shape.roles))
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


def _random_substitution(rng: random.Random, schema: PostulateSchema,
                         shape: ShapeBound, logic: LogicFamily) -> dict[str, Concept]:
    subst: dict[str, Concept] = {}
    if schema.validity is not None:
        _, lvar, rvar = schema.validity
        entries = [e for e in valid_premise_catalog(logic) if e.kind == schema.validity[0]]
        entry = rng.choice(entries)
        fillers = [_random_concept(rng, shape, shape.max_depth - 1)
                   for _ in range(entry.arity)]
        subst[lvar], subst[rvar] = entry.build(*fillers)
    for var in schema.metavars:
        if var not in subst:
            subst[var] = _random_concept(rng, shape, shape.max_depth)
    return subst


def _force_toward_engagement(rng: random.Random, interp: FuzzyInterpretation,
                             premises: Sequence[Inclusion], denominator: int
                             ) -> FuzzyInterpretation:
    """Rewrite atom valuations so that the premises have a chance to be
    satisfied non-vacuously: for each premise T(X) <= Cons theta n, push
    the consequent up on the typical X elements (to 1 for >= 1 premises,
    to a random positive grid value for > 0 premises).  Best effort
    only; the instance check re-evaluates the premises afterwards."""
    new_val = dict(interp.concept_val)

    def force(concept: Concept, elem: str, target: Fraction) -> None:
        if isinstance(concept, Atomic):
            new_val[(concept.name, elem)] = target
        elif isinstance(concept, And):
            force(concept.left, elem, target)
            force(concept.right, elem, target)
        elif isinstance(concept, Or):
            force(concept.left, elem, target)
        # anything else: leave to chance

    for premise in premises:
        assert isinstance(premise.lhs, Typ)
        try:
            typicals = typical_elements(interp, premise.lhs.sub)
        except KBError:
            continue
        # domain order, so that the draws do not depend on set order
        typicals = [elem for elem in interp.domain if elem in typicals]
        if premise.cmp is Cmp.GE and premise.threshold == ONE:
            targets = {elem: ONE for elem in typicals}
        else:
            targets = {elem: Fraction(rng.randint(1, denominator), denominator)
                       for elem in typicals}
        for elem, target in targets.items():
            force(premise.rhs, elem, target)

    return replace(interp, concept_val=new_val)


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
    and scans the full bounded interpretation space for each, examining
    at most ``trials`` interpretations in all; it does not use the seed.
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
    engaged = vacuous = uncertified = 0

    def run(interp: FuzzyInterpretation, subst: dict[str, Concept]
            ) -> InstanceCheck | None:
        nonlocal engaged, vacuous, uncertified
        try:
            check = check_instance(interp, schema, oracle,
                                   **{v: subst[v] for v in schema.metavars})
        except UncertifiedPremiseError:
            uncertified += 1
            return None
        if check.vacuous:
            vacuous += 1
        else:
            engaged += 1
        return check

    if exhaustive:
        space = SearchConfig(logic=logic, max_domain_size=max_domain_size,
                             denominator=denominator)
        spent = 0
        exhausted = False
        candidates = list(_concept_candidates(shape))
        for subst_tuple in itertools.product(candidates, repeat=len(schema.metavars)):
            subst = dict(zip(schema.metavars, subst_tuple))
            if schema.validity is not None:
                kind, lvar, rvar = schema.validity
                if not oracle(kind, subst[lvar], subst[rvar]):
                    uncertified += 1
                    continue
            for interp in enumerate_interpretations(sig, space):
                spent += 1
                if spent > trials:
                    exhausted = True
                    break
                check = run(interp, subst)
                if check is not None and not check.holds:
                    stats = KlmStats(spent, engaged, vacuous, uncertified, exhausted)
                    return Violated(interp, check, stats)
            if exhausted:
                break
        return HoldsWithinBounds(KlmStats(spent, engaged, vacuous, uncertified, exhausted))

    rng = random.Random(seed)
    for trial in range(trials):
        interp = _sample_interpretation(
            rng, sig, logic, rng.randint(1, max_domain_size), denominator)
        subst = _random_substitution(rng, schema, shape, logic)
        if trial % 2 == 1:
            premises = schema.premises(subst)
            if premises:
                interp = _force_toward_engagement(rng, interp, premises, denominator)
        check = run(interp, subst)
        if check is not None and not check.holds:
            stats = KlmStats(trial + 1, engaged, vacuous, uncertified, False)
            return Violated(interp, check, stats)
    return HoldsWithinBounds(KlmStats(trials, engaged, vacuous, uncertified, False))
