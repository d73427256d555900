"""Finite fuzzy interpretations and compositional concept evaluation.

The domain is finite, so the suprema and infima of the role quantifiers
are plain max/min over the domain (every bound is witnessed).  The
typicality concept T(C) gets a crisp value: 1 exactly on the elements
whose C-degree is maximal among the elements with positive C-degree.
That is the set of minimal elements of the preference induced by C
(x is preferred to y iff its C-degree is strictly higher), restricted
to positive membership.

Evaluation happens in two steps.  ``Program`` compiles concepts once
into a hash-consed post-order node list, so equal subconcepts share one
node id and the id is the cache key.  ``run`` evaluates the nodes over
per-element lists of numerators over one denominator d, with the
family's ``Connectives`` (see ``algebra``).  The bounded search engine
runs a program directly on decoded grid digits (d = q), for many
interpretations (lanes) in one pass; an interpretation object runs one
on its own degrees scaled by their common denominator.
Fractions appear only at the API, in the degrees returned below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from types import MappingProxyType
from typing import Mapping

from fuzzytyp.algebra import (
    CONNECTIVES,
    ZERO,
    Connectives,
    Degree,
    LogicFamily,
    pointwise_max,
    pointwise_min,
)
from fuzzytyp.syntax import (
    And,
    Atomic,
    Bottom,
    Concept,
    ConceptAssertion,
    Exists,
    Forall,
    FuzzyAxiom,
    Inclusion,
    Not,
    Or,
    RoleAssertion,
    Top,
    Typ,
    UndeclaredNameError,
    WeightedKB,
)

# Node opcodes.  A node is (op, a, b): for NOT/TYP ``a`` and for AND/OR
# ``a`` and ``b`` are ids of earlier nodes; for ATOM ``a`` is a concept
# slot; for SOME/ALL ``a`` is a role slot and ``b`` the filler's id.
ATOM, AND, OR, NOT, SOME, ALL, TYP, TOP, BOT = range(9)

# Compiled axioms are (kind, a, b): (INCLUSION, lhs id, rhs id),
# (CONCEPT_ASSERTION, concept id, individual),
# (ROLE_ASSERTION, role slot, (subject, object)).
INCLUSION, CONCEPT_ASSERTION, ROLE_ASSERTION = range(3)


class Program:
    """Concepts over a fixed signature, compiled into one hash-consed
    post-order node list: every node comes after its children, and
    structurally equal subconcepts are one node."""

    def __init__(self, concept_names: tuple[str, ...], role_names: tuple[str, ...]):
        self.concept_slots = {name: i for i, name in enumerate(concept_names)}
        self.role_slots = {name: i for i, name in enumerate(role_names)}
        self.nodes: list[tuple] = []
        self._ids: dict[tuple, int] = {}
        # id(concept) -> (concept, node id): a concept object added again
        # costs one lookup; holding it keeps its id from being reused
        self._added: dict[int, tuple[Concept, int]] = {}

    def _role(self, name: str) -> int:
        slot = self.role_slots.get(name)
        if slot is None:
            raise UndeclaredNameError(f"undeclared role name {name!r}")
        return slot

    def add(self, concept: Concept) -> int:
        """Node id of ``concept``, compiling whatever is new of it."""
        added = self._added.get(id(concept))
        if added is not None:
            return added[1]
        kind = type(concept)
        if kind is Atomic:
            slot = self.concept_slots.get(concept.name)
            if slot is None:
                raise UndeclaredNameError(f"undeclared concept name {concept.name!r}")
            key = (ATOM, slot, 0)
        elif kind is And:
            key = (AND, self.add(concept.left), self.add(concept.right))
        elif kind is Or:
            key = (OR, self.add(concept.left), self.add(concept.right))
        elif kind is Not:
            key = (NOT, self.add(concept.sub), 0)
        elif kind is Exists:
            key = (SOME, self._role(concept.role), self.add(concept.filler))
        elif kind is Forall:
            key = (ALL, self._role(concept.role), self.add(concept.filler))
        elif kind is Typ:
            key = (TYP, self.add(concept.sub), 0)
        elif kind is Top:
            key = (TOP, 0, 0)
        elif kind is Bottom:
            key = (BOT, 0, 0)
        else:
            raise TypeError(f"not a concept: {concept!r}")
        node = self._ids.get(key)
        if node is None:
            node = self._ids[key] = len(self.nodes)
            self.nodes.append(key)
        self._added[id(concept)] = (concept, node)
        return node

    def add_axiom(self, axiom: FuzzyAxiom) -> tuple:
        """Compile an axiom's concepts; returns its (kind, a, b) code."""
        if isinstance(axiom, Inclusion):
            return INCLUSION, self.add(axiom.lhs), self.add(axiom.rhs)
        if isinstance(axiom, ConceptAssertion):
            return CONCEPT_ASSERTION, self.add(axiom.concept), axiom.individual
        if isinstance(axiom, RoleAssertion):
            return ROLE_ASSERTION, self._role(axiom.role), (axiom.subject, axiom.object)
        raise TypeError(f"not an axiom: {axiom!r}")


def _lanewise(reduce, vectors: list[list]) -> list:
    """``reduce`` (min or max) across equal-length vectors, position by
    position, keeping the first of equal values as ``reduce`` does."""
    pointwise = pointwise_min if reduce is min else pointwise_max
    v = vectors[0]
    for w in vectors[1:]:
        v = pointwise(v, w)
    return v


def _quantify(reduce, pair, rows: list[list], filler: list, d: int, n: int, lanes: int) -> list:
    """A role quantifier in every lane: per element x, ``reduce`` over y
    of ``pair(R(x, y), filler(y))``, R shared by the lanes."""
    if lanes == 1:
        return [reduce(pair(row, filler, d)) for row in rows]
    cols = [filler[y::n] for y in range(n)]
    v = [0] * (n * lanes)
    for x, row in enumerate(rows):
        v[x::n] = _lanewise(reduce, [pair([r] * lanes, col, d) for r, col in zip(row, cols)])
    return v


def _typical(sub: list, d: int, n: int, lanes: int) -> list:
    """T(C) in every lane: d on the elements of maximal positive degree
    in ``sub``, 0 elsewhere."""
    if lanes == 1:
        top = max(sub)
        return [d if x == top else 0 for x in sub] if top > 0 else [0] * n
    cols = [sub[y::n] for y in range(n)]
    tops = _lanewise(max, cols)
    v = [0] * (n * lanes)
    for y, col in enumerate(cols):
        v[y::n] = [d if x == top and top > 0 else 0 for x, top in zip(col, tops)]
    return v


def run(nodes: list[tuple], stop: int, vals: list[list], ops: Connectives, d: int, n: int,
        atoms: list[list], roles: list[list[list]], lanes: int = 1) -> None:
    """Evaluate ``nodes[len(vals):stop]``, appending each node's list of
    numerators over ``d``: for each of ``lanes`` interpretations over one
    n-element domain, one per element, lane l's element x at ``l*n + x``.
    ``atoms[slot]`` holds a concept name's numerators in that layout;
    the lanes share their roles, ``roles[slot][x]`` holding the
    numerators of a role name's pairs (x, y) for every y.  Elementwise
    connectives run over all lanes at once; the quantifiers and
    typicality reduce over the elements of each lane, over the strided
    lane vectors ``v[y::n]`` when there is more than one lane."""
    tnorm, snorm, implication, negation = ops
    for i in range(len(vals), stop):
        op, a, b = nodes[i]
        if op == ATOM:
            v = atoms[a]
        elif op == AND:
            v = tnorm(vals[a], vals[b], d)
        elif op == OR:
            v = snorm(vals[a], vals[b], d)
        elif op == NOT:
            v = negation(vals[a], d)
        elif op == SOME:
            v = _quantify(max, tnorm, roles[a], vals[b], d, n, lanes)
        elif op == ALL:
            v = _quantify(min, implication, roles[a], vals[b], d, n, lanes)
        elif op == TYP:
            v = _typical(vals[a], d, n, lanes)
        elif op == TOP:
            v = [d] * (n * lanes)
        else:
            v = [0] * (n * lanes)
        vals.append(v)


def axiom_value(code: tuple, vals: list[list], ops: Connectives, d: int,
                roles: list[list[list]], element: Mapping[str, int], n: int,
                lanes: int = 1) -> list:
    """Numerators over ``d`` of a compiled axiom's degree, one per lane
    (laid out as ``run`` evaluates them); its nodes must be evaluated.
    ``element`` maps an individual to its element index."""
    kind, a, b = code
    if kind == INCLUSION:
        implied = ops.implication(vals[a], vals[b], d)
        if lanes == 1:
            return [min(implied)]
        return _lanewise(min, [implied[x::n] for x in range(n)])
    if kind == CONCEPT_ASSERTION:
        return vals[a][element[b]::n]
    return [roles[a][element[b[0]]][element[b[1]]]] * lanes


class _Kernel:
    """An interpretation's degrees as numerators over their common
    denominator, and every concept evaluated on them so far."""

    def __init__(self, interp: FuzzyInterpretation):
        cv, rv = interp.concept_val, interp.role_val
        self.d = d = lcm(*(v.denominator for v in cv.values()),
                         *(v.denominator for v in rv.values()))
        dom = interp.domain
        self.n = len(dom)
        self.index = {x: i for i, x in enumerate(dom)}
        self.atoms = [[cv[k].numerator * (d // cv[k].denominator) if (k := (name, x)) in cv
                       else 0 for x in dom] for name in interp.concept_names]
        self.roles = [[[rv[k].numerator * (d // rv[k].denominator) if (k := (name, x, y)) in rv
                        else 0 for y in dom] for x in dom] for name in interp.role_names]
        self.element = {ind: self.index[x] for ind, x in interp.individuals.items()
                        if x in self.index}
        self.ops = CONNECTIVES[interp.logic]
        self.program = Program(interp.concept_names, interp.role_names)
        self.vals: list[list] = []
        # (distinguished concept, its weighted inclusions) -> its scaled
        # weight table (``weighted._scaled_table``)
        self.tables: dict[tuple, tuple[list, list, int]] = {}

    def evaluate(self) -> list[list]:
        """Evaluate every node compiled so far; returns the node values."""
        run(self.program.nodes, len(self.program.nodes), self.vals, self.ops, self.d,
            self.n, self.atoms, self.roles)
        return self.vals

    def values(self, concept: Concept) -> list:
        node = self.program.add(concept)
        return self.evaluate()[node]

    def degree(self, numerator) -> Fraction:
        return Fraction(numerator, self.d)


@dataclass(frozen=True)
class FuzzyInterpretation:
    """Immutable finite fuzzy interpretation.

    Valuations are total over the declared signature; entries missing
    from the mappings default to degree 0.  The mappings are read-only
    copies of the ones given; degrees are Fractions (or ints).
    """

    logic: LogicFamily
    domain: tuple[str, ...]
    concept_names: tuple[str, ...]
    role_names: tuple[str, ...] = ()
    concept_val: Mapping[tuple[str, str], Fraction] = field(default_factory=dict)
    role_val: Mapping[tuple[str, str, str], Fraction] = field(default_factory=dict)
    individuals: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.domain:
            raise ValueError("domain must be nonempty")
        for name in ("concept_val", "role_val", "individuals"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))

    def __reduce__(self):
        # read-only mappings do not pickle; rebuild from plain copies
        return (FuzzyInterpretation, (self.logic, self.domain, self.concept_names,
                                      self.role_names, dict(self.concept_val),
                                      dict(self.role_val), dict(self.individuals)))

    @cached_property
    def _kernel(self) -> _Kernel:
        return _Kernel(self)

    def concept_degree(self, name: str, elem: str) -> Degree:
        if name not in self.concept_names:
            raise UndeclaredNameError(f"undeclared concept name {name!r}")
        return self.concept_val.get((name, elem), ZERO)

    def role_degree(self, name: str, a: str, b: str) -> Degree:
        if name not in self.role_names:
            raise UndeclaredNameError(f"undeclared role name {name!r}")
        return self.role_val.get((name, a, b), ZERO)

    def element_of(self, individual: str) -> str:
        try:
            return self.individuals[individual]
        except KeyError:
            raise UndeclaredNameError(f"unbound individual {individual!r}") from None


def eval_concept(interp: FuzzyInterpretation, concept: Concept, elem: str) -> Degree:
    """Membership degree of ``elem`` in ``concept``."""
    if elem not in interp.domain:
        raise UndeclaredNameError(f"element {elem!r} not in domain")
    k = interp._kernel
    return k.degree(k.values(concept)[k.index[elem]])


def typical_elements(interp: FuzzyInterpretation, concept: Concept) -> set[str]:
    """Elements whose degree in ``concept`` is maximal among the positive
    ones, read off ``T(concept)``: the elements where it is nonzero.
    Empty iff the concept has degree 0 everywhere."""
    if not isinstance(concept, Typ):
        concept = Typ(concept)  # raises NestedTypicalityError if nested
    return {x for x, v in zip(interp.domain, interp._kernel.values(concept)) if v}


def axiom_degree(interp: FuzzyInterpretation, axiom: FuzzyAxiom) -> Degree:
    """Degree of an inclusion (inf of pointwise implications) or of an
    assertion (membership at the named individual / role pair)."""
    k = interp._kernel
    code = k.program.add_axiom(axiom)
    try:
        return k.degree(axiom_value(code, k.evaluate(), k.ops, k.d, k.roles, k.element, k.n)[0])
    except KeyError as exc:
        raise UndeclaredNameError(f"unbound individual {exc.args[0]!r}") from None


def satisfies(interp: FuzzyInterpretation, axiom: FuzzyAxiom) -> bool:
    return axiom.cmp.apply(axiom_degree(interp, axiom), axiom.threshold)


@dataclass(frozen=True)
class StrictViolation:
    axiom: FuzzyAxiom
    degree: Fraction

    def __str__(self) -> str:
        return f"{self.axiom}  (actual degree {self.degree})"


def is_model_strict(interp: FuzzyInterpretation, kb: WeightedKB
                    ) -> tuple[bool, list[StrictViolation]]:
    """Check the strict part only: every TBox inclusion and ABox
    assertion.  Weighted typicality tables are the business of the
    weighted-semantics module."""
    violations = [StrictViolation(ax, d)
                  for ax in kb.all_axioms()
                  if not ax.cmp.apply(d := axiom_degree(interp, ax), ax.threshold)]
    return not violations, violations
