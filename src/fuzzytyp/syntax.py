"""Concept and axiom data model for weighted fuzzy knowledge bases.

Concepts are immutable trees.  The typicality constructor ``Typ`` is
special in two ways: it may never be nested (enforced at construction
time) and, in weighted typicality inclusions, it is implicit on the
left-hand side and forbidden in the consequent.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Union

from fuzzytyp.algebra import Degree, LogicFamily, as_degree


class KBError(Exception):
    """Base class for knowledge-base construction and parse errors."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


class KBSyntaxError(KBError):
    pass


class NestedTypicalityError(KBError):
    pass


class UndeclaredNameError(KBError):
    pass


class ThresholdRangeError(KBError):
    pass


# --------------------------------------------------------------------------
# Concepts
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Concept:
    """Base class; use the concrete constructors below."""


@dataclass(frozen=True)
class Atomic(Concept):
    name: str


@dataclass(frozen=True)
class Top(Concept):
    pass


@dataclass(frozen=True)
class Bottom(Concept):
    pass


@dataclass(frozen=True)
class Not(Concept):
    sub: Concept


@dataclass(frozen=True)
class And(Concept):
    left: Concept
    right: Concept


@dataclass(frozen=True)
class Or(Concept):
    left: Concept
    right: Concept


@dataclass(frozen=True)
class Exists(Concept):
    role: str
    filler: Concept


@dataclass(frozen=True)
class Forall(Concept):
    role: str
    filler: Concept


@dataclass(frozen=True)
class Typ(Concept):
    sub: Concept

    def __post_init__(self) -> None:
        if contains_typ(self.sub):
            raise NestedTypicalityError("typicality operator may not be nested")


TOP = Top()
BOTTOM = Bottom()


def contains_typ(concept: Concept) -> bool:
    """Whether ``T(...)`` occurs anywhere in the concept tree.  An
    explicit stack, so it costs no generator frames and runs on trees of
    any depth (every ``Typ(...)`` construction calls it)."""
    stack = [concept]
    while stack:
        c = stack.pop()
        kind = type(c)
        if kind is Typ:
            return True
        if kind is And or kind is Or:
            stack.append(c.left)
            stack.append(c.right)
        elif kind is Not:
            stack.append(c.sub)
        elif kind is Exists or kind is Forall:
            stack.append(c.filler)
    return False


def subconcepts(concept: Concept) -> Iterator[Concept]:
    """All nodes of the concept tree, the concept itself included, in
    pre-order.  An explicit stack, so it runs on trees of any depth."""
    stack = [concept]
    while stack:
        c = stack.pop()
        yield c
        kind = type(c)
        if kind is And or kind is Or:
            stack.append(c.right)
            stack.append(c.left)
        elif kind is Not or kind is Typ:
            stack.append(c.sub)
        elif kind is Exists or kind is Forall:
            stack.append(c.filler)


def concept_names(concept: Concept) -> set[str]:
    return {c.name for c in subconcepts(concept) if isinstance(c, Atomic)}


def role_names(concept: Concept) -> set[str]:
    return {c.role for c in subconcepts(concept) if isinstance(c, (Exists, Forall))}


def concept_to_text(concept: Concept) -> str:
    if isinstance(concept, Atomic):
        return concept.name
    if isinstance(concept, Top):
        return "Top"
    if isinstance(concept, Bottom):
        return "Bot"
    if isinstance(concept, Not):
        return f"(not {concept_to_text(concept.sub)})"
    if isinstance(concept, And):
        return f"(and {concept_to_text(concept.left)} {concept_to_text(concept.right)})"
    if isinstance(concept, Or):
        return f"(or {concept_to_text(concept.left)} {concept_to_text(concept.right)})"
    if isinstance(concept, Exists):
        return f"(some {concept.role} {concept_to_text(concept.filler)})"
    if isinstance(concept, Forall):
        return f"(all {concept.role} {concept_to_text(concept.filler)})"
    if isinstance(concept, Typ):
        return f"T({concept_to_text(concept.sub)})"
    raise TypeError(f"not a concept: {concept!r}")


# --------------------------------------------------------------------------
# Axioms
# --------------------------------------------------------------------------

class Cmp(Enum):
    """Comparator attached to a fuzzy axiom's threshold; ``op`` is the
    comparison as a plain function of (degree, threshold)."""

    GE = (">=", operator.ge)
    LE = ("<=", operator.le)
    GT = (">", operator.gt)
    LT = ("<", operator.lt)

    def __new__(cls, symbol: str, op: Callable[[object, object], bool]) -> Cmp:
        member = object.__new__(cls)
        member._value_ = symbol
        member.op = op
        return member

    def apply(self, degree: Degree, threshold: Degree) -> bool:
        return self.op(degree, threshold)

    def __str__(self) -> str:
        return self.value


def _check_threshold(n: Fraction) -> Fraction:
    num, den = n.as_integer_ratio()  # den > 0; cheaper than two Fraction compares
    if not 0 <= num <= den:
        raise ThresholdRangeError(f"threshold {n} outside [0, 1]")
    return n


@dataclass(frozen=True)
class Inclusion:
    """Fuzzy concept inclusion:  lhs <= rhs  cmp  threshold."""

    lhs: Concept
    rhs: Concept
    cmp: Cmp
    threshold: Fraction

    def __post_init__(self) -> None:
        _check_threshold(self.threshold)

    def __str__(self) -> str:
        return (f"{concept_to_text(self.lhs)} <= {concept_to_text(self.rhs)} "
                f"{self.cmp} {self.threshold}")


@dataclass(frozen=True)
class ConceptAssertion:
    concept: Concept
    individual: str
    cmp: Cmp
    threshold: Fraction

    def __post_init__(self) -> None:
        _check_threshold(self.threshold)

    def __str__(self) -> str:
        return (f"{concept_to_text(self.concept)}({self.individual}) "
                f"{self.cmp} {self.threshold}")


@dataclass(frozen=True)
class RoleAssertion:
    role: str
    subject: str
    object: str
    cmp: Cmp
    threshold: Fraction

    def __post_init__(self) -> None:
        _check_threshold(self.threshold)

    def __str__(self) -> str:
        return f"{self.role}({self.subject},{self.object}) {self.cmp} {self.threshold}"


FuzzyAxiom = Union[Inclusion, ConceptAssertion, RoleAssertion]


@dataclass(frozen=True)
class WeightedTypicalityInclusion:
    """T(subject) <= consequent with a signed rational weight.

    The typicality operator on the subject is implicit; the consequent
    must be typicality-free (checked by validate_kb, not here, so that
    invalid instances can be constructed and reported).
    """

    subject: str
    consequent: Concept
    weight: Fraction

    def __str__(self) -> str:
        return f"T({self.subject}) <= {concept_to_text(self.consequent)} @ {self.weight}"


# --------------------------------------------------------------------------
# Knowledge base
# --------------------------------------------------------------------------

@dataclass
class WeightedKB:
    """A weighted knowledge base: strict fuzzy TBox and ABox plus one
    weighted typicality TBox per distinguished concept name."""

    logic: LogicFamily
    concepts: tuple[str, ...]
    roles: tuple[str, ...] = ()
    individuals: tuple[str, ...] = ()
    distinguished: tuple[str, ...] = ()
    tbox: tuple[Inclusion, ...] = ()
    abox: tuple[FuzzyAxiom, ...] = ()
    wtbox: Mapping[str, tuple[WeightedTypicalityInclusion, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # every distinguished concept owns a (possibly empty) entry
        wt = dict(self.wtbox)
        for name in self.distinguished:
            wt.setdefault(name, ())
        object.__setattr__(self, "wtbox", wt)

    def weighted_inclusions(self, name: str) -> tuple[WeightedTypicalityInclusion, ...]:
        return self.wtbox.get(name, ())

    def all_axioms(self) -> Iterator[FuzzyAxiom]:
        yield from self.tbox
        yield from self.abox


# --------------------------------------------------------------------------
# Structural validation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    """One invariant violation, with a path to the offending axiom."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


def _check_names(concept: Concept, kb: WeightedKB, path: str, out: list[Violation]) -> None:
    for name in sorted(concept_names(concept)):
        if name not in kb.concepts:
            out.append(Violation(path, f"undeclared concept name {name!r}"))
    for name in sorted(role_names(concept)):
        if name not in kb.roles:
            out.append(Violation(path, f"undeclared role name {name!r}"))


def validate_kb(kb: WeightedKB) -> list[Violation]:
    """Report every structural invariant violation; empty iff valid."""
    out: list[Violation] = []
    declared_concepts = set(kb.concepts)

    for name in kb.distinguished:
        if name not in declared_concepts:
            out.append(Violation(f"distinguished/{name}", "not a declared concept name"))

    for i, ax in enumerate(kb.tbox):
        path = f"tbox[{i}]"
        if not isinstance(ax, Inclusion):
            out.append(Violation(path, "strict TBox entries must be inclusions"))
            continue
        _check_names(ax.lhs, kb, path, out)
        _check_names(ax.rhs, kb, path, out)

    for i, ax in enumerate(kb.abox):
        path = f"abox[{i}]"
        if isinstance(ax, ConceptAssertion):
            _check_names(ax.concept, kb, path, out)
            if ax.individual not in kb.individuals:
                out.append(Violation(path, f"undeclared individual {ax.individual!r}"))
        elif isinstance(ax, RoleAssertion):
            if ax.role not in kb.roles:
                out.append(Violation(path, f"undeclared role name {ax.role!r}"))
            for ind in (ax.subject, ax.object):
                if ind not in kb.individuals:
                    out.append(Violation(path, f"undeclared individual {ind!r}"))
        else:
            out.append(Violation(path, "ABox entries must be assertions"))

    distinguished = set(kb.distinguished)
    for subject, inclusions in kb.wtbox.items():
        for h, incl in enumerate(inclusions):
            path = f"wtbox[{subject}][{h}]"
            if incl.subject != subject:
                out.append(Violation(path, f"subject {incl.subject!r} does not match its table"))
            if incl.subject not in distinguished:
                out.append(Violation(path, f"subject {incl.subject!r} is not distinguished"))
            if incl.subject not in declared_concepts:
                out.append(Violation(path, f"undeclared concept name {incl.subject!r}"))
            if contains_typ(incl.consequent):
                out.append(Violation(path, "typicality operator in weighted consequent"))
            _check_names(incl.consequent, kb, path, out)

    return out


#: An integer literal: an optional sign and ASCII digits.
INTEGER = r"[+-]?[0-9]+"

#: The number literal of every input format (.fkb, .fint, .fnet and
#: stimulus files): an integer literal with an optional decimal part
#: and an optional denominator, captured as three groups.  The
#: .fkb/.fint lexer is built from it, and ``parse_number`` reads
#: nothing else.
NUMBER = rf"({INTEGER})(?:\.([0-9]+))?(?:/([0-9]+))?"

_INTEGER_RE = re.compile(INTEGER)
_NUMBER_RE = re.compile(NUMBER)


def parse_number(text: str, line: int | None = None, col: int | None = None) -> Fraction:
    """Exact value of a ``NUMBER`` literal (every number of every input
    format is read here), built from its groups.  Anything else, a
    decimal with a denominator, a zero denominator, or more digits than
    the interpreter converts is a KBSyntaxError at ``line``, ``col``."""
    m = _NUMBER_RE.fullmatch(text)
    if m is not None:
        whole, decimals, denominator = m.groups()
        try:
            if denominator is None:
                return Fraction(int(whole + (decimals or "")), 10 ** len(decimals or ""))
            if decimals is None:
                return Fraction(int(whole), int(denominator))
        except (ValueError, ZeroDivisionError):
            pass
    raise KBSyntaxError(f"bad number {text!r}", line, col)


def parse_integer(text: str, line: int | None = None, col: int | None = None) -> int:
    """Value of an ``INTEGER`` literal (a .fnet layer size or layer
    index; the caller checks its range); anything else is a
    KBSyntaxError at ``line``, ``col``."""
    if not _INTEGER_RE.fullmatch(text):
        raise KBSyntaxError(f"bad integer {text!r}", line, col)
    return int(parse_number(text, line, col))


def parse_degree(text: str, line: int | None = None, col: int | None = None) -> Degree:
    """A number literal that must lie in [0, 1]."""
    try:
        return as_degree(parse_number(text, line, col))
    except ValueError as exc:
        raise ThresholdRangeError(str(exc), line, col) from None
