"""Element weights for distinguished concepts, faithfulness, coherence,
and fm-modelhood of a weighted knowledge base.

The weight of an element x for a distinguished concept C is the sum,
over C's weighted typicality inclusions, of weight times the element's
degree in the consequent, provided x belongs to C with positive degree;
non-members get minus infinity.  Faithfulness demands that strictly
higher C-membership forces a strictly higher weight; coherence demands
the two strict orders coincide.  Both are decided by one check on the
elements sorted into levels of equal degree (``follows_preference``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Union

from fuzzytyp.algebra import ZERO
from fuzzytyp.interpretation import (
    FuzzyInterpretation,
    Program,
    StrictViolation,
    is_model_strict,
)
from fuzzytyp.syntax import UndeclaredNameError, WeightedKB

#: Bottom of the extended weight order.  Compares strictly below every
#: Fraction; NEG_INF > NEG_INF is false, so two non-members never form a
#: violating pair.
NEG_INF = float("-inf")

ExtendedWeight = Union[Fraction, float]


def compile_table(program: Program, kb: WeightedKB, name: str
                  ) -> tuple[int, list[tuple[int, int]]]:
    """A distinguished concept's weighted table compiled into
    ``program``: the scale L, the LCM of the weights' denominators, and
    one (consequent node, integer weight times L) term per inclusion."""
    inclusions = kb.weighted_inclusions(name)
    scale = lcm(*(incl.weight.denominator for incl in inclusions))
    return scale, [(program.add(incl.consequent), int(incl.weight * scale))
                   for incl in inclusions]


def scaled_weights(degrees: list, vals: list[list], terms: list[tuple[int, int]],
                   offset: int = 0) -> list:
    """Weights of every element from numerators over d: its weight times
    L*d for an element of positive degree, NEG_INF for the others.  The
    scaling keeps the weights' order.  The elements' node values start
    at ``offset`` (a lane's first element, see ``interpretation.run``)."""
    return [sum(w * vals[node][offset + x] for node, w in terms) if degree else NEG_INF
            for x, degree in enumerate(degrees)]


def follows_preference(degrees: list, weights: list, coherent: bool = False) -> bool:
    """Does every strictly higher degree come with a strictly higher
    weight (faithfulness), and, if ``coherent``, every strictly higher
    weight with a strictly higher degree?

    The elements are sorted into levels of equal degree.  Faithfulness
    holds iff each level's lightest weight is above the heaviest weight
    of every lower level; coherence holds iff, besides, every level has
    a single weight.  Passing levels climb, so the heaviest weight below
    a level is the one of the level just under it."""
    level = top = None  # the current level's degree and heaviest weight
    for degree, w in sorted(zip(degrees, weights)):
        if degree != level:
            if top is not None and not w > top:  # w: the new level's lightest
                return False
            level = degree
        elif coherent and w != top:
            return False
        top = w
    return True


def _scaled_table(interp: FuzzyInterpretation, kb: WeightedKB, name: str
                  ) -> tuple[list, list, int]:
    """(degree numerators, scaled weights, weight denominator L*d) of
    every domain element for one distinguished concept, computed once
    per interpretation and table."""
    k = interp._kernel
    slot = k.program.concept_slots.get(name)
    if slot is None:
        raise UndeclaredNameError(f"undeclared concept name {name!r}")
    key = (name, kb.weighted_inclusions(name))
    table = k.tables.get(key)
    if table is None:
        scale, terms = compile_table(k.program, kb, name)
        degrees = k.atoms[slot]
        table = k.tables[key] = (degrees, scaled_weights(degrees, k.evaluate(), terms),
                                 scale * k.d)
    return table


def _weight(scaled, denominator: int) -> ExtendedWeight:
    return scaled if scaled is NEG_INF else Fraction(scaled, denominator)


def weight(interp: FuzzyInterpretation, kb: WeightedKB, concept_name: str,
           elem: str) -> ExtendedWeight:
    """Weight of ``elem`` w.r.t. the distinguished ``concept_name``.

    An empty weighted table gives weight 0 to every member.
    """
    if concept_name not in kb.distinguished:
        raise ValueError(f"{concept_name!r} is not a distinguished concept")
    if interp.concept_degree(concept_name, elem) == ZERO:
        return NEG_INF
    _, weights, denominator = _scaled_table(interp, kb, concept_name)
    return _weight(weights[interp._kernel.index[elem]], denominator)


def weight_table(interp: FuzzyInterpretation, kb: WeightedKB
                 ) -> dict[tuple[str, str], ExtendedWeight]:
    """All weights, keyed by (distinguished concept, element)."""
    table = {}
    for name in kb.distinguished:
        _, weights, denominator = _scaled_table(interp, kb, name)
        for x, w in zip(interp.domain, weights):
            table[(name, x)] = _weight(w, denominator)
    return table


@dataclass(frozen=True)
class PreferenceWeightViolation:
    """A pair breaking faithfulness or coherence, with the evidence."""

    kind: str  # "faithfulness" (preferred but not heavier) or
               # "coherence" (heavier but not preferred)
    concept: str
    x: str
    y: str
    degree_x: Fraction
    degree_y: Fraction
    weight_x: ExtendedWeight
    weight_y: ExtendedWeight

    def __str__(self) -> str:
        reason = ("preferred without higher weight" if self.kind == "faithfulness"
                  else "higher weight without preference")
        return (f"{self.kind} violation for {self.concept}: ({self.x}, {self.y}) "
                f"degrees {self.degree_x}/{self.degree_y} "
                f"weights {self.weight_x}/{self.weight_y} ({reason})")


def _scan_pairs(interp: FuzzyInterpretation, kb: WeightedKB, check_converse: bool
                ) -> list[PreferenceWeightViolation]:
    violations: list[PreferenceWeightViolation] = []
    d = interp._kernel.d
    for name in kb.distinguished:
        # a concept listed as distinguished but owning no weighted
        # inclusions constrains nothing: all its members would weigh 0,
        # so any strict membership preference would be unmatchable
        if not kb.weighted_inclusions(name):
            continue
        degrees, weights, denominator = _scaled_table(interp, kb, name)
        if follows_preference(degrees, weights, check_converse):
            continue
        # enumerate the violating ordered pairs only when there are some,
        # with each element's degree and weight as Fractions built once
        exact = [(Fraction(degree, d), _weight(w, denominator))
                 for degree, w in zip(degrees, weights)]
        for i, x in enumerate(interp.domain):
            for j, y in enumerate(interp.domain):
                preferred = degrees[i] > degrees[j]
                heavier = weights[i] > weights[j]
                if preferred and not heavier:
                    kind = "faithfulness"
                elif check_converse and heavier and not preferred:
                    kind = "coherence"
                else:
                    continue
                violations.append(PreferenceWeightViolation(
                    kind, name, x, y, exact[i][0], exact[j][0], exact[i][1], exact[j][1]))
    return violations


def is_faithful(interp: FuzzyInterpretation, kb: WeightedKB
                ) -> tuple[bool, list[PreferenceWeightViolation]]:
    """True iff every strict membership preference for a distinguished
    concept is matched by a strict weight drop; violations enumerated
    exhaustively over ordered pairs."""
    violations = _scan_pairs(interp, kb, check_converse=False)
    return not violations, violations


def is_coherent(interp: FuzzyInterpretation, kb: WeightedKB
                ) -> tuple[bool, list[PreferenceWeightViolation]]:
    """True iff membership preference and strict weight order coincide
    for every distinguished concept (faithfulness plus its converse)."""
    violations = _scan_pairs(interp, kb, check_converse=True)
    return not violations, violations


@dataclass(frozen=True)
class FmModelReport:
    is_fm_model: bool
    strict_ok: bool
    strict_violations: tuple[StrictViolation, ...]
    faithful: bool
    faithfulness_violations: tuple[PreferenceWeightViolation, ...]


def is_fm_model(interp: FuzzyInterpretation, kb: WeightedKB) -> FmModelReport:
    """Faithful multipreference modelhood: the strict part is satisfied
    and every induced preference is faithful to its weighted table."""
    strict_ok, strict_violations = is_model_strict(interp, kb)
    faithful, faith_violations = is_faithful(interp, kb)
    return FmModelReport(
        is_fm_model=strict_ok and faithful,
        strict_ok=strict_ok,
        strict_violations=tuple(strict_violations),
        faithful=faithful,
        faithfulness_violations=tuple(faith_violations),
    )
