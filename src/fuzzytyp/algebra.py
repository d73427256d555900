"""Exact truth-degree arithmetic and the combination functions of the
four supported fuzzy logic families.

Degrees are exact rationals in [0, 1]; equality and ordering are exact,
there is no epsilon anywhere in this package.  At the API a degree is a
``fractions.Fraction``.  Inside the evaluator every degree of one
interpretation is held as an integer numerator over one common
denominator ``d`` (the grid denominator q for an enumerated
interpretation, the LCM of the degrees' denominators otherwise), so
a stands for a/d.  Zadeh, Godel and Lukasiewicz are closed on these
numerators: their operations are integer min, max and clamped sums.
Product leaves the grid: a*b/d and d*b/a are returned as exact
``Fraction`` numerators, which compare exactly with the int ones.

Combination functions per family, on degrees (on numerators, read 1
as d and a*b as a*b/d):

=============  ==============  ==============  ======================  ============
family         a (x) b         a (+) b         a |> b                  (-) a
=============  ==============  ==============  ======================  ============
zadeh          min(a, b)       max(a, b)       max(1 - a, b)           1 - a
godel          min(a, b)       max(a, b)       1 if a <= b else b      1 if a = 0 else 0
lukasiewicz    max(0, a+b-1)   min(1, a+b)     min(1, 1 - a + b)       1 - a
product        a * b           a + b - a*b     1 if a <= b else b/a    1 if a = 0 else 0
=============  ==============  ==============  ======================  ============

The product implication is the Goguen residuum; its division is exact
on rationals.  Product negation is taken to be the residuated (Godel
style) negation, the standard choice; see PRODUCT_NEGATION_NOTE.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple

Degree = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

#: Product logic has no canonical negation of its own in the sources the
#: combination functions come from; we use the residuum at 0, which
#: coincides with the Godel negation.
PRODUCT_NEGATION_NOTE = "product negation = Godel negation (residuum at 0)"


class LogicFamily(Enum):
    """The fuzzy logic family fixing the four combination functions."""

    ZADEH = "zadeh"
    GODEL = "godel"
    LUKASIEWICZ = "lukasiewicz"
    PRODUCT = "product"

    def __str__(self) -> str:
        return self.value


def logic_from_name(name: str) -> LogicFamily:
    try:
        return LogicFamily(name.lower())
    except ValueError:
        known = ", ".join(f.value for f in LogicFamily)
        raise ValueError(f"unknown logic family {name!r} (known: {known})") from None


def as_degree(value: object) -> Degree:
    """Convert ``value`` (Fraction, int, or exact numeric string) to a
    degree, rejecting anything outside [0, 1].

    Decimal strings are converted exactly: as_degree("0.8") == Fraction(4, 5).
    """
    d = Fraction(str(value)) if isinstance(value, str) else Fraction(value)
    if not ZERO <= d <= ONE:
        raise ValueError(f"degree {d} outside [0, 1]")
    return d


def _over(p, d: int):
    """p/d exactly: an int when d divides p, else a Fraction."""
    return p // d if p % d == 0 else Fraction(p, d)


def pointwise_min(xs: list, ys: list, d: int = 0) -> list:
    """min(a, b) at each position (a on ties, as ``min`` picks); a
    comparison is cheaper than a call of the builtin."""
    return [b if b < a else a for a, b in zip(xs, ys)]


def pointwise_max(xs: list, ys: list, d: int = 0) -> list:
    """max(a, b) at each position (a on ties, as ``max`` picks)."""
    return [b if b > a else a for a, b in zip(xs, ys)]


def _complement(xs: list, d: int) -> list:
    return [d - a for a in xs]


def _residual_negation(xs: list, d: int) -> list:
    return [0 if a else d for a in xs]


def _zadeh_implication(xs: list, ys: list, d: int) -> list:
    return [b if b > d - a else d - a for a, b in zip(xs, ys)]


def _godel_implication(xs: list, ys: list, d: int) -> list:
    return [d if a <= b else b for a, b in zip(xs, ys)]


def _lukasiewicz_tnorm(xs: list, ys: list, d: int) -> list:
    return [a + b - d if a + b > d else 0 for a, b in zip(xs, ys)]


def _lukasiewicz_snorm(xs: list, ys: list, d: int) -> list:
    return [a + b if a + b < d else d for a, b in zip(xs, ys)]


def _lukasiewicz_implication(xs: list, ys: list, d: int) -> list:
    return [d - a + b if a > b else d for a, b in zip(xs, ys)]


def _product_tnorm(xs: list, ys: list, d: int) -> list:
    return [_over(a * b, d) for a, b in zip(xs, ys)]


def _product_snorm(xs: list, ys: list, d: int) -> list:
    return [a + b - _over(a * b, d) for a, b in zip(xs, ys)]


def _product_implication(xs: list, ys: list, d: int) -> list:
    return [d if a <= b else _over(d * b, a) for a, b in zip(xs, ys)]


class Connectives(NamedTuple):
    """One family's combination functions on lists of numerators over a
    common denominator ``d``, elementwise: ``tnorm(xs, ys, d)`` and so
    on return a new list and never modify their arguments."""

    tnorm: Callable[[list, list, int], list]
    snorm: Callable[[list, list, int], list]
    implication: Callable[[list, list, int], list]
    negation: Callable[[list, int], list]


CONNECTIVES: dict[LogicFamily, Connectives] = {
    LogicFamily.ZADEH: Connectives(pointwise_min, pointwise_max, _zadeh_implication,
                                   _complement),
    LogicFamily.GODEL: Connectives(pointwise_min, pointwise_max, _godel_implication,
                                   _residual_negation),
    LogicFamily.LUKASIEWICZ: Connectives(_lukasiewicz_tnorm, _lukasiewicz_snorm,
                                         _lukasiewicz_implication, _complement),
    LogicFamily.PRODUCT: Connectives(_product_tnorm, _product_snorm,
                                     _product_implication, _residual_negation),
}


# The same tables on single degrees, as Fractions (denominator 1).

def tnorm(logic: LogicFamily, a: Degree, b: Degree) -> Degree:
    return Fraction(CONNECTIVES[logic].tnorm([a], [b], 1)[0])


def snorm(logic: LogicFamily, a: Degree, b: Degree) -> Degree:
    return Fraction(CONNECTIVES[logic].snorm([a], [b], 1)[0])


def implication(logic: LogicFamily, a: Degree, b: Degree) -> Degree:
    return Fraction(CONNECTIVES[logic].implication([a], [b], 1)[0])


def negation(logic: LogicFamily, a: Degree) -> Degree:
    return Fraction(CONNECTIVES[logic].negation([a], 1)[0])
