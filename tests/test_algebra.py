"""Combination-function tests: pinned values, algebraic laws on the
full 1/12 grid, and residuation."""

from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, strategies as st

from fuzzytyp.algebra import (
    LogicFamily,
    as_degree,
    implication,
    logic_from_name,
    negation,
    pointwise_max,
    pointwise_min,
    snorm,
    tnorm,
)

ALL = list(LogicFamily)
GRID12 = [F(i, 12) for i in range(13)]

# cross-check table for the two families the core references only name:
# one row per (a, b, tnorm, snorm, implication), frozen from the
# standard definitions max(0, a+b-1) / min(1, a+b) / min(1, 1-a+b) and
# a*b / a+b-a*b / (1 if a<=b else b/a)
LUKASIEWICZ_TABLE = [
    (F(6, 10), F(7, 10), F(3, 10), F(1), F(1)),
    (F(1, 2), F(1, 4), F(0), F(3, 4), F(3, 4)),
    (F(1), F(1, 3), F(1, 3), F(1), F(1, 3)),
    (F(0), F(0), F(0), F(0), F(1)),
]
PRODUCT_TABLE = [
    (F(1, 2), F(1, 2), F(1, 4), F(3, 4), F(1)),
    (F(8, 10), F(2, 10), F(4, 25), F(21, 25), F(1, 4)),
    (F(1), F(1, 3), F(1, 3), F(1), F(1, 3)),
    (F(1, 3), F(0), F(0), F(1, 3), F(0)),
]


class TestPinnedValues:
    def test_zadeh_tnorm_is_min(self):
        assert tnorm(LogicFamily.ZADEH, F(3, 10), F(7, 10)) == F(3, 10)

    def test_godel_snorm_is_max(self):
        assert snorm(LogicFamily.GODEL, F(3, 10), F(7, 10)) == F(7, 10)

    def test_zadeh_implication(self):
        assert implication(LogicFamily.ZADEH, F(4, 10), F(2, 10)) == F(6, 10)

    def test_zadeh_negation(self):
        assert negation(LogicFamily.ZADEH, F(3, 10)) == F(7, 10)

    def test_godel_negation(self):
        assert negation(LogicFamily.GODEL, F(0)) == F(1)
        assert negation(LogicFamily.GODEL, F(3, 10)) == F(0)

    @pytest.mark.parametrize("a,b,t,s,i", LUKASIEWICZ_TABLE)
    def test_lukasiewicz_table(self, a, b, t, s, i):
        assert tnorm(LogicFamily.LUKASIEWICZ, a, b) == t
        assert snorm(LogicFamily.LUKASIEWICZ, a, b) == s
        assert implication(LogicFamily.LUKASIEWICZ, a, b) == i

    @pytest.mark.parametrize("a,b,t,s,i", PRODUCT_TABLE)
    def test_product_table(self, a, b, t, s, i):
        assert tnorm(LogicFamily.PRODUCT, a, b) == t
        assert snorm(LogicFamily.PRODUCT, a, b) == s
        assert implication(LogicFamily.PRODUCT, a, b) == i

    @pytest.mark.parametrize("logic", ALL)
    def test_godel_style_implication_of_equal_args(self, logic):
        if logic in (LogicFamily.GODEL, LogicFamily.PRODUCT, LogicFamily.LUKASIEWICZ):
            assert implication(logic, F(2, 5), F(2, 5)) == F(1)


class TestNormLaws:
    @pytest.mark.parametrize("logic", ALL)
    def test_tnorm_unit_commutativity_monotonicity(self, logic):
        for a, b in product(GRID12, GRID12):
            assert tnorm(logic, a, F(1)) == a
            assert tnorm(logic, a, b) == tnorm(logic, b, a)
            assert F(0) <= tnorm(logic, a, b) <= F(1)
        for a, b, c in product(GRID12, GRID12, GRID12):
            if b <= c:
                assert tnorm(logic, a, b) <= tnorm(logic, a, c)

    @pytest.mark.parametrize("logic", ALL)
    def test_tnorm_associativity(self, logic):
        for a, b, c in product(GRID12, GRID12, GRID12):
            assert tnorm(logic, tnorm(logic, a, b), c) == tnorm(logic, a, tnorm(logic, b, c))

    @pytest.mark.parametrize("logic", ALL)
    def test_snorm_unit_commutativity_monotonicity(self, logic):
        for a, b in product(GRID12, GRID12):
            assert snorm(logic, a, F(0)) == a
            assert snorm(logic, a, b) == snorm(logic, b, a)
            assert F(0) <= snorm(logic, a, b) <= F(1)
        for a, b, c in product(GRID12, GRID12, GRID12):
            if b <= c:
                assert snorm(logic, a, b) <= snorm(logic, a, c)

    @pytest.mark.parametrize("logic", ALL)
    def test_snorm_associativity(self, logic):
        for a, b, c in product(GRID12, GRID12, GRID12):
            assert snorm(logic, snorm(logic, a, b), c) == snorm(logic, a, snorm(logic, b, c))


class TestResiduation:
    @pytest.mark.parametrize(
        "logic", [LogicFamily.GODEL, LogicFamily.PRODUCT, LogicFamily.LUKASIEWICZ])
    def test_residuation_holds(self, logic):
        # a (x) b <= c  iff  a <= (b |> c), exhaustively on the 1/12 grid
        for a, b, c in product(GRID12, GRID12, GRID12):
            assert (tnorm(logic, a, b) <= c) == (a <= implication(logic, b, c))

    def test_zadeh_implication_not_residuated(self):
        # guards against quietly swapping in the Godel residuum
        failures = [
            (a, b, c)
            for a, b, c in product(GRID12, GRID12, GRID12)
            if (tnorm(LogicFamily.ZADEH, a, b) <= c)
            != (a <= implication(LogicFamily.ZADEH, b, c))
        ]
        assert failures, "Zadeh material implication must not be the min residuum"


degrees = st.fractions(min_value=0, max_value=1, max_denominator=60)


@given(degrees, degrees, st.sampled_from(ALL))
def test_tnorm_below_min_snorm_above_max(a, b, logic):
    assert tnorm(logic, a, b) <= min(a, b)
    assert snorm(logic, a, b) >= max(a, b)


@given(degrees, st.sampled_from(ALL))
def test_negation_range_and_fixpoints(a, logic):
    n = negation(logic, a)
    assert F(0) <= n <= F(1)
    assert negation(logic, F(0)) == F(1)
    assert negation(logic, F(1)) == F(0)


class TestGridClosure:
    """Zadeh, Godel, and Lukasiewicz connectives keep grid values on
    the grid; product does not (evaluation stays exact regardless)."""

    @pytest.mark.parametrize(
        "logic", [LogicFamily.ZADEH, LogicFamily.GODEL, LogicFamily.LUKASIEWICZ])
    def test_closed_families_stay_on_the_grid(self, logic):
        q = 6
        grid = {F(i, q) for i in range(q + 1)}
        for a in grid:
            assert negation(logic, a) in grid
            for b in grid:
                assert tnorm(logic, a, b) in grid
                assert snorm(logic, a, b) in grid
                assert implication(logic, a, b) in grid

    def test_product_leaves_the_grid(self):
        grid = {F(0), F(1, 2), F(1)}
        assert tnorm(LogicFamily.PRODUCT, F(1, 2), F(1, 2)) not in grid
        assert snorm(LogicFamily.PRODUCT, F(1, 2), F(1, 2)) not in grid


class TestDegreeConversion:
    def test_exact_decimal(self):
        assert as_degree("0.8") == F(4, 5)
        assert as_degree("1/3") == F(1, 3)

    @pytest.mark.parametrize("bad", ["1.2", "-0.1", "7/6"])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError):
            as_degree(bad)

    def test_logic_from_name(self):
        assert logic_from_name("GODEL") is LogicFamily.GODEL
        with pytest.raises(ValueError):
            logic_from_name("boolean")


# numerators as the kernel holds them: ints on the grid, Fractions off it,
# equal values of either type tying
NUMERATOR = st.one_of(st.integers(0, 4), st.fractions(0, 4, max_denominator=3))


@given(pairs=st.lists(st.tuples(NUMERATOR, NUMERATOR), max_size=12))
def test_pointwise_min_and_max_pick_what_the_builtins_pick(pairs):
    # the same object, so ties between an int and an equal Fraction
    # resolve the way ``min`` and ``max`` resolve them
    xs, ys = [a for a, _ in pairs], [b for _, b in pairs]
    for pointwise, builtin in ((pointwise_min, min), (pointwise_max, max)):
        picked = pointwise(xs, ys)
        assert len(picked) == len(pairs)
        assert all(p is b for p, b in zip(picked, map(builtin, xs, ys)))
