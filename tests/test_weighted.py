"""Element weights, faithfulness, coherence, fm-modelhood, and the
level check that decides faithfulness and coherence, against the
pairwise definitions in ``oracle.py``.

The bird/penguin fixture pins the worked numbers: Reddy weighs 120 as a
bird and 30 as a penguin, Opus 100 and 120, and bumping Reddy's penguin
degree above Opus's breaks faithfulness on exactly one pair.
"""

import dataclasses
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fuzzytyp.algebra import LogicFamily
from fuzzytyp.engine import (
    EnumSignature,
    SearchConfig,
    check_entailment_bounded,
    random_interpretation,
)
from fuzzytyp.interpretation import FuzzyInterpretation
from fuzzytyp.mlp import (
    Activation,
    FeedForwardNet,
    StimulusSet,
    Synapse,
    Unit,
    build_interpretation,
    mlp_to_kb,
    unit_name,
)
from fuzzytyp.parser import parse_interpretation, parse_kb
from fuzzytyp.syntax import (
    And,
    Atomic,
    Cmp,
    Inclusion,
    Not,
    Or,
    TOP,
    WeightedKB,
    WeightedTypicalityInclusion,
)
from fuzzytyp.weighted import (
    NEG_INF,
    follows_preference,
    is_coherent,
    is_faithful,
    is_fm_model,
    weight,
    weight_table,
)
from oracle import ref_follows_preference, ref_preference_violations

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def penguin():
    return parse_kb((DATA / "penguin.fkb").read_text())


@pytest.fixture(scope="module")
def birds(penguin):
    return parse_interpretation((DATA / "penguin.fint").read_text(),
                                penguin.logic, penguin)


def with_penguin_degree(penguin, birds, reddy_degree: F) -> FuzzyInterpretation:
    val = dict(birds.concept_val)
    val[("Penguin", "reddy")] = reddy_degree
    return FuzzyInterpretation(
        logic=birds.logic, domain=birds.domain,
        concept_names=birds.concept_names, role_names=birds.role_names,
        concept_val=val, role_val=dict(birds.role_val))


class TestWeights:
    def test_worked_bird_weights(self, penguin, birds):
        assert weight(birds, penguin, "Bird", "reddy") == F(120)
        assert weight(birds, penguin, "Bird", "opus") == F(100)

    def test_worked_penguin_weights(self, penguin, birds):
        assert weight(birds, penguin, "Penguin", "reddy") == F(30)
        assert weight(birds, penguin, "Penguin", "opus") == F(120)

    def test_nonmember_weight_is_bottom(self, penguin, birds):
        # neither element is a canary at all
        assert weight(birds, penguin, "Canary", "reddy") == NEG_INF
        assert weight(birds, penguin, "Canary", "opus") == NEG_INF

    def test_non_distinguished_concept_rejected(self, penguin, birds):
        with pytest.raises(ValueError):
            weight(birds, penguin, "Fly", "reddy")

    def test_empty_table_with_positive_membership_weighs_zero(self):
        kb = WeightedKB(logic=LogicFamily.GODEL, concepts=("A",),
                        distinguished=("A",))
        interp = FuzzyInterpretation(
            logic=kb.logic, domain=("x",), concept_names=("A",),
            concept_val={("A", "x"): F(1, 3)})
        assert weight(interp, kb, "A", "x") == F(0)

    def test_duplicate_inclusions_sum_independently(self):
        kb = WeightedKB(
            logic=LogicFamily.GODEL, concepts=("A", "B"), distinguished=("A",),
            wtbox={"A": (WeightedTypicalityInclusion("A", Atomic("B"), F(3)),
                         WeightedTypicalityInclusion("A", Atomic("B"), F(4)))})
        interp = FuzzyInterpretation(
            logic=kb.logic, domain=("x",), concept_names=("A", "B"),
            concept_val={("A", "x"): F(1), ("B", "x"): F(1, 2)})
        assert weight(interp, kb, "A", "x") == F(7, 2)

    def test_extended_weight_order(self):
        assert NEG_INF < F(-1000)
        assert not NEG_INF > NEG_INF
        assert F(0) > NEG_INF


class TestFaithfulness:
    def test_fixture_is_faithful(self, penguin, birds):
        ok, violations = is_faithful(birds, penguin)
        assert ok and violations == []

    def test_raising_reddys_penguin_degree_breaks_it(self, penguin, birds):
        variant = with_penguin_degree(penguin, birds, F(9, 10))
        ok, violations = is_faithful(variant, penguin)
        assert not ok
        assert [(v.concept, v.x, v.y) for v in violations] == [("Penguin", "reddy", "opus")]
        v = violations[0]
        assert (v.degree_x, v.degree_y) == (F(9, 10), F(8, 10))
        assert (v.weight_x, v.weight_y) == (F(30), F(120))

    def test_constant_distinguished_valuations_are_faithful(self, penguin):
        text = "domain x y\nconcept Bird x 1/2\nconcept Bird y 1/2\n"
        interp = parse_interpretation(text, penguin.logic, penguin)
        ok, _ = is_faithful(interp, penguin)
        assert ok

    def test_faithfulness_invariant_under_positive_rescaling(self, penguin, birds):
        for factor in (F(1, 7), F(3), F(100)):
            scaled = {
                name: tuple(WeightedTypicalityInclusion(i.subject, i.consequent,
                                                        i.weight * factor)
                            for i in incls) if name == "Penguin" else incls
                for name, incls in penguin.wtbox.items()}
            kb2 = WeightedKB(logic=penguin.logic, concepts=penguin.concepts,
                             roles=penguin.roles, individuals=penguin.individuals,
                             distinguished=penguin.distinguished, tbox=penguin.tbox,
                             abox=penguin.abox, wtbox=scaled)
            assert is_faithful(birds, kb2)[0] == is_faithful(birds, penguin)[0]
            variant = with_penguin_degree(penguin, birds, F(9, 10))
            assert is_faithful(variant, kb2)[0] == is_faithful(variant, penguin)[0]


class TestCoherence:
    def test_single_element_domain_is_coherent(self, penguin):
        interp = parse_interpretation("domain x\nconcept Bird x 1\n",
                                      penguin.logic, penguin)
        ok, _ = is_coherent(interp, penguin)
        assert ok

    def test_faithful_but_not_coherent_witness(self):
        # two equally-typical members with different weights: no strict
        # preference anywhere, so faithfulness is vacuous, but the
        # weight order is strict
        kb = WeightedKB(
            logic=LogicFamily.GODEL, concepts=("A", "B"), distinguished=("A",),
            wtbox={"A": (WeightedTypicalityInclusion("A", Atomic("B"), F(1)),)})
        interp = FuzzyInterpretation(
            logic=kb.logic, domain=("x", "y"), concept_names=("A", "B"),
            concept_val={("A", "x"): F(1), ("A", "y"): F(1), ("B", "x"): F(1)})
        assert is_faithful(interp, kb)[0]
        ok, violations = is_coherent(interp, kb)
        assert not ok
        assert violations[0].kind == "coherence"
        assert (violations[0].x, violations[0].y) == ("x", "y")

    def test_coherent_implies_faithful_randomized(self):
        rng = random.Random(4242)
        sig = EnumSignature(concepts=("A", "B", "C"))
        coherent_seen = 0
        for _ in range(2000):
            logic = rng.choice(list(LogicFamily))
            interp = random_interpretation(rng, sig, logic, rng.randint(1, 3), 3)
            kb = WeightedKB(
                logic=logic, concepts=("A", "B", "C"), distinguished=("A", "B"),
                wtbox={
                    "A": (WeightedTypicalityInclusion("A", Atomic("C"),
                                                      F(rng.randint(-5, 5))),),
                    "B": (WeightedTypicalityInclusion("B", Atomic("C"),
                                                      F(rng.randint(-5, 5))),
                          WeightedTypicalityInclusion("B", Atomic("A"),
                                                      F(rng.randint(-5, 5))),),
                })
            if is_coherent(interp, kb)[0]:
                coherent_seen += 1
                assert is_faithful(interp, kb)[0]
        assert coherent_seen > 50  # the implication was actually exercised


class TestFmModel:
    def test_fixture_is_fm_model(self, penguin, birds):
        report = is_fm_model(birds, penguin)
        assert report.is_fm_model and report.strict_ok and report.faithful

    def test_unfaithful_variant_is_diagnosed(self, penguin, birds):
        variant = with_penguin_degree(penguin, birds, F(9, 10))
        report = is_fm_model(variant, penguin)
        assert not report.is_fm_model
        assert report.strict_ok
        assert not report.faithful
        assert report.faithfulness_violations[0].concept == "Penguin"

    def test_vacuous_kb_accepts_everything(self):
        kb = WeightedKB(logic=LogicFamily.ZADEH, concepts=("A",),
                        distinguished=("A",))
        rng = random.Random(5)
        sig = EnumSignature(concepts=("A",))
        for _ in range(50):
            interp = random_interpretation(rng, sig, kb.logic, rng.randint(1, 3), 4)
            assert is_fm_model(interp, kb).is_fm_model


class TestWeightMonotonicity:
    def test_positive_weight_consequent_monotone(self, penguin):
        # W[Penguin] is monotone in the Bird degree (weight +100 > 0)
        grid = [F(i, 10) for i in range(11)]
        for fly in (F(0), F(1, 2), F(1)):
            for black in (F(0), F(7, 10)):
                previous = None
                for bird in grid:
                    interp = FuzzyInterpretation(
                        logic=penguin.logic, domain=("x", "y"),
                        concept_names=penguin.concepts,
                        role_names=penguin.roles,
                        concept_val={("Penguin", "x"): F(1, 2),
                                     ("Bird", "x"): bird,
                                     ("Fly", "x"): fly,
                                     ("Black", "x"): black})
                    w = weight(interp, penguin, "Penguin", "x")
                    if previous is not None:
                        assert w >= previous
                    previous = w

    def test_weight_table_covers_all_pairs(self, penguin, birds):
        table = weight_table(birds, penguin)
        assert set(table) == {(c, e) for c in penguin.distinguished
                              for e in birds.domain}

    def test_one_interpretation_weighs_each_kb_by_its_own_table(self, penguin, birds):
        # an interpretation computes each weight table once, for the
        # table's inclusions, not for the concept's name alone
        doubled = {name: tuple(WeightedTypicalityInclusion(i.subject, i.consequent, 2 * i.weight)
                               for i in incls) for name, incls in penguin.wtbox.items()}
        kb2 = dataclasses.replace(penguin, wtbox=doubled)
        first = weight_table(birds, penguin)
        assert weight_table(birds, kb2) == {key: 2 * w for key, w in first.items()}
        assert weight_table(birds, penguin) == first


# numerators over any common denominator: ints on the grid, Fractions
# off it (product logic); weights may be NEG_INF, ints or Fractions
NUMERATORS = st.one_of(st.integers(0, 4), st.fractions(0, 4, max_denominator=3))
WEIGHTS = st.one_of(st.just(NEG_INF), st.integers(-3, 3),
                    st.fractions(-3, 3, max_denominator=3))


class TestLevelCheck:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(NUMERATORS, WEIGHTS), max_size=8),
           st.booleans(), st.booleans())
    def test_equals_the_pairwise_definitions(self, cells, members_only, coherent):
        # members_only gives NEG_INF to exactly the degree-0 elements, as
        # the weights of an interpretation do; otherwise any mix is drawn
        degrees = [d for d, _ in cells]
        weights = [NEG_INF if d == 0 else w for d, w in cells] if members_only else [
            w for _, w in cells]
        assert (follows_preference(degrees, weights, coherent)
                == ref_follows_preference(degrees, weights, coherent))

    def test_ties_and_levels(self):
        # one level of two equal weights under a heavier level
        assert follows_preference([1, 1, 2], [5, 5, 6], coherent=True)
        # a tie in degree with distinct weights is faithful, not coherent
        assert follows_preference([1, 1, 2], [4, 5, 6])
        assert not follows_preference([1, 1, 2], [4, 5, 6], coherent=True)
        # a higher level must clear the heaviest weight below, not the lightest
        assert not follows_preference([1, 1, 2], [4, 6, 5])
        assert follows_preference([0, 0, 1], [NEG_INF, NEG_INF, -7], coherent=True)
        assert follows_preference([], [], coherent=True)


def _random_weighted_kb(rng: random.Random, logic: LogicFamily) -> WeightedKB:
    def w() -> F:
        return F(rng.randint(-6, 6), rng.randint(1, 3))
    return WeightedKB(
        logic=logic, concepts=("A", "B", "C"), distinguished=("A", "B"),
        wtbox={
            "A": (WeightedTypicalityInclusion("A", Atomic("C"), w()),
                  WeightedTypicalityInclusion("A", Or(Atomic("B"), Not(Atomic("C"))), w())),
            "B": (WeightedTypicalityInclusion("B", And(Atomic("A"), Atomic("C")), w()),
                  WeightedTypicalityInclusion("B", Atomic("A"), w())),
        })


def _as_tuples(violations) -> list[tuple]:
    return [(v.kind, v.concept, v.x, v.y, v.degree_x, v.degree_y, v.weight_x, v.weight_y)
            for v in violations]


class TestViolationListsAgainstOracle:
    """``is_faithful`` and ``is_coherent`` report exactly the pairs, in
    exactly the order, of a brute-force scan over all ordered pairs."""

    def test_random_interpretations(self):
        rng = random.Random(5150)
        sig = EnumSignature(concepts=("A", "B", "C"))
        seen = {"faithfulness": 0, "coherence": 0}
        for _ in range(600):
            logic = rng.choice(list(LogicFamily))
            interp = random_interpretation(rng, sig, logic, rng.randint(1, 4),
                                           rng.choice((2, 3, 6)))
            kb = _random_weighted_kb(rng, logic)
            ok, faithful = is_faithful(interp, kb)
            assert _as_tuples(faithful) == ref_preference_violations(interp, kb)
            assert ok == (not faithful)
            ok, coherent = is_coherent(interp, kb)
            assert _as_tuples(coherent) == ref_preference_violations(interp, kb, True)
            assert ok == (not coherent)
            for v in coherent:
                seen[v.kind] += 1
        assert min(seen.values()) > 50  # both kinds were actually compared

    @pytest.mark.parametrize("activation", list(Activation))
    def test_mlp_nets(self, activation):
        rng = random.Random(f"mlp/{activation.value}")
        seen = 0
        for _ in range(10):
            sizes = [2, 3, 2]
            units = [Unit(unit_name(layer, i), layer, None if layer == 0 else activation)
                     for layer, size in enumerate(sizes) for i in range(size)]
            synapses = [Synapse(unit_name(layer - 1, i), unit_name(layer, j),
                                F(rng.randint(-10, 10), rng.randint(1, 5)))
                        for layer in (1, 2) for i in range(sizes[layer - 1])
                        for j in range(sizes[layer])]
            net = FeedForwardNet(tuple(units), tuple(synapses))
            stimuli = StimulusSet(
                tuple(f"s{k}" for k in range(12)),
                tuple((F(rng.randint(0, 8), 8), F(rng.randint(0, 8), 8)) for _ in range(12)))
            kb = mlp_to_kb(net)
            interp = build_interpretation(net, stimuli)
            assert _as_tuples(is_faithful(interp, kb)[1]) == ref_preference_violations(interp, kb)
            coherent = is_coherent(interp, kb)[1]
            assert _as_tuples(coherent) == ref_preference_violations(interp, kb, True)
            seen += len(coherent)
        assert seen > 0  # clipped activations tie, so coherence fails somewhere


def test_empty_weighted_table_is_skipped():
    # a distinguished concept with no weighted inclusions constrains
    # nothing: its members would all weigh 0, so any strict preference
    # among them could never be matched.  Both the fm scan and the
    # faithfulness/coherence checks skip it, so every interpretation is
    # an fm-model of a KB that has nothing else.
    kb = WeightedKB(logic=LogicFamily.GODEL, concepts=("A",), distinguished=("A",))
    interp = FuzzyInterpretation(
        logic=kb.logic, domain=("x", "y"), concept_names=("A",),
        concept_val={("A", "x"): F(1), ("A", "y"): F(1, 2)})
    assert weight(interp, kb, "A", "x") == weight(interp, kb, "A", "y") == F(0)
    assert is_faithful(interp, kb) == (True, [])
    assert is_coherent(interp, kb) == (True, [])
    goal = Inclusion(Atomic("A"), TOP, Cmp.GE, F(1))
    for mode in ("plain", "fm"):
        verdict = check_entailment_bounded(kb, goal, SearchConfig(
            logic=kb.logic, max_domain_size=3, denominator=2, mode=mode))
        assert verdict.stats.examined == verdict.stats.models_found == 3 + 9 + 27
