"""Concept evaluation, induced preferences, typicality, satisfaction.

Randomized checks compare the evaluator with the independent oracle in
``oracle.py``.
"""

import copy
import dataclasses
import pickle
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fuzzytyp.algebra import CONNECTIVES, LogicFamily
from fuzzytyp.engine import EnumSignature, random_interpretation
from fuzzytyp.interpretation import (
    FuzzyInterpretation,
    Program,
    axiom_degree,
    axiom_value,
    eval_concept,
    is_model_strict,
    run,
    satisfies,
    typical_elements,
)
from fuzzytyp.parser import parse_interpretation, parse_kb
from fuzzytyp.weighted import weight
from fuzzytyp.syntax import (
    And,
    Atomic,
    Bottom,
    Cmp,
    Concept,
    ConceptAssertion,
    Exists,
    Forall,
    Inclusion,
    Not,
    Or,
    RoleAssertion,
    Top,
    Typ,
    UndeclaredNameError,
    WeightedKB,
    WeightedTypicalityInclusion,
)
from oracle import (
    is_irreflexive,
    is_modular,
    is_transitive,
    is_well_founded,
    preference_pairs,
    ref_axiom_degree,
    ref_eval,
    ref_weight,
)

DATA = Path(__file__).parent / "data"


def interp_over(logic, valuation: dict[str, dict[str, F]],
                roles: dict[tuple[str, str, str], F] | None = None,
                individuals: dict[str, str] | None = None) -> FuzzyInterpretation:
    domain = tuple(sorted({e for per in valuation.values() for e in per}))
    concept_val = {(name, e): d for name, per in valuation.items()
                   for e, d in per.items()}
    role_names = tuple(sorted({r for (r, _, _) in (roles or {})}))
    return FuzzyInterpretation(
        logic=logic, domain=domain,
        concept_names=tuple(sorted(valuation)), role_names=role_names,
        concept_val=concept_val, role_val=dict(roles or {}),
        individuals=dict(individuals or {}))


C = Atomic("C")
D = Atomic("D")


class TestEvalExamples:
    def test_typicality_picks_the_positive_maximum(self):
        interp = interp_over(LogicFamily.GODEL,
                             {"C": {"a": F(1, 2), "b": F(9, 10), "c": F(0)}})
        assert eval_concept(interp, Typ(C), "b") == F(1)
        assert eval_concept(interp, Typ(C), "a") == F(0)
        assert eval_concept(interp, Typ(C), "c") == F(0)

    @pytest.mark.parametrize("logic", list(LogicFamily))
    def test_top_and_bottom(self, logic):
        interp = interp_over(logic, {"C": {"x": F(1, 3)}})
        assert eval_concept(interp, Top(), "x") == F(1)
        assert eval_concept(interp, Bottom(), "x") == F(0)

    def test_zadeh_conjunction_is_min(self):
        interp = interp_over(LogicFamily.ZADEH,
                             {"C": {"x": F(4, 10)}, "D": {"x": F(7, 10)}})
        assert eval_concept(interp, And(C, D), "x") == F(4, 10)

    def test_undeclared_name_raises(self):
        interp = interp_over(LogicFamily.GODEL, {"C": {"x": F(1)}})
        with pytest.raises(UndeclaredNameError):
            eval_concept(interp, Atomic("Nope"), "x")


class TestInducedPreference:
    def test_exact_pairs(self):
        interp = interp_over(LogicFamily.GODEL,
                             {"C": {"a": F(1, 2), "b": F(9, 10), "c": F(0)}})
        assert preference_pairs(interp, C) == {("b", "a"), ("a", "c"), ("b", "c")}

    def test_constant_valuation_gives_empty_order(self):
        interp = interp_over(LogicFamily.GODEL, {"C": {"a": F(1, 2), "b": F(1, 2)}})
        assert preference_pairs(interp, C) == frozenset()

    def test_reddy_preferred_to_opus_as_bird(self):
        kb = parse_kb((DATA / "penguin.fkb").read_text())
        interp = parse_interpretation((DATA / "penguin.fint").read_text(),
                                      kb.logic, kb)
        pairs = preference_pairs(interp, Atomic("Bird"))
        assert ("reddy", "opus") in pairs
        assert ("opus", "reddy") not in pairs


class TestTypicalElements:
    def test_nonempty_when_positive_somewhere(self):
        interp = interp_over(LogicFamily.GODEL, {"C": {"a": F(1, 4), "b": F(0)}})
        assert typical_elements(interp, C) == {"a"}

    def test_empty_when_zero_everywhere(self):
        interp = interp_over(LogicFamily.GODEL, {"C": {"a": F(0), "b": F(0)}})
        assert typical_elements(interp, C) == set()

    def test_ties_share_typicality(self):
        interp = interp_over(LogicFamily.GODEL,
                             {"C": {"a": F(9, 10), "b": F(9, 10), "c": F(1, 10)}})
        assert typical_elements(interp, C) == {"a", "b"}


class TestAxiomDegrees:
    def test_godel_pointwise_inclusion_has_degree_one(self):
        interp = interp_over(LogicFamily.GODEL,
                             {"C": {"x": F(1, 3), "y": F(0)},
                              "D": {"x": F(1, 2), "y": F(1, 4)}})
        ax = Inclusion(C, D, Cmp.GE, F(1))
        assert axiom_degree(interp, ax) == F(1)

    def test_zadeh_inclusion_degree(self):
        interp = interp_over(LogicFamily.ZADEH,
                             {"C": {"a": F(4, 10)}, "D": {"a": F(2, 10)}})
        assert axiom_degree(interp, Inclusion(C, D, Cmp.GE, F(1))) == F(6, 10)

    @pytest.mark.parametrize("logic", list(LogicFamily))
    def test_typical_inclusion_with_crisp_consequent(self, logic):
        interp = interp_over(logic, {"C": {"a": F(1, 2), "b": F(1, 4)},
                                     "D": {"a": F(1), "b": F(0)}})
        # the only typical C element is a, and D(a) = 1: degree 1 everywhere
        assert axiom_degree(interp, Inclusion(Typ(C), D, Cmp.GE, F(1))) == F(1)

    def test_assertions(self):
        interp = interp_over(LogicFamily.GODEL, {"C": {"e": F(1)}},
                             roles={("r", "e", "e"): F(1, 2)},
                             individuals={"tom": "e"})
        assert axiom_degree(interp, ConceptAssertion(C, "tom", Cmp.GE, F(1))) == F(1)
        assert axiom_degree(interp, RoleAssertion("r", "tom", "tom", Cmp.GT, F(0))) == F(1, 2)

    def test_unbound_individual(self):
        interp = interp_over(LogicFamily.GODEL, {"C": {"e": F(1)}})
        with pytest.raises(UndeclaredNameError):
            axiom_degree(interp, ConceptAssertion(C, "tom", Cmp.GE, F(1)))


class TestSatisfies:
    def test_comparator_boundary(self):
        interp = interp_over(LogicFamily.ZADEH,
                             {"C": {"a": F(4, 10)}, "D": {"a": F(2, 10)}})
        # degree is exactly 0.6
        assert satisfies(interp, Inclusion(C, D, Cmp.GE, F(6, 10)))
        assert not satisfies(interp, Inclusion(C, D, Cmp.GT, F(6, 10)))

    def test_disjointness_footnote_behaviour(self):
        # Yellow and Black both fully 0 anywhere makes the Godel
        # disjointness axiom hold at degree 1
        interp = interp_over(LogicFamily.GODEL,
                             {"Yellow": {"x": F(0)}, "Black": {"x": F(0)}})
        ax = Inclusion(And(Atomic("Yellow"), Atomic("Black")), Bottom(), Cmp.GE, F(1))
        assert satisfies(interp, ax)


class TestStrictModel:
    def test_penguin_fixture_is_strict_model(self):
        kb = parse_kb((DATA / "penguin.fkb").read_text())
        interp = parse_interpretation((DATA / "penguin.fint").read_text(),
                                      kb.logic, kb)
        ok, violations = is_model_strict(interp, kb)
        assert ok and violations == []

    def test_overlapping_colors_break_disjointness(self):
        kb = parse_kb((DATA / "penguin.fkb").read_text())
        text = "domain x\nconcept Yellow x 1\nconcept Black x 1\n"
        interp = parse_interpretation(text, kb.logic, kb)
        ok, violations = is_model_strict(interp, kb)
        assert not ok
        assert len(violations) == 1
        assert violations[0].degree == F(0)
        assert "Yellow" in str(violations[0].axiom)

    def test_empty_kb_always_satisfied(self):
        kb = WeightedKB(logic=LogicFamily.GODEL, concepts=("C",))
        interp = interp_over(LogicFamily.GODEL, {"C": {"x": F(1, 2)}})
        assert is_model_strict(interp, kb) == (True, [])


# ---------------------------------------------------------------------------
# Randomized invariants, checked against the reference evaluator
# ---------------------------------------------------------------------------

SIG = EnumSignature(concepts=("P", "Q", "R"), roles=("r",))


def random_concept(rng: random.Random, depth: int, allow_typ: bool) -> Concept:
    if depth == 0 or rng.random() < 0.4:
        return rng.choice([Atomic("P"), Atomic("Q"), Atomic("R"), Top(), Bottom()])
    choices = ["not", "and", "or", "some", "all"] + (["typ"] if allow_typ else [])
    op = rng.choice(choices)
    if op == "typ":
        return Typ(random_concept(rng, depth - 1, False))
    if op == "not":
        return Not(random_concept(rng, depth - 1, allow_typ))
    if op == "and":
        return And(random_concept(rng, depth - 1, allow_typ),
                   random_concept(rng, depth - 1, allow_typ))
    if op == "or":
        return Or(random_concept(rng, depth - 1, allow_typ),
                  random_concept(rng, depth - 1, allow_typ))
    filler = random_concept(rng, depth - 1, allow_typ)
    return Exists("r", filler) if op == "some" else Forall("r", filler)


def test_eval_matches_reference_on_random_instances():
    rng = random.Random(20240)
    for _ in range(400):
        logic = rng.choice(list(LogicFamily))
        interp = random_interpretation(rng, SIG, logic, rng.randint(1, 4), 4)
        concept = random_concept(rng, 3, allow_typ=True)
        for x in interp.domain:
            assert eval_concept(interp, concept, x) == ref_eval(interp, concept, x)


def test_typicality_invariants_on_random_interpretations():
    rng = random.Random(99)
    for _ in range(500):
        logic = rng.choice(list(LogicFamily))
        interp = random_interpretation(rng, SIG, logic, rng.randint(1, 5), 5)
        concept = random_concept(rng, 2, allow_typ=False)
        values = [eval_concept(interp, concept, x) for x in interp.domain]
        typical = typical_elements(interp, concept)
        # non-emptiness exactly when positive somewhere
        assert (any(v > 0 for v in values)) == bool(typical)
        # two-valuedness of the typicality concept
        for x in interp.domain:
            assert eval_concept(interp, Typ(concept), x) in (F(0), F(1))
        # preference structure
        pairs = preference_pairs(interp, concept)
        assert is_irreflexive(pairs, interp.domain)
        assert is_transitive(pairs)
        assert is_modular(pairs, interp.domain)
        assert is_well_founded(pairs, interp.domain)


def test_typicality_is_valuation_determined():
    rng = random.Random(7)
    for _ in range(200):
        logic = rng.choice(list(LogicFamily))
        interp = random_interpretation(rng, SIG, logic, rng.randint(1, 4), 4)
        # P and Q get identical valuations; their typicality must agree
        merged = dict(interp.concept_val)
        for x in interp.domain:
            v = merged.get(("P", x))
            if v is None:
                merged.pop(("Q", x), None)
            else:
                merged[("Q", x)] = v
        twin = FuzzyInterpretation(
            logic=interp.logic, domain=interp.domain,
            concept_names=interp.concept_names, role_names=interp.role_names,
            concept_val=merged, role_val=dict(interp.role_val))
        for x in twin.domain:
            assert (eval_concept(twin, Typ(Atomic("P")), x)
                    == eval_concept(twin, Typ(Atomic("Q")), x))


def random_grid_interpretation(rng: random.Random, logic, n: int, q: int
                               ) -> FuzzyInterpretation:
    dom = tuple(f"e{i}" for i in range(n))
    return FuzzyInterpretation(
        logic=logic, domain=dom, concept_names=SIG.concepts, role_names=SIG.roles,
        concept_val={(c, x): F(rng.randint(0, q), q) for c in SIG.concepts for x in dom},
        role_val={(r, a, b): F(rng.randint(0, q), q)
                  for r in SIG.roles for a in dom for b in dom},
        individuals={"i": rng.choice(dom), "j": rng.choice(dom)})


@pytest.mark.parametrize("q", [2, 3, 6])
@pytest.mark.parametrize("logic", list(LogicFamily))
def test_kernel_matches_oracle(logic, q):
    """Degrees, axiom degrees and weights agree with the oracle; each
    interpretation answers several queries, so shared subconcepts are
    served from its cache."""
    rng = random.Random(f"{logic}/{q}")
    for _ in range(60):
        interp = random_grid_interpretation(rng, logic, rng.randint(1, 4), q)
        c1, c2, c3 = (random_concept(rng, 3, allow_typ=True) for _ in range(3))
        for concept in (c1, c2, And(c1, c2), Typ(random_concept(rng, 2, allow_typ=False))):
            for x in interp.domain:
                assert eval_concept(interp, concept, x) == ref_eval(interp, concept, x)
        axioms = [Inclusion(c1, c3, Cmp.GE, F(1)), Inclusion(c3, Or(c1, c2), Cmp.GT, F(0)),
                  ConceptAssertion(c2, "i", Cmp.GE, F(1, 2)),
                  RoleAssertion("r", "i", "j", Cmp.LE, F(1))]
        for ax in axioms:
            assert axiom_degree(interp, ax) == ref_axiom_degree(interp, ax)
        table = tuple(WeightedTypicalityInclusion(
            "P", random_concept(rng, 2, allow_typ=False),
            F(rng.randint(-9, 9), rng.randint(1, 4))) for _ in range(rng.randint(0, 3)))
        kb = WeightedKB(logic=logic, concepts=SIG.concepts, roles=SIG.roles,
                        distinguished=("P",), wtbox={"P": table})
        for x in interp.domain:
            assert weight(interp, kb, "P", x) == ref_weight(interp, kb, "P", x)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32), logic=st.sampled_from(list(LogicFamily)),
       n=st.integers(1, 3), q=st.sampled_from([1, 2, 3, 6]), lanes=st.integers(2, 12))
def test_lanes_evaluate_like_one_lane_runs(seed, logic, n, q, lanes):
    """``run`` over L lanes (lane l's element x at l*n + x, the roles
    shared) gives every node, and ``axiom_value`` every axiom, exactly
    the values (types included) of L one-lane runs: quantifiers over a
    role, T(...) with degree ties, and product's Fraction numerators."""
    rng = random.Random(seed)
    program = Program(SIG.concepts, SIG.roles)
    c1, c2, c3 = (random_concept(rng, 3, allow_typ=True) for _ in range(3))
    codes = [program.add_axiom(ax) for ax in (
        Inclusion(c1, c2, Cmp.GE, F(1)), Inclusion(Typ(random_concept(rng, 2, False)), c3,
                                                   Cmp.GT, F(0)),
        ConceptAssertion(c3, "i", Cmp.GE, F(1, 2)), RoleAssertion("r", "i", "j", Cmp.LE, F(1)))]
    # digits from a two-value palette per lane, so degrees tie often
    per_lane = []
    for _ in range(lanes):
        palette = [rng.randint(0, q), rng.randint(0, q)]
        per_lane.append([[rng.choice(palette) for _ in range(n)] for _ in SIG.concepts])
    roles = [[[rng.randint(0, q) for _ in range(n)] for _ in range(n)] for _ in SIG.roles]
    element = {"i": rng.randrange(n), "j": rng.randrange(n)}
    ops = CONNECTIVES[logic]
    atoms = [[digit for lane in per_lane for digit in lane[slot]]
             for slot in range(len(SIG.concepts))]
    vals: list[list] = []
    run(program.nodes, len(program.nodes), vals, ops, q, n, atoms, roles, lanes)
    degrees = [axiom_value(code, vals, ops, q, roles, element, n, lanes) for code in codes]
    for lane, lane_atoms in enumerate(per_lane):
        single: list[list] = []
        run(program.nodes, len(program.nodes), single, ops, q, n, lane_atoms, roles)
        assert repr([v[lane * n:lane * n + n] for v in vals]) == repr(single)
        assert repr([d[lane] for d in degrees]) == repr(
            [axiom_value(code, single, ops, q, roles, element, n)[0] for code in codes])


class TestImmutability:
    def test_valuations_are_read_only(self):
        interp = interp_over(LogicFamily.GODEL, {"A": {"e0": F(1, 2)}},
                             roles={("r", "e0", "e0"): F(1)}, individuals={"a": "e0"})
        assert eval_concept(interp, Atomic("A"), "e0") == F(1, 2)
        with pytest.raises(TypeError):
            interp.concept_val[("A", "e0")] = F(1)
        with pytest.raises(TypeError):
            interp.role_val[("r", "e0", "e0")] = F(0)
        with pytest.raises(TypeError):
            interp.individuals["a"] = "e1"
        with pytest.raises(dataclasses.FrozenInstanceError):
            interp.concept_val = {("A", "e0"): F(1)}
        assert eval_concept(interp, Atomic("A"), "e0") == F(1, 2)

    def test_constructor_copies_its_mappings(self):
        val = {("A", "e0"): F(1, 2)}
        interp = FuzzyInterpretation(logic=LogicFamily.GODEL, domain=("e0",),
                                     concept_names=("A",), concept_val=val)
        assert eval_concept(interp, Atomic("A"), "e0") == F(1, 2)
        val[("A", "e0")] = F(1)
        assert interp.concept_val == {("A", "e0"): F(1, 2)}
        assert eval_concept(interp, Atomic("A"), "e0") == F(1, 2)

    def test_pickle_and_deepcopy_round_trip(self):
        interp = interp_over(LogicFamily.GODEL, {"A": {"e0": F(1, 2)}},
                             roles={("r", "e0", "e0"): F(1)}, individuals={"a": "e0"})
        eval_concept(interp, Atomic("A"), "e0")
        for twin in (pickle.loads(pickle.dumps(interp)), copy.deepcopy(interp)):
            assert twin == interp
            assert eval_concept(twin, Exists("r", Atomic("A")), "e0") == F(1, 2)
