"""Enumeration counting, determinism, refutation soundness, budgets,
and worker-pool equivalence."""

import dataclasses
import random
from dataclasses import fields
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fuzzytyp.algebra import LogicFamily
from fuzzytyp.engine import (
    EnumSignature,
    NoCountermodel,
    MAX_LANES,
    Question,
    Refuted,
    SearchConfig,
    check_entailment_bounded,
    check_validity_bounded,
    count_interpretations,
    enumerate_interpretations,
    interpretation_at,
    scan_block,
    signature_for,
    signature_of_axiom,
    threshold_numerator,
    _decode,
    _odometer,
)
from fuzzytyp.interpretation import is_model_strict, satisfies
from fuzzytyp.parser import parse_axiom, parse_kb, serialize_interpretation
from fuzzytyp.syntax import (
    And,
    Atomic,
    BOTTOM,
    Cmp,
    ConceptAssertion,
    Exists,
    Forall,
    Inclusion,
    Not,
    Or,
    RoleAssertion,
    TOP,
    Typ,
    WeightedKB,
    WeightedTypicalityInclusion,
)
from fuzzytyp.weighted import is_fm_model
from oracle import ref_axiom_degree, ref_interpretations, ref_is_model, ref_scan

DATA = Path(__file__).parent / "data"
GODEL = LogicFamily.GODEL

A, B, C = Atomic("A"), Atomic("B"), Atomic("C")


def empty_kb(*names: str, logic=GODEL) -> WeightedKB:
    return WeightedKB(logic=logic, concepts=names or ("C",))


class TestCounting:
    # hand-countable closed forms: (q+1)^(concepts*n + roles*n^2) * n^inds
    CASES = [
        (EnumSignature(("C",)), 1, 1, 2),
        (EnumSignature(("C",)), 1, 2, 3),
        (EnumSignature(("A", "B")), 2, 2, 81),
        (EnumSignature(("A",), roles=("r",)), 2, 1, 2 ** 6),
        (EnumSignature(("A",), individuals=("t",)), 2, 1, 4 * 2),
        (EnumSignature((), roles=("r",)), 1, 3, 4),
    ]

    @pytest.mark.parametrize("sig,n,q,expected", CASES)
    def test_closed_form(self, sig, n, q, expected):
        assert count_interpretations(sig, n, q) == expected

    @pytest.mark.parametrize("sig,n,q,expected", CASES)
    def test_stream_matches_closed_form(self, sig, n, q, expected):
        config = SearchConfig(logic=GODEL, max_domain_size=n, denominator=q)
        stream = list(enumerate_interpretations(sig, config))
        per_size = sum(count_interpretations(sig, k, q) for k in range(1, n + 1))
        assert len(stream) == per_size
        in_size_n = [i for i in stream if len(i.domain) == n]
        assert len(in_size_n) == expected

    def test_decode_is_injective_and_exhaustive(self):
        sig = EnumSignature(("A", "B"), individuals=("t",))
        total = count_interpretations(sig, 2, 1)
        seen = set()
        for k in range(total):
            interp = interpretation_at(sig, GODEL, 2, 1, k)
            key = (tuple(sorted(interp.concept_val.items())),
                   tuple(sorted(interp.individuals.items())))
            seen.add(key)
        assert len(seen) == total
        with pytest.raises(IndexError):
            interpretation_at(sig, GODEL, 2, 1, total)

    def test_stream_is_deterministic(self):
        sig = EnumSignature(("A", "B"), roles=("r",))
        config = SearchConfig(logic=GODEL, max_domain_size=2, denominator=1)
        first = [serialize_interpretation(i) for i in enumerate_interpretations(sig, config)]
        second = [serialize_interpretation(i) for i in enumerate_interpretations(sig, config)]
        assert first == second


class TestEntailment:
    def test_axiom_in_kb_is_never_refuted(self):
        kb = WeightedKB(logic=GODEL, concepts=("A", "B"),
                        tbox=(Inclusion(A, B, Cmp.GE, F(1)),))
        goal = Inclusion(A, B, Cmp.GE, F(1))
        verdict = check_entailment_bounded(kb, goal, SearchConfig(
            logic=GODEL, max_domain_size=2, denominator=3))
        assert isinstance(verdict, NoCountermodel)
        assert not verdict.stats.truncated

    def test_strong_typicality_reflexivity_refuted(self):
        # from the empty KB, "typical Cs are C to degree 1" has a
        # singleton countermodel with C at one half
        kb = empty_kb("C")
        goal = Inclusion(Typ(C), C, Cmp.GE, F(1))
        verdict = check_entailment_bounded(kb, goal, SearchConfig(
            logic=GODEL, max_domain_size=1, denominator=2))
        assert isinstance(verdict, Refuted)
        cm = verdict.countermodel
        assert cm.concept_val == {("C", "e0"): F(1, 2)}
        # independent re-check through the interpretation module
        ok, _ = is_model_strict(cm, kb)
        assert ok and not satisfies(cm, goal)

    def test_weak_typicality_reflexivity_never_refuted(self):
        kb = empty_kb("C")
        goal = Inclusion(Typ(C), C, Cmp.GT, F(0))
        for q in (1, 2, 4):
            verdict = check_entailment_bounded(kb, goal, SearchConfig(
                logic=GODEL, max_domain_size=2, denominator=q))
            assert isinstance(verdict, NoCountermodel)
            assert not verdict.stats.truncated

    def test_unsatisfiable_strict_part_is_vacuous(self):
        kb = WeightedKB(logic=GODEL, concepts=("A",),
                        tbox=(Inclusion(TOP, BOTTOM, Cmp.GE, F(1)),))
        goal = Inclusion(A, BOTTOM, Cmp.GE, F(1))
        verdict = check_entailment_bounded(kb, goal, SearchConfig(
            logic=GODEL, max_domain_size=2, denominator=2))
        assert isinstance(verdict, NoCountermodel)
        assert verdict.stats.models_found == 0
        assert verdict.stats.examined > 0

    def test_monotonicity_spot_check(self):
        # a countermodel found for the larger KB also refutes the
        # smaller one
        small = empty_kb("A", "B", "C")
        large = WeightedKB(logic=GODEL, concepts=("A", "B", "C"),
                           tbox=(Inclusion(A, B, Cmp.GE, F(1)),))
        goal = Inclusion(Typ(C), C, Cmp.GE, F(1))
        config = SearchConfig(logic=GODEL, max_domain_size=2, denominator=2)
        verdict = check_entailment_bounded(large, goal, config)
        assert isinstance(verdict, Refuted)
        cm = verdict.countermodel
        ok, _ = is_model_strict(cm, small)
        assert ok and not satisfies(cm, goal)
        assert isinstance(check_entailment_bounded(small, goal, config), Refuted)

    def test_budget_truncation_flagged(self):
        kb = empty_kb("A", "B")
        goal = Inclusion(A, TOP, Cmp.GE, F(1))  # valid, no countermodel exists
        verdict = check_entailment_bounded(kb, goal, SearchConfig(
            logic=GODEL, max_domain_size=2, denominator=4, budget=10))
        assert isinstance(verdict, NoCountermodel)
        assert verdict.stats.truncated
        assert verdict.stats.examined == 10


@pytest.fixture(scope="module")
def penguin():
    return parse_kb((DATA / "penguin.fkb").read_text())


class TestFmEntailment:
    def test_low_flying_typical_penguins_admitted(self, penguin):
        goal = parse_axiom("T(Penguin) <= Fly >= 0.9", penguin)
        verdict = check_entailment_bounded(penguin, goal, SearchConfig(
            logic=penguin.logic, max_domain_size=2, denominator=10,
            budget=100_000, mode="fm"))
        assert isinstance(verdict, Refuted)
        report = is_fm_model(verdict.countermodel, penguin)
        assert report.is_fm_model
        assert not satisfies(verdict.countermodel, goal)

    def test_fm_filter_is_stricter_than_plain(self, penguin):
        # a plain-mode countermodel need not be an fm-model; the fm
        # filter must only ever return fm-models
        goal = parse_axiom("T(Bird) <= Fly > 0", penguin)
        config = SearchConfig(logic=penguin.logic, max_domain_size=1,
                              denominator=4, budget=50_000, mode="fm")
        verdict = check_entailment_bounded(penguin, goal, config)
        if isinstance(verdict, Refuted):
            assert is_fm_model(verdict.countermodel, penguin).is_fm_model

    def test_vacuous_when_strict_part_unsatisfiable(self):
        kb = WeightedKB(logic=GODEL, concepts=("A",), distinguished=("A",),
                        tbox=(Inclusion(TOP, BOTTOM, Cmp.GE, F(1)),))
        goal = Inclusion(A, A, Cmp.GE, F(1))
        verdict = check_entailment_bounded(kb, goal, SearchConfig(
            logic=GODEL, max_domain_size=2, denominator=1, mode="fm"))
        assert isinstance(verdict, NoCountermodel)
        assert verdict.stats.models_found == 0


def test_search_config_holds_only_the_engine_bounds():
    assert [f.name for f in fields(SearchConfig)] == [
        "logic", "max_domain_size", "denominator", "budget", "mode", "jobs"]


class TestValidity:
    def test_conjunction_weakening_valid_in_godel(self):
        ax = Inclusion(And(A, B), A, Cmp.GE, F(1))
        verdict = check_validity_bounded(ax, SearchConfig(
            logic=GODEL, max_domain_size=2, denominator=4))
        assert isinstance(verdict, NoCountermodel)

    def test_identity_inclusion_refutable_in_zadeh(self):
        ax = Inclusion(C, C, Cmp.GE, F(1))
        verdict = check_validity_bounded(ax, SearchConfig(
            logic=LogicFamily.ZADEH, max_domain_size=1, denominator=2))
        assert isinstance(verdict, Refuted)
        assert verdict.countermodel.concept_val == {("C", "e0"): F(1, 2)}

    @pytest.mark.parametrize("logic", list(LogicFamily))
    def test_top_inclusion_valid_everywhere(self, logic):
        ax = Inclusion(C, TOP, Cmp.GE, F(1))
        verdict = check_validity_bounded(ax, SearchConfig(
            logic=logic, max_domain_size=2, denominator=3))
        assert isinstance(verdict, NoCountermodel)


    @pytest.mark.parametrize("logic", list(LogicFamily))
    def test_is_the_oracle_scan_from_the_empty_kb(self, logic):
        # validity runs the entailment scan from the empty KB over the
        # goal's own names: same verdict, countermodel and counts
        goals = [Inclusion(And(A, B), A, Cmp.GE, F(1)),
                 Inclusion(C, C, Cmp.GE, F(1)),
                 Inclusion(Or(A, Not(A)), TOP, Cmp.GT, F(1, 2)),
                 ConceptAssertion(Exists("r", A), "t", Cmp.LE, F(1, 2))]
        for goal in goals:
            config = SearchConfig(logic=logic, max_domain_size=2, denominator=2, budget=500)
            verdict = check_validity_bounded(goal, config)
            kb = WeightedKB(logic=logic, concepts=())
            sig = signature_of_axiom(goal)
            cm, examined, models, truncated = ref_scan(kb, goal, logic, sig, 2, 2, "plain", 500)
            assert verdict.stats.examined == verdict.stats.models_found == examined == models
            assert verdict.stats.truncated == truncated
            if cm is None:
                assert isinstance(verdict, NoCountermodel)
            else:
                assert verdict.countermodel == cm


class TestSignature:
    def test_unused_names_are_dropped(self):
        kb = WeightedKB(logic=GODEL, concepts=("A", "B", "Unused"),
                        tbox=(Inclusion(A, B, Cmp.GE, F(1)),))
        sig = signature_for(kb, None)
        assert sig.concepts == ("A", "B")

    def test_goal_and_weighted_names_included(self):
        kb = parse_kb((DATA / "penguin.fkb").read_text())
        goal = parse_axiom("T(Penguin) <= Fly >= 0.9", kb)
        sig = signature_for(kb, goal)
        assert "Penguin" in sig.concepts and "Fly" in sig.concepts
        assert "has_Wings" in sig.roles  # occurs in a weighted consequent


class TestWorkerPool:
    def test_pool_matches_sequential(self, monkeypatch):
        import fuzzytyp.engine as engine
        monkeypatch.setattr(engine, "POOL_MIN_SPAN", 8)
        kb = empty_kb("A", "B")
        goal = Inclusion(Typ(A), A, Cmp.GE, F(1))
        seq = check_entailment_bounded(kb, goal, SearchConfig(
            logic=GODEL, max_domain_size=2, denominator=3, jobs=1))
        par = check_entailment_bounded(kb, goal, SearchConfig(
            logic=GODEL, max_domain_size=2, denominator=3, jobs=2))
        assert isinstance(seq, Refuted) and isinstance(par, Refuted)
        assert seq.countermodel == par.countermodel
        assert seq.stats == par.stats

    def test_pool_matches_sequential_no_countermodel(self, monkeypatch):
        import fuzzytyp.engine as engine
        monkeypatch.setattr(engine, "POOL_MIN_SPAN", 8)
        kb = empty_kb("A", "B")
        goal = Inclusion(A, TOP, Cmp.GE, F(1))
        seq = check_entailment_bounded(kb, goal, SearchConfig(
            logic=GODEL, max_domain_size=2, denominator=2, jobs=1))
        par = check_entailment_bounded(kb, goal, SearchConfig(
            logic=GODEL, max_domain_size=2, denominator=2, jobs=2))
        assert isinstance(seq, NoCountermodel) and isinstance(par, NoCountermodel)
        assert seq.stats == par.stats


class TestWorkerChunks:
    """A size block of 6561 interpretations (A, B, C and role r, n = 2,
    q = 2) cut by the budget to a span that ``--jobs 2`` splits into
    chunks of 2048: the aggregated scan equals the oracle's."""

    KB = WeightedKB(logic=GODEL, concepts=("A", "B", "C"), roles=("r",),
                    tbox=(Inclusion(And(B, C), B, Cmp.GE, F(1)),))

    @pytest.mark.parametrize("goal, budget", [
        # valid on one element; first countermodel at index 2917 of n = 2,
        # in the second chunk
        (Inclusion(Exists("r", A), Forall("r", A), Cmp.GE, F(1)), 81 + 6000),
        # valid: the budget runs out inside the third chunk
        (Inclusion(And(A, Exists("r", B)), A, Cmp.GE, F(1)), 81 + 5000),
    ])
    def test_pool_matches_the_oracle(self, monkeypatch, goal, budget):
        import fuzzytyp.engine as engine
        monkeypatch.setattr(engine, "POOL_MIN_SPAN", 8)
        verdict = check_entailment_bounded(self.KB, goal, SearchConfig(
            logic=GODEL, max_domain_size=2, denominator=2, budget=budget, jobs=2))
        cm, examined, models, truncated = ref_scan(
            self.KB, goal, GODEL, signature_for(self.KB, goal), 2, 2, "plain", budget)
        assert (verdict.stats.examined, verdict.stats.models_found) == (examined, models)
        if cm is None:
            assert isinstance(verdict, NoCountermodel) and verdict.stats.truncated == truncated
        else:
            assert isinstance(verdict, Refuted) and verdict.countermodel == cm
            assert examined > 81 + 2048


@settings(max_examples=40, deadline=None)
@given(threshold=st.fractions(min_value=0, max_value=1, max_denominator=120),
       q=st.integers(1, 60))
def test_threshold_numerator_is_the_reduced_product(threshold, q):
    t = threshold_numerator(threshold, q)
    assert t == threshold * q
    assert type(t) is (int if (threshold * q).denominator == 1 else F)


def _random_concept(rng: random.Random, depth: int, typ: bool = True,
                    atoms: tuple = (A, B), role: str | None = "r"):
    if depth == 0 or rng.random() < 0.35:
        return rng.choice([*atoms, TOP, BOTTOM])
    op = rng.choice(["not", "and", "or"] + (["some", "all"] if role else [])
                    + (["typ"] if typ else []))
    if op == "typ":
        return Typ(_random_concept(rng, depth - 1, False, atoms, role))
    if op == "not":
        return Not(_random_concept(rng, depth - 1, typ, atoms, role))
    if op in ("and", "or"):
        pair = (_random_concept(rng, depth - 1, typ, atoms, role),
                _random_concept(rng, depth - 1, typ, atoms, role))
        return And(*pair) if op == "and" else Or(*pair)
    filler = _random_concept(rng, depth - 1, typ, atoms, role)
    return Exists(role, filler) if op == "some" else Forall(role, filler)


def _random_axiom(rng: random.Random, atoms: tuple = (A, B), role: str | None = "r"):
    cmp = rng.choice([Cmp.GE, Cmp.GE, Cmp.GT, Cmp.LE])
    t = F(rng.randint(0, 2), 2)
    kind = rng.random()
    if kind < 0.6:
        return Inclusion(_random_concept(rng, 2, atoms=atoms, role=role),
                         _random_concept(rng, 2, atoms=atoms, role=role), cmp, t)
    if kind < 0.85 or role is None:
        return ConceptAssertion(_random_concept(rng, 2, atoms=atoms, role=role), "a", cmp, t)
    return RoleAssertion(role, "a", "a", cmp, t)


def _random_kb(rng: random.Random, reuse_axiom: bool):
    """A random KB over A, B, role r and individual a, with a weighted
    table for A, and a goal: one of its axioms if ``reuse_axiom`` and
    it has one, else a fresh random axiom."""
    logic = rng.choice(list(LogicFamily))
    axioms = [_random_axiom(rng) for _ in range(rng.randint(0, 2))]
    table = tuple(WeightedTypicalityInclusion(
        "A", _random_concept(rng, 1, typ=False), F(rng.randint(-5, 5), rng.randint(1, 3)))
        for _ in range(rng.randint(1, 2)))
    kb = WeightedKB(logic=logic, concepts=("A", "B"), roles=("r",), individuals=("a",),
                    distinguished=("A",),
                    tbox=tuple(ax for ax in axioms if isinstance(ax, Inclusion)),
                    abox=tuple(ax for ax in axioms if not isinstance(ax, Inclusion)),
                    wtbox={"A": table})
    goal = rng.choice(axioms) if axioms and reuse_axiom else _random_axiom(rng)
    return kb, goal


def test_scan_matches_brute_force_oracle():
    """Verdict, examined, models and the countermodel agree with a
    brute-force scan of the oracle, in plain and fm mode, on random
    small KBs with a role and an individual; half the goals are axioms
    of the KB, so those scans run to completion or to the budget."""
    rng = random.Random(2024)
    for case in range(40):
        kb, goal = _random_kb(rng, reuse_axiom=case % 2)
        logic = kb.logic
        q = rng.choice([1, 2, 3])
        for mode in ("plain", "fm"):
            config = SearchConfig(logic=logic, max_domain_size=2, denominator=q,
                                  budget=600, mode=mode)
            verdict = check_entailment_bounded(kb, goal, config)
            cm, examined, models, truncated = ref_scan(
                kb, goal, logic, signature_for(kb, goal), 2, q, mode, 600)
            where = f"case {case}, {logic}, {mode}, q={q}"
            assert verdict.stats.examined == examined, where
            assert verdict.stats.models_found == models, where
            if cm is None:
                assert isinstance(verdict, NoCountermodel), where
                assert verdict.stats.truncated == truncated, where
            else:
                assert isinstance(verdict, Refuted), where
                assert verdict.countermodel == cm, where


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32), cuts=st.lists(st.integers(0, 2**16), max_size=4))
def test_block_scanner_matches_the_oracle_on_any_chunking(seed, cuts):
    """Each chunk [start, stop) of a size block, cut anywhere (the way
    worker chunks and budgets cut it), reports the oracle's first
    countermodel in it, indices examined and models seen."""
    rng = random.Random(seed)
    kb, goal = _random_kb(rng, reuse_axiom=rng.random() < 0.5)
    mode = rng.choice(["plain", "fm"])
    sig = signature_for(kb, goal)
    for n, q in ((1, rng.choice([1, 2, 3])), (2, 1)):
        question = Question(sig, kb.logic, q, kb.all_axioms(), goal,
                            kb if mode == "fm" else None)
        total = count_interpretations(sig, n, q)
        # per index: 0 not a model, 1 a model where the goal holds, 2 a countermodel
        ref = [0 if not ref_is_model(interp, kb, mode) else
               1 if goal.cmp.apply(ref_axiom_degree(interp, goal), goal.threshold) else 2
               for interp in ref_interpretations(kb.logic, sig.concepts, sig.roles,
                                                 sig.individuals, n, q)]
        bounds = sorted({0, total, *(c % (total + 1) for c in cuts)})
        for start, stop in zip(bounds, bounds[1:]):
            first = next((k for k in range(start, stop) if ref[k] == 2), None)
            end = stop if first is None else first + 1
            expected = (first, end - start, sum(1 for k in range(start, end) if ref[k]))
            assert scan_block(question, n, start, stop) == expected, (n, start, stop)


#: Signatures small enough for the oracle whose size blocks pass through
#: lane passes of every shape: (concepts, role or None, n, q).  With
#: n = 2 or 3, a pass varying k positions covers whole rows and, when n
#: does not divide k, the first cells of one more row.
LANE_SHAPES = [
    ((A, B, C), None, 2, 2),  # 3^6 * 2 = 1458: up to 729 lanes, all concept cells
    ((A,), "r", 2, 2),        # 3^2 * 3^4 * 2 = 1458: lanes over A only, role shared
    ((A, B, C), None, 3, 1),  # 2^9 * 3 = 1536: up to 512 lanes, rows cut at k = 1, 2, 4, ...
    ((A, B), None, 3, 1),     # 2^6 * 3 = 192
]


@pytest.mark.parametrize("atoms, role, n, q", LANE_SHAPES)
@pytest.mark.parametrize("max_lanes", [1, 9, MAX_LANES])
def test_odometer_lanes_are_the_decoded_indices(atoms, role, n, q, max_lanes):
    """Every lane of every pass holds the digits ``_decode`` gives its
    index; the passes tile [start, stop) in order, each on a multiple
    of its lane count, even when start and stop cut lane blocks."""
    sig = EnumSignature(tuple(c.name for c in atoms), (role,) if role else (), ("a",))
    total = count_interpretations(sig, n, q)
    for start, stop in ((0, total), (5, total - 7), (total // 3 + 1, total // 2)):
        index = start
        shapes = set()
        for first, lanes, lane_atoms, roles, element in _odometer(sig, n, q, start, stop,
                                                                  max_lanes):
            assert first == index and first % lanes == 0 and first + lanes <= stop
            assert lanes <= max_lanes
            shapes.add(lanes)
            for lane in range(lanes):
                atoms_at, roles_at, element_at = _decode(sig, n, q, first + lane)
                assert [row[lane * n:lane * n + n] for row in lane_atoms] == atoms_at
                assert (roles, element) == (roles_at, element_at)
            index += lanes
        assert index == stop
        if start == 0:
            # the whole block reaches the widest pass its concept cells allow
            assert max(shapes) == max((q + 1) ** k for k in range(len(atoms) * n + 1)
                                      if (q + 1) ** k <= max_lanes)


def _lane_kb(rng: random.Random, atoms: tuple, role: str | None):
    """A random KB over ``atoms``, ``role`` and individual a, with a
    weighted table for A, and a goal (half the time one of its axioms)."""
    logic = rng.choice(list(LogicFamily))
    axioms = [_random_axiom(rng, atoms, role) for _ in range(rng.randint(0, 2))]
    table = tuple(WeightedTypicalityInclusion(
        "A", _random_concept(rng, 1, False, atoms, role),
        F(rng.randint(-5, 5), rng.randint(1, 3))) for _ in range(rng.randint(1, 2)))
    kb = WeightedKB(logic=logic, concepts=tuple(c.name for c in atoms),
                    roles=(role,) if role else (), individuals=("a",), distinguished=("A",),
                    tbox=tuple(ax for ax in axioms if isinstance(ax, Inclusion)),
                    abox=tuple(ax for ax in axioms if not isinstance(ax, Inclusion)),
                    wtbox={"A": table})
    goal = (rng.choice(axioms) if axioms and rng.random() < 0.5
            else _random_axiom(rng, atoms, role))
    return kb, goal


@settings(max_examples=16, deadline=None)
@given(seed=st.integers(0, 2**32), cuts=st.lists(st.integers(0, 2**16), max_size=3))
def test_lane_scan_matches_the_oracle_inside_lane_blocks(seed, cuts):
    """``scan_block`` agrees with the oracle on size blocks scanned in
    lane passes of up to MAX_LANES interpretations, whole and cut at
    points inside lane blocks (one past a multiple of a power of q+1),
    with individuals, assertions and, in fm mode, a weighted table."""
    rng = random.Random(seed)
    atoms, role, n, q = rng.choice(LANE_SHAPES)
    kb, goal = _lane_kb(rng, atoms, role)
    mode = rng.choice(["plain", "fm"])
    sig = EnumSignature(kb.concepts, kb.roles, kb.individuals)  # every name, used or not
    question = Question(sig, kb.logic, q, kb.all_axioms(), goal, kb if mode == "fm" else None)
    total = count_interpretations(sig, n, q)
    ref = [0 if not ref_is_model(interp, kb, mode) else
           1 if goal.cmp.apply(ref_axiom_degree(interp, goal), goal.threshold) else 2
           for interp in ref_interpretations(kb.logic, sig.concepts, sig.roles,
                                             sig.individuals, n, q)]
    inside = [(q + 1) ** rng.randint(1, 4) * rng.randint(1, 5) + 1 for _ in range(2)]
    bounds = sorted({0, total, *(c % (total + 1) for c in cuts + inside)})
    for start, stop in [(0, total), *zip(bounds, bounds[1:])]:
        first = next((k for k in range(start, stop) if ref[k] == 2), None)
        end = stop if first is None else first + 1
        expected = (first, end - start, sum(1 for k in range(start, end) if ref[k]))
        assert scan_block(question, n, start, stop) == expected, (start, stop)


#: The penguin anchor: goal ``(and Yellow Black) <= Bot >= 1`` at q = 2,
#: budget 40k: the whole n = 1 block, then 20317 indices of n = 2.
#: Models per block: n = 1 5103 (Lukasiewicz 8019); n = 2 20317 in plain
#: mode, 13190 in fm mode.
@pytest.mark.parametrize("mode", ["plain", "fm"])
@pytest.mark.parametrize("logic", list(LogicFamily), ids=str)
def test_penguin_anchor_counts_are_pinned(penguin, logic, mode):
    kb = dataclasses.replace(penguin, logic=logic)
    goal = parse_axiom("(and Yellow Black) <= Bot >= 1", kb)
    question = Question(signature_for(kb, goal), logic, 2, kb.all_axioms(), goal,
                        kb if mode == "fm" else None)
    one = 8019 if logic is LogicFamily.LUKASIEWICZ else 5103
    two = 20317 if mode == "plain" else 13190
    assert scan_block(question, 1, 0, 19683) == (None, 19683, one)
    assert scan_block(question, 2, 0, 20317) == (None, 20317, two)
    verdict = check_entailment_bounded(kb, goal, SearchConfig(
        logic=logic, max_domain_size=2, denominator=2, budget=40_000, mode=mode))
    assert isinstance(verdict, NoCountermodel)
    assert (verdict.stats.examined, verdict.stats.models_found) == (40_000, one + two)
    assert verdict.stats.truncated
