"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured numbers (run with ``pytest -s`` to see them live).

Every tolerance and bound is pinned here; nothing is deferred.
"""

import random
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from fuzzytyp.algebra import LogicFamily
from fuzzytyp.engine import (
    EnumSignature,
    Refuted,
    SearchConfig,
    check_entailment_bounded,
    count_interpretations,
    enumerate_interpretations,
    random_interpretation,
)
from fuzzytyp.interpretation import (
    FuzzyInterpretation,
    eval_concept,
    is_model_strict,
    satisfies,
    typical_elements,
)
from fuzzytyp.mlp import (
    Activation,
    FeedForwardNet,
    StimulusSet,
    Synapse,
    Unit,
    build_interpretation,
    mlp_to_kb,
    unit_name,
    verify_network_faithfulness,
)
from fuzzytyp.parser import (
    parse_axiom,
    parse_interpretation,
    parse_kb,
    serialize_interpretation,
)
from fuzzytyp.postulates import (
    HoldsWithinBounds,
    ShapeBound,
    Violated,
    check_instance,
    search_counterexample,
)
from fuzzytyp.syntax import (
    And,
    Atomic,
    BOTTOM,
    Not,
    Or,
    TOP,
    Typ,
    WeightedKB,
    WeightedTypicalityInclusion,
    validate_kb,
)
from fuzzytyp.weighted import is_coherent, is_faithful, is_fm_model, weight
from oracle import (
    is_irreflexive,
    is_modular,
    is_transitive,
    is_well_founded,
    preference_pairs,
)

DATA = Path(__file__).parent / "data"

ZADEH = LogicFamily.ZADEH
GODEL = LogicFamily.GODEL
LUKA = LogicFamily.LUKASIEWICZ
PRODUCT = LogicFamily.PRODUCT


def load_penguin():
    kb = parse_kb((DATA / "penguin.fkb").read_text())
    interp = parse_interpretation((DATA / "penguin.fint").read_text(), kb.logic, kb)
    return kb, interp


def test_acceptance_1_example_reproduction():
    started = time.perf_counter()
    kb, interp = load_penguin()
    assert weight(interp, kb, "Bird", "reddy") == F(120)
    assert weight(interp, kb, "Bird", "opus") == F(100)
    assert weight(interp, kb, "Penguin", "reddy") == F(30)
    assert weight(interp, kb, "Penguin", "opus") == F(120)
    assert is_faithful(interp, kb) == (True, [])

    bumped = dict(interp.concept_val)
    bumped[("Penguin", "reddy")] = F(9, 10)
    variant = FuzzyInterpretation(
        logic=interp.logic, domain=interp.domain,
        concept_names=interp.concept_names, role_names=interp.role_names,
        concept_val=bumped, role_val=dict(interp.role_val))
    ok, violations = is_faithful(variant, kb)
    assert not ok
    assert [(v.concept, v.x, v.y) for v in violations] == [("Penguin", "reddy", "opus")]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS: weights 120/100/30/120 exact, faithfulness "
          f"flips on the 0.9 bump, in {elapsed:.3f}s")


PROP1 = ("LLE1", "RW1", "AND1", "OR1", "CM1")
PROP2 = ("REFL0", "LLE0", "RW0", "AND0", "OR0")


def run_zero_violation_suite(logics, postulates, trials=10_000):
    engaged = {}
    for logic in logics:
        for name in postulates:
            verdict = search_counterexample(name, logic, ShapeBound(max_depth=2),
                                            max_domain_size=5, denominator=6,
                                            trials=trials, seed=42)
            assert isinstance(verdict, HoldsWithinBounds), (
                f"{name} violated in {logic}: {verdict.check}")
            assert verdict.stats.trials == trials
            assert verdict.stats.engaged > trials // 20, (
                f"{name}/{logic}: too few engaged instances to mean anything")
            engaged[(str(logic), name)] = verdict.stats.engaged
    return engaged


def test_acceptance_2_strong_postulates_hold_in_minmax_logics():
    started = time.perf_counter()
    engaged = run_zero_violation_suite((ZADEH, GODEL), PROP1)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    total_engaged = sum(engaged.values())
    print(f"ACCEPTANCE 2 PASS: zero violations of {'/'.join(PROP1)} in "
          f"zadeh+godel over 10000 trials each ({total_engaged} engaged instances) "
          f"in {elapsed:.1f}s")


def test_acceptance_3_weak_postulates_and_mixed_cm_hold():
    engaged = run_zero_violation_suite((ZADEH, GODEL), PROP2 + ("CMSTAR",))
    total_engaged = sum(engaged.values())
    print(f"ACCEPTANCE 3 PASS: zero violations of {'/'.join(PROP2)}+CMSTAR in "
          f"zadeh+godel over 10000 trials each ({total_engaged} engaged instances)")


def recheck_witness(verdict: Violated) -> None:
    """Re-verify through the independent evaluation path: serialize the
    witness, reparse it, and re-evaluate premises and conclusion with
    the plain satisfaction checker."""
    rebuilt = parse_interpretation(serialize_interpretation(verdict.interp),
                                   verdict.interp.logic)
    rebuilt = FuzzyInterpretation(
        logic=rebuilt.logic, domain=rebuilt.domain,
        concept_names=verdict.interp.concept_names,
        role_names=verdict.interp.role_names,
        concept_val=rebuilt.concept_val, role_val=rebuilt.role_val)
    for premise in verdict.check.premises:
        assert satisfies(rebuilt, premise)
    assert not satisfies(rebuilt, verdict.check.conclusion)


def test_acceptance_4_failure_witness_suite():
    findings = []

    # (a) strong reflexivity fails in Godel: the analytic witness is a
    # singleton with C at one half; the search also finds one
    singleton = FuzzyInterpretation(
        logic=GODEL, domain=("e0",), concept_names=("P1",),
        concept_val={("P1", "e0"): F(1, 2)})
    analytic = check_instance(singleton, "REFL1", C=Atomic("P1"))
    assert not analytic.holds and analytic.conclusion_degree == F(1, 2)
    found = search_counterexample("REFL1", GODEL, max_domain_size=3, denominator=4,
                                  trials=2000, exhaustive=True)
    assert isinstance(found, Violated)
    recheck_witness(found)
    findings.append("REFL1/godel")

    # (b) strong reflexivity and the strong or-rule fail in Lukasiewicz
    # and in product logic
    for logic, postulate, depth, trials in [
        (LUKA, "REFL1", 2, 20_000),
        (PRODUCT, "REFL1", 2, 20_000),
        (LUKA, "OR1", 0, 20_000),
        (PRODUCT, "OR1", 0, 150_000),
    ]:
        verdict = search_counterexample(postulate, logic, ShapeBound(max_depth=depth),
                                        max_domain_size=3, denominator=4,
                                        trials=trials, seed=0)
        assert isinstance(verdict, Violated), f"{postulate} not refuted in {logic}"
        recheck_witness(verdict)
        findings.append(f"{postulate}/{logic} (trial {verdict.stats.trials})")

    # (c) weak cautious monotonicity fails in Godel
    verdict = search_counterexample("CM0", GODEL, ShapeBound(max_depth=2),
                                    max_domain_size=3, denominator=4,
                                    trials=30_000, seed=0)
    assert isinstance(verdict, Violated)
    recheck_witness(verdict)
    findings.append(f"CM0/godel (trial {verdict.stats.trials})")

    print(f"ACCEPTANCE 4 PASS: witnesses found and re-checked for "
          f"{', '.join(findings)}")


def test_acceptance_5_product_lukasiewicz_positive_suite():
    engaged = run_zero_violation_suite((PRODUCT, LUKA),
                                       ("LLE1", "RW1", "AND1", "CM1"))
    total_engaged = sum(engaged.values())
    print(f"ACCEPTANCE 5 PASS: zero violations of LLE1/RW1/AND1/CM1 in "
          f"product+lukasiewicz over 10000 trials each "
          f"({total_engaged} engaged instances)")


def random_typfree_concept(rng, depth):
    if depth == 0 or rng.random() < 0.5:
        return rng.choice([Atomic("P"), Atomic("Q"), Atomic("R"), TOP, BOTTOM])
    op = rng.choice(["not", "and", "or"])
    if op == "not":
        return Not(random_typfree_concept(rng, depth - 1))
    left = random_typfree_concept(rng, depth - 1)
    right = random_typfree_concept(rng, depth - 1)
    return And(left, right) if op == "and" else Or(left, right)


def test_acceptance_6_structural_invariants():
    rng = random.Random(2718)
    sig = EnumSignature(concepts=("P", "Q", "R"))

    for _ in range(10_000):
        logic = rng.choice(list(LogicFamily))
        interp = random_interpretation(rng, sig, logic, rng.randint(1, 4), 4)
        concept = random_typfree_concept(rng, 2)
        values = [eval_concept(interp, concept, x) for x in interp.domain]
        typical = typical_elements(interp, concept)
        assert (any(v > 0 for v in values)) == bool(typical)
        for x in interp.domain:
            assert eval_concept(interp, Typ(concept), x) in (F(0), F(1))
        pairs = preference_pairs(interp, concept)
        assert is_irreflexive(pairs, interp.domain) and is_transitive(pairs)
        assert is_modular(pairs, interp.domain) and is_well_founded(pairs, interp.domain)

    coherent_count = 0
    witness = None
    for _ in range(10_000):
        logic = rng.choice(list(LogicFamily))
        interp = random_interpretation(rng, sig, logic, rng.randint(1, 3), 2)
        kb = WeightedKB(
            logic=logic, concepts=("P", "Q", "R"), distinguished=("P", "Q"),
            wtbox={
                "P": (WeightedTypicalityInclusion("P", Atomic("R"),
                                                  F(rng.randint(-4, 4))),),
                "Q": (WeightedTypicalityInclusion("Q", Atomic("R"),
                                                  F(rng.randint(-4, 4))),
                      WeightedTypicalityInclusion("Q", Atomic("P"),
                                                  F(rng.randint(-4, 4)))),
            })
        coherent = is_coherent(interp, kb)[0]
        faithful = is_faithful(interp, kb)[0]
        if coherent:
            coherent_count += 1
            assert faithful, "coherent interpretation must be faithful"
        if faithful and not coherent and witness is None:
            witness = (interp, kb)
    assert coherent_count > 100
    assert witness is not None, "no faithful-but-not-coherent witness discovered"
    w_interp, w_kb = witness
    assert is_faithful(w_interp, w_kb)[0] and not is_coherent(w_interp, w_kb)[0]

    print(f"ACCEPTANCE 6 PASS: 10000 structural-invariant draws clean; "
          f"coherent=>faithful on 10000 (I,K) pairs "
          f"({coherent_count} coherent), faithful-not-coherent witness found")


def test_acceptance_7_engine_oracle_checks():
    # enumeration counts against the closed form on hand-countable cases
    cases = [
        (EnumSignature(("C",)), 1, 1, 2),
        (EnumSignature(("C",)), 1, 2, 3),
        (EnumSignature(("A", "B")), 2, 2, 81),
        (EnumSignature(("A",), roles=("r",)), 2, 1, 64),
        (EnumSignature(("A",), individuals=("t",)), 2, 1, 8),
        (EnumSignature(("A", "B", "C")), 1, 3, 64),
    ]
    for sig, n, q, expected in cases:
        assert count_interpretations(sig, n, q) == expected
        config = SearchConfig(logic=GODEL, max_domain_size=n, denominator=q)
        stream = [i for i in enumerate_interpretations(sig, config)
                  if len(i.domain) == n]
        assert len(stream) == expected

    # every emitted countermodel re-checks through the model checker
    kb, _ = load_penguin()
    goal = parse_axiom("T(Penguin) <= Fly >= 0.9", kb)
    verdict = check_entailment_bounded(kb, goal, SearchConfig(
        logic=kb.logic, max_domain_size=2, denominator=10, budget=100_000, mode="fm"))
    assert isinstance(verdict, Refuted)
    assert is_fm_model(verdict.countermodel, kb).is_fm_model
    assert not satisfies(verdict.countermodel, goal)

    empty = WeightedKB(logic=GODEL, concepts=("C",))
    goal2 = parse_axiom("T(C) <= C >= 1", empty)
    verdict2 = check_entailment_bounded(empty, goal2, SearchConfig(
        logic=GODEL, max_domain_size=1, denominator=2))
    assert isinstance(verdict2, Refuted)
    ok, _ = is_model_strict(verdict2.countermodel, empty)
    assert ok and not satisfies(verdict2.countermodel, goal2)

    # identical seeds give identical outputs
    bounds = dict(max_domain_size=3, denominator=4, trials=20_000, seed=9)
    first = search_counterexample("CM0", GODEL, **bounds)
    second = search_counterexample("CM0", GODEL, **bounds)
    assert isinstance(first, Violated) and isinstance(second, Violated)
    assert first.interp == second.interp
    assert first.check.substitution == second.check.substitution

    print("ACCEPTANCE 7 PASS: closed-form counts match on 6 configurations, "
          "countermodels re-check, identical seeds reproduce identical witnesses")


def test_acceptance_8_weight_monotonicity_in_bird_degree():
    kb, _ = load_penguin()
    grid = [F(i, 10) for i in range(11)]
    checked = 0
    for fly in grid:
        for black in grid:
            for pen in grid:
                previous = None
                for bird in grid:
                    interp = FuzzyInterpretation(
                        logic=kb.logic, domain=("x", "y"),
                        concept_names=kb.concepts, role_names=kb.roles,
                        concept_val={("Penguin", "x"): pen, ("Bird", "x"): bird,
                                     ("Fly", "x"): fly, ("Black", "x"): black,
                                     ("Penguin", "y"): F(1, 2)})
                    w = weight(interp, kb, "Penguin", "x")
                    if previous is not None:
                        assert w >= previous, (
                            f"W[Penguin] dropped when Bird rose: fly={fly} "
                            f"black={black} pen={pen} bird={bird}")
                    previous = w
                    checked += 1
    assert checked == 11 ** 4
    print(f"ACCEPTANCE 8 PASS: W[Penguin] never decreases in the Bird degree "
          f"over all {checked} grid points (q=10, 2-element domain)")


def test_acceptance_9_mlp_bridge_faithfulness():
    rng = random.Random(31415)
    activations = [Activation.HARD_SIGMOID, Activation.CLIPPED_LINEAR]
    for trial in range(100):
        act_hidden = rng.choice(activations)
        act_out = rng.choice(activations)
        units = [Unit(unit_name(0, i), 0, None) for i in range(2)]
        units += [Unit(unit_name(1, j), 1, act_hidden) for j in range(3)]
        units += [Unit(unit_name(2, 0), 2, act_out)]
        synapses = [Synapse(unit_name(0, i), unit_name(1, j),
                            F(rng.randint(-12, 12), rng.randint(1, 6)))
                    for i in range(2) for j in range(3)]
        synapses += [Synapse(unit_name(1, j), unit_name(2, 0),
                             F(rng.randint(-12, 12), rng.randint(1, 6)))
                     for j in range(3)]
        net = FeedForwardNet(tuple(units), tuple(synapses))
        stimuli = StimulusSet(
            tuple(f"s{k}" for k in range(8)),
            tuple((F(rng.randint(0, 24), 24), F(rng.randint(0, 24), 24))
                  for _ in range(8)))

        kb = mlp_to_kb(net)
        assert validate_kb(kb) == []
        interp = build_interpretation(net, stimuli)
        for degree in interp.concept_val.values():
            assert isinstance(degree, F) and F(0) <= degree <= F(1)
        report = verify_network_faithfulness(net, stimuli)
        if not report.faithful:
            dump = serialize_interpretation(report.interpretation)
            pytest.fail(
                f"faithfulness violated on trial {trial}: "
                f"{report.fm_report.faithfulness_violations}\nwitness:\n{dump}")
    print("ACCEPTANCE 9 PASS: 100 random 2-3-1 nets translate, evaluate "
          "exactly, and induce faithful interpretations on 8 stimuli each")
