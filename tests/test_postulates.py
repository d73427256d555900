"""Postulate schemas, premise catalogs, instance checks, and
counterexample search, plus lifting the instance-level rules to
the entailment level."""

import random
from fractions import Fraction as F

import pytest

from fuzzytyp.algebra import LogicFamily
from fuzzytyp.engine import (
    EnumSignature,
    NoCountermodel,
    SearchConfig,
    check_entailment_bounded,
    random_interpretation,
)
from fuzzytyp.interpretation import FuzzyInterpretation, satisfies
from fuzzytyp.parser import parse_interpretation, serialize_interpretation
from fuzzytyp.postulates import (
    POSTULATES,
    HoldsWithinBounds,
    ShapeBound,
    UncertifiedPremiseError,
    Violated,
    catalog_oracle,
    certify_catalog_entry,
    check_instance,
    search_counterexample,
    valid_premise_catalog,
)
from fuzzytyp.syntax import (
    And,
    Atomic,
    Cmp,
    Inclusion,
    Or,
    TOP,
    Typ,
    WeightedKB,
    WeightedTypicalityInclusion,
)

GODEL = LogicFamily.GODEL
ZADEH = LogicFamily.ZADEH
LUKA = LogicFamily.LUKASIEWICZ
PRODUCT = LogicFamily.PRODUCT

P1, P2, P3 = Atomic("P1"), Atomic("P2"), Atomic("P3")


def interp_of(logic, val: dict[tuple[str, str], F], names=("P1", "P2", "P3")):
    domain = tuple(sorted({e for (_, e) in val}))
    return FuzzyInterpretation(logic=logic, domain=domain or ("e0",),
                               concept_names=names, concept_val=dict(val))


class TestCatalog:
    @pytest.mark.parametrize("logic", [GODEL, ZADEH])
    def test_full_certification_at_documented_bounds(self, logic):
        for entry in valid_premise_catalog(logic):
            assert certify_catalog_entry(entry, logic), entry.name

    @pytest.mark.parametrize("logic", [LUKA, PRODUCT])
    def test_certification_for_the_other_families(self, logic):
        # same schemas, tighter exhaustive bounds (they are shared with
        # Godel where the full-bounds run happens)
        for entry in valid_premise_catalog(logic):
            assert certify_catalog_entry(entry, logic, max_domain=2,
                                         denominator=4), entry.name

    def test_godel_catalog_contains_the_pointwise_rewrites(self):
        names = {e.name for e in valid_premise_catalog(GODEL)}
        assert {"and-comm", "or-comm", "and-assoc", "or-assoc",
                "and-weaken", "or-intro"} <= names

    def test_zadeh_catalog_is_degree_forcing_only(self):
        names = {e.name for e in valid_premise_catalog(ZADEH)}
        assert names == {"or-top", "and-bot", "bot-least", "top-greatest"}

    def test_oracle_matches_instances_and_reversals(self):
        oracle = catalog_oracle(GODEL)
        complex_filler = Or(P1, Atomic("P2"))
        assert oracle("equiv", And(complex_filler, P3), And(P3, complex_filler))
        assert oracle("equiv", And(P3, complex_filler), And(complex_filler, P3))
        assert oracle("incl", And(P1, P2), P2)
        assert oracle("incl", P1, Or(P2, P1))
        assert oracle("incl", P1, TOP)

    def test_zadeh_oracle_rejects_plain_identity(self):
        # C <= C at threshold 1 is refutable in Zadeh, so (A, A) must
        # not be certified
        oracle = catalog_oracle(ZADEH)
        assert not oracle("incl", P1, P1)
        assert not oracle("equiv", P1, P1)

    def test_pointwise_oracle_rejects_unknown_shapes(self):
        oracle = catalog_oracle(GODEL)
        assert not oracle("incl", P1, P2)
        assert not oracle("equiv", Or(P1, P2), And(P1, P2))


class TestCheckInstance:
    def test_weak_reflexivity_holds_everywhere(self):
        rng = random.Random(3)
        sig = EnumSignature(("P1", "P2", "P3"))
        for _ in range(300):
            logic = rng.choice(list(LogicFamily))
            interp = random_interpretation(rng, sig, logic, rng.randint(1, 4), 5)
            res = check_instance(interp, "REFL0", C=P1)
            assert res.holds

    def test_strong_reflexivity_fails_on_the_halfway_singleton(self):
        interp = interp_of(GODEL, {("P1", "e0"): F(1, 2)})
        res = check_instance(interp, "REFL1", C=P1)
        assert not res.holds and not res.vacuous
        assert res.conclusion_degree == F(1, 2)

    def test_strong_conjunction_rule_in_zadeh(self):
        interp = interp_of(ZADEH, {("P1", "e0"): F(1, 2), ("P1", "e1"): F(1, 4),
                                   ("P2", "e0"): F(1), ("P3", "e0"): F(1)})
        res = check_instance(interp, "AND1", A=P1, C=P2, D=P3)
        assert res.holds and not res.vacuous
        assert res.conclusion_degree == F(1)

    def test_wrong_arity_is_rejected(self):
        interp = interp_of(GODEL, {("P1", "e0"): F(1)})
        with pytest.raises(ValueError, match="metavariables"):
            check_instance(interp, "REFL1", A=P1)
        with pytest.raises(ValueError, match="metavariables"):
            check_instance(interp, "AND1", A=P1, C=P2)

    def test_uncertified_validity_premise_raises(self):
        interp = interp_of(ZADEH, {("P1", "e0"): F(1)})
        with pytest.raises(UncertifiedPremiseError):
            check_instance(interp, "LLE1", catalog_oracle(ZADEH), A=P1, B=P1, C=P2)
        with pytest.raises(UncertifiedPremiseError):
            check_instance(interp, "LLE1", None, A=P1, B=P1, C=P2)

    def test_certified_lle_instance(self):
        interp = interp_of(GODEL, {("P1", "e0"): F(1, 2), ("P2", "e0"): F(1, 3),
                                   ("P3", "e0"): F(1)})
        res = check_instance(interp, "LLE1", catalog_oracle(GODEL),
                             A=And(P1, P2), B=And(P2, P1), C=P3)
        assert res.holds


def recheck_violation(verdict: Violated) -> None:
    """Independent path: rebuild the witness via its textual form and
    re-evaluate premises/conclusion with the interpretation module."""
    text = serialize_interpretation(verdict.interp)
    rebuilt = parse_interpretation(text, verdict.interp.logic)
    rebuilt = FuzzyInterpretation(
        logic=rebuilt.logic, domain=rebuilt.domain,
        concept_names=verdict.interp.concept_names,
        role_names=verdict.interp.role_names,
        concept_val=rebuilt.concept_val, role_val=rebuilt.role_val)
    for premise in verdict.check.premises:
        assert satisfies(rebuilt, premise)
    assert not satisfies(rebuilt, verdict.check.conclusion)


class TestSearch:
    def test_exhaustive_search_finds_strong_reflexivity_witness(self):
        verdict = search_counterexample("REFL1", GODEL, max_domain_size=1, denominator=2,
                                        trials=500, exhaustive=True)
        assert isinstance(verdict, Violated)
        recheck_violation(verdict)

    def test_random_search_finds_weak_cm_witness(self):
        verdict = search_counterexample("CM0", GODEL, max_domain_size=3, denominator=4,
                                        trials=20000, seed=0)
        assert isinstance(verdict, Violated)
        assert verdict.check.postulate == "CM0"
        recheck_violation(verdict)

    def test_random_search_finds_strong_or_witness_in_lukasiewicz(self):
        verdict = search_counterexample("OR1", LUKA, ShapeBound(max_depth=0),
                                        max_domain_size=3, denominator=4,
                                        trials=20000, seed=0)
        assert isinstance(verdict, Violated)
        recheck_violation(verdict)

    def test_exhaustive_sweep_cannot_break_the_strong_and_rule(self):
        # full sweep: every atomic instantiation triple against every
        # interpretation within the bounds
        verdict = search_counterexample("AND1", GODEL, ShapeBound(max_depth=0),
                                        max_domain_size=2, denominator=2,
                                        trials=100_000, exhaustive=True)
        assert isinstance(verdict, HoldsWithinBounds)
        assert not verdict.stats.budget_exhausted
        assert verdict.stats.engaged > 0

    def test_verify_mode_reports_engagement(self):
        verdict = search_counterexample("AND1", ZADEH, max_domain_size=3, denominator=4,
                                        trials=800, seed=1)
        assert isinstance(verdict, HoldsWithinBounds)
        assert verdict.stats.engaged > 0
        assert verdict.stats.trials == 800

    def test_search_is_deterministic(self):
        bounds = dict(max_domain_size=3, denominator=4, trials=20000, seed=5)
        a = search_counterexample("CM0", GODEL, **bounds)
        b = search_counterexample("CM0", GODEL, **bounds)
        assert isinstance(a, Violated) and isinstance(b, Violated)
        assert a.interp == b.interp
        assert a.check.substitution == b.check.substitution


class TestPostulateTable:
    def test_all_thirteen_postulates_present(self):
        assert set(POSTULATES) == {
            "REFL1", "LLE1", "RW1", "AND1", "OR1", "CM1",
            "REFL0", "LLE0", "RW0", "AND0", "OR0", "CM0", "CMSTAR"}

    def test_cmstar_mixes_strong_and_weak_thresholds(self):
        schema = POSTULATES["CMSTAR"]
        subst = {"A": P1, "C": P2, "D": P3}
        premises = schema.premises(subst)
        assert premises[0] == Inclusion(Typ(P1), P3, Cmp.GE, F(1))
        assert premises[1] == Inclusion(Typ(P1), P2, Cmp.GT, F(0))
        assert schema.conclusion(subst) == Inclusion(Typ(And(P1, P3)), P2, Cmp.GT, F(0))


class TestEntailmentLifting:
    """With the premises as strict axioms, the conclusion must hold in
    every bounded model, so the rules lift from instances to
    (bounded) entailment; one integration test per reading."""

    def test_strong_and_rule_lifts_to_entailment(self):
        for logic in (ZADEH, GODEL):
            kb = WeightedKB(
                logic=logic, concepts=("A", "C", "D"),
                tbox=(Inclusion(Typ(Atomic("A")), Atomic("C"), Cmp.GE, F(1)),
                      Inclusion(Typ(Atomic("A")), Atomic("D"), Cmp.GE, F(1))))
            goal = Inclusion(Typ(Atomic("A")), And(Atomic("C"), Atomic("D")),
                             Cmp.GE, F(1))
            verdict = check_entailment_bounded(kb, goal, SearchConfig(
                logic=logic, max_domain_size=2, denominator=3))
            assert isinstance(verdict, NoCountermodel)
            assert not verdict.stats.truncated

    def test_mixed_cautious_monotonicity_lifts_to_entailment(self):
        for logic in (ZADEH, GODEL):
            kb = WeightedKB(
                logic=logic, concepts=("A", "C", "D"),
                tbox=(Inclusion(Typ(Atomic("A")), Atomic("D"), Cmp.GE, F(1)),
                      Inclusion(Typ(Atomic("A")), Atomic("C"), Cmp.GT, F(0))))
            goal = Inclusion(Typ(And(Atomic("A"), Atomic("D"))), Atomic("C"),
                             Cmp.GT, F(0))
            verdict = check_entailment_bounded(kb, goal, SearchConfig(
                logic=logic, max_domain_size=2, denominator=3))
            assert isinstance(verdict, NoCountermodel)

    def test_weak_family_lifts_to_fm_entailment(self):
        # fm-models are a subset of models, so the weak OR rule holds
        # for fm-entailment too; checked with a weighted table present
        for logic in (ZADEH, GODEL):
            kb = WeightedKB(
                logic=logic, concepts=("A", "B", "C"), distinguished=("A",),
                tbox=(Inclusion(Typ(Atomic("A")), Atomic("C"), Cmp.GT, F(0)),
                      Inclusion(Typ(Atomic("B")), Atomic("C"), Cmp.GT, F(0))),
                wtbox={"A": (WeightedTypicalityInclusion("A", Atomic("C"), F(3)),)})
            goal = Inclusion(Typ(Or(Atomic("A"), Atomic("B"))), Atomic("C"),
                             Cmp.GT, F(0))
            verdict = check_entailment_bounded(kb, goal, SearchConfig(
                logic=logic, max_domain_size=2, denominator=3, mode="fm"))
            assert isinstance(verdict, NoCountermodel)
