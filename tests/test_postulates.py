"""Postulate schemas, premise catalogs, instance checks, and
counterexample search, plus lifting the instance-level rules to
the entailment level."""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from fuzzytyp import cli
from fuzzytyp.algebra import LogicFamily
from fuzzytyp.engine import (
    COUNTER,
    NOT_A_MODEL,
    EnumSignature,
    NoCountermodel,
    Question,
    SearchConfig,
    check_entailment_bounded,
    interpretation_of_digits,
    random_interpretation,
)
from fuzzytyp.interpretation import FuzzyInterpretation, satisfies
from fuzzytyp.parser import parse_interpretation, serialize_interpretation
from fuzzytyp.postulates import (
    POSTULATES,
    HoldsWithinBounds,
    InternalCheckError,
    ShapeBound,
    UncertifiedPremiseError,
    Violated,
    _concept_candidates,
    _random_trials,
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
    concept_to_text,
)
from oracle import ref_axiom_degree, ref_interpretations

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

    def test_exhaustive_trials_are_the_budget_when_it_runs_out(self):
        verdict = search_counterexample("AND1", GODEL, ShapeBound(max_depth=0),
                                        max_domain_size=2, denominator=2, trials=10,
                                        exhaustive=True)
        assert isinstance(verdict, HoldsWithinBounds)
        s = verdict.stats
        assert s.budget_exhausted
        assert s.trials == 10 == s.engaged + s.vacuous

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


def ref_exhaustive(postulate: str, logic: LogicFamily, shape: ShapeBound, max_n: int,
                   q: int, budget: int):
    """Brute force of exhaustive mode over the oracle: instantiations in
    the search's small-first order, every grid interpretation of each
    in stream order, at most ``budget`` examined.  Returns the first
    (substitution, interpretation) whose premises hold and conclusion
    fails, or None, and (trials, engaged, vacuous, uncertified,
    budget exhausted)."""
    schema = POSTULATES[postulate]
    oracle = catalog_oracle(logic)
    spent = engaged = vacuous = uncertified = 0
    for values in itertools.product(list(_concept_candidates(shape)),
                                    repeat=len(schema.metavars)):
        subst = dict(zip(schema.metavars, values))
        if schema.validity is not None:
            kind, lvar, rvar = schema.validity
            if not oracle(kind, subst[lvar], subst[rvar]):
                uncertified += 1
                continue
        premises, conclusion = schema.premises(subst), schema.conclusion(subst)
        for n in range(1, max_n + 1):
            for interp in ref_interpretations(logic, shape.atoms, shape.roles, (), n, q):
                if spent == budget:
                    return None, (spent, engaged, vacuous, uncertified, True)
                spent += 1
                if not all(p.cmp.apply(ref_axiom_degree(interp, p), p.threshold)
                           for p in premises):
                    vacuous += 1
                    continue
                engaged += 1
                if not conclusion.cmp.apply(ref_axiom_degree(interp, conclusion),
                                            conclusion.threshold):
                    return (subst, interp), (spent, engaged, vacuous, uncertified, False)
    return None, (spent, engaged, vacuous, uncertified, False)


@settings(max_examples=40, deadline=None)
@given(postulate=st.sampled_from(sorted(POSTULATES)), logic=st.sampled_from(list(LogicFamily)),
       shape=st.sampled_from([ShapeBound(("P1", "P2"), (), 0), ShapeBound(("P1",), ("r",), 0),
                              ShapeBound(("P1",), (), 1)]),
       max_n=st.integers(1, 2), q=st.integers(1, 2), budget=st.integers(1, 400))
def test_exhaustive_mode_is_the_brute_force(postulate, logic, shape, max_n, q, budget):
    verdict = search_counterexample(postulate, logic, shape, max_domain_size=max_n,
                                    denominator=q, trials=budget, exhaustive=True)
    witness, counts = ref_exhaustive(postulate, logic, shape, max_n, q, budget)
    s = verdict.stats
    assert (s.trials, s.engaged, s.vacuous, s.uncertified, s.budget_exhausted) == counts
    if witness is None:
        assert isinstance(verdict, HoldsWithinBounds)
    else:
        assert isinstance(verdict, Violated)
        assert (verdict.check.substitution, verdict.interp) == witness


def render(verdict) -> list[str]:
    """The search counts, then any witness in the shape of the klm-test
    records."""
    s = verdict.stats
    lines = [f"stats {s.trials} {s.engaged} {s.vacuous} {s.uncertified} {s.budget_exhausted}"]
    if isinstance(verdict, Violated):
        c = verdict.check
        lines += [f"subst {var} {concept_to_text(x)}" for var, x in sorted(c.substitution.items())]
        lines += [f"premise {p} {d}" for p, d in zip(c.premises, c.premise_degrees)]
        lines += [f"conclusion {c.conclusion} {c.conclusion_degree}"]
        lines += [f"cm {line}" for line in serialize_interpretation(verdict.interp).splitlines()]
    return lines


#: (postulate, family, depth, max domain, q, trials, seed, exhaustive,
#: roles) and the rendered verdict, recorded when every trial still
#: built an interpretation.  The benchmark sums these counts but never
#: compares them, so a changed draw order, forcing rule or enumeration
#: order shows up here first.
GOLDEN = [
    (('AND1', 'zadeh', 2, 5, 6, 400, 3, False, ()), [
        'stats 400 153 247 0 False',
    ]),
    (('CM1', 'product', 2, 5, 6, 300, 4, False, ()), [
        'stats 300 143 157 0 False',
    ]),
    (('REFL1', 'product', 2, 5, 6, 3000, 7, False, ()), [
        'stats 1 1 0 0 False',
        'subst C P3',
        'conclusion T(P3) <= P3 >= 1 2/3',
        'cm domain e0 e1 e2',
        'cm concept P2 e0 2/3',
        'cm concept P3 e2 2/3',
    ]),
    (('CM0', 'godel', 2, 3, 4, 20000, 0, False, ()), [
        'stats 736 448 288 0 False',
        'subst A P3',
        'subst C P2',
        'subst D P1',
        'premise T(P3) <= P1 > 0 1/4',
        'premise T(P3) <= P2 > 0 1/2',
        'conclusion T((and P3 P1)) <= P2 > 0 0',
        'cm domain e0 e1',
        'cm concept P1 e0 1/4',
        'cm concept P1 e1 1/4',
        'cm concept P2 e1 1/2',
        'cm concept P3 e0 1/4',
        'cm concept P3 e1 1/2',
    ]),
    (('OR1', 'lukasiewicz', 0, 3, 4, 20000, 0, False, ()), [
        'stats 16 8 8 0 False',
        'subst A P2',
        'subst B P2',
        'subst C P1',
        'premise T(P2) <= P1 >= 1 1',
        'premise T(P2) <= P1 >= 1 1',
        'conclusion T((or P2 P2)) <= P1 >= 1 1/2',
        'cm domain e0 e1 e2',
        'cm concept P1 e0 1/2',
        'cm concept P1 e1 1',
        'cm concept P1 e2 1',
        'cm concept P2 e0 1/2',
        'cm concept P2 e1 3/4',
        'cm concept P2 e2 3/4',
        'cm concept P3 e0 1/4',
        'cm concept P3 e1 1',
    ]),
    (('LLE1', 'zadeh', 2, 5, 6, 300, 2, False, ()), [
        'stats 300 195 105 0 False',
    ]),
    (('CMSTAR', 'godel', 2, 4, 5, 400, 5, False, ()), [
        'stats 400 179 221 0 False',
    ]),
    (('RW0', 'lukasiewicz', 2, 3, 4, 300, 6, False, ()), [
        'stats 300 187 113 0 False',
    ]),
    (('REFL1', 'godel', 2, 1, 2, 500, 0, True, ()), [
        'stats 2 2 0 0 False',
        'subst C P1',
        'conclusion T(P1) <= P1 >= 1 1/2',
        'cm domain e0',
        'cm concept P1 e0 1/2',
    ]),
    (('LLE1', 'zadeh', 1, 2, 2, 3000, 0, True, ()), [
        'stats 3000 1002 1998 11820 True',
    ]),
    (('CM0', 'godel', 0, 2, 2, 40000, 0, True, ()), [
        'stats 5658 3706 1952 0 False',
        'subst A P1',
        'subst C P2',
        'subst D P3',
        'premise T(P1) <= P3 > 0 1/2',
        'premise T(P1) <= P2 > 0 1/2',
        'conclusion T((and P1 P3)) <= P2 > 0 0',
        'cm domain e0 e1',
        'cm concept P1 e0 1',
        'cm concept P1 e1 1/2',
        'cm concept P2 e0 1/2',
        'cm concept P3 e0 1/2',
        'cm concept P3 e1 1/2',
    ]),
    (('CM0', 'product', 2, 3, 4, 3000, 1, False, ()), [
        'stats 302 186 116 0 False',
        'subst A (or (or P3 P2) P1)',
        'subst C (not (not P2))',
        'subst D P1',
        'premise T((or (or P3 P2) P1)) <= P1 > 0 1/4',
        'premise T((or (or P3 P2) P1)) <= (not (not P2)) > 0 1',
        'conclusion T((and (or (or P3 P2) P1) P1)) <= (not (not P2)) > 0 0',
        'cm domain e0 e1 e2',
        'cm concept P1 e0 3/4',
        'cm concept P1 e1 1/2',
        'cm concept P1 e2 1/4',
        'cm concept P2 e2 1/2',
        'cm concept P3 e0 1/4',
        'cm concept P3 e1 1/2',
        'cm concept P3 e2 3/4',
    ]),
    (('AND0', 'godel', 2, 3, 3, 300, 8, False, ('r',)), [
        'stats 300 194 106 0 False',
    ]),
    (('CM0', 'zadeh', 1, 3, 3, 3000, 9, False, ('r',)), [
        'stats 41 28 13 0 False',
        'subst A P3',
        'subst C P2',
        'subst D (not P3)',
        'premise T(P3) <= (not P3) > 0 1/3',
        'premise T(P3) <= P2 > 0 1/3',
        'conclusion T((and P3 (not P3))) <= P2 > 0 0',
        'cm domain e0 e1 e2',
        'cm concept P1 e0 2/3',
        'cm concept P1 e2 2/3',
        'cm concept P2 e1 1/3',
        'cm concept P2 e2 1/3',
        'cm concept P3 e0 1/3',
        'cm concept P3 e1 2/3',
        'cm role r e0 e1 1/3',
        'cm role r e1 e1 2/3',
        'cm role r e1 e2 1/3',
        'cm role r e2 e1 2/3',
    ]),
]


@pytest.mark.parametrize("cell, expected", GOLDEN,
                         ids=[f"{c[0]}-{c[1]}-{'exhaustive' if c[7] else c[6]}"
                              for c, _ in GOLDEN])
def test_search_results_are_pinned(cell, expected):
    postulate, family, depth, n, q, trials, seed, exhaustive, roles = cell
    verdict = search_counterexample(postulate, LogicFamily(family),
                                    ShapeBound(roles=roles, max_depth=depth),
                                    max_domain_size=n, denominator=q, trials=trials,
                                    seed=seed, exhaustive=exhaustive)
    assert render(verdict) == expected


@pytest.mark.parametrize("logic", list(LogicFamily), ids=str)
@pytest.mark.parametrize("postulate", sorted(POSTULATES))
def test_trial_check_agrees_with_check_instance(postulate, logic):
    """Each drawn (and, every second trial, forced) trial's result on
    grid digits equals check_instance on the same digits built into an
    interpretation."""
    schema = POSTULATES[postulate]
    oracle = catalog_oracle(logic)
    for seed, max_n, q, roles in ((0, 3, 2, ()), (1, 4, 3, ()), (2, 3, 6, ("r",))):
        shape = ShapeBound(roles=roles)
        sig = EnumSignature(shape.atoms, shape.roles)
        trials = _random_trials(random.Random(seed), schema, shape, logic, sig, max_n, q, 40)
        for n, atoms, role_digits, subst, question in trials:
            interp = interpretation_of_digits(sig, logic, n, q, atoms, role_digits, {})
            check = check_instance(interp, schema, oracle, **subst)
            outcome, = question.test(n, atoms, role_digits, {})
            fast = (outcome != NOT_A_MODEL, outcome != COUNTER)
            assert fast == (not check.vacuous, check.holds), subst


@pytest.mark.parametrize("postulate", ["LLE1", "RW0"])
def test_premise_catalog_is_built_once_per_search(monkeypatch, postulate):
    # once for the search's oracle, once for the trials' draws, however
    # many trials there are
    import fuzzytyp.postulates as postulates
    calls = []

    def counted(logic):
        calls.append(logic)
        return valid_premise_catalog(logic)

    monkeypatch.setattr(postulates, "valid_premise_catalog", counted)
    for trials in (5, 200):
        calls.clear()
        search_counterexample(postulate, GODEL, trials=trials, seed=3)
        assert calls == [GODEL, GODEL]


def test_a_witness_check_instance_rejects_is_an_internal_error(monkeypatch, capsys):
    # AND1 holds in Godel, so no trial check_instance re-checks can be
    # a violation
    monkeypatch.setattr(Question, "test", lambda self, *args: [COUNTER])
    with pytest.raises(InternalCheckError):
        search_counterexample("AND1", GODEL, trials=10)
    code = cli.main(["klm-test", "--postulate", "AND1", "--logic", "godel", "--trials", "10"])
    assert code == cli.EXIT_INTERNAL
    assert "internal error: InternalCheckError" in capsys.readouterr().err


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
