"""Data-model invariants: typicality nesting, thresholds, validation."""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from fuzzytyp.algebra import LogicFamily
from fuzzytyp.parser import parse_interpretation, parse_kb
from fuzzytyp.syntax import (
    And,
    Atomic,
    BOTTOM,
    Cmp,
    ConceptAssertion,
    Exists,
    Inclusion,
    KBSyntaxError,
    NestedTypicalityError,
    Not,
    NUMBER,
    Or,
    RoleAssertion,
    ThresholdRangeError,
    TOP,
    Typ,
    WeightedKB,
    WeightedTypicalityInclusion,
    concept_names,
    concept_to_text,
    contains_typ,
    parse_integer,
    parse_number,
    role_names,
    validate_kb,
)

A, B, C = Atomic("A"), Atomic("B"), Atomic("C")


class TestConcepts:
    def test_direct_nesting_rejected(self):
        with pytest.raises(NestedTypicalityError):
            Typ(Typ(A))

    def test_deep_nesting_rejected(self):
        with pytest.raises(NestedTypicalityError):
            Typ(And(A, Or(B, Typ(C))))

    def test_single_typ_allowed(self):
        t = Typ(And(A, B))
        assert contains_typ(t)
        assert not contains_typ(t.sub)

    def test_typ_under_negation_rejected(self):
        with pytest.raises(NestedTypicalityError):
            Typ(Not(Typ(A)))

    def test_typ_over_a_deep_chain(self):
        # built through the API, so no parser nesting limit applies;
        # the nesting check must not recurse once per level
        chain = A
        for _ in range(5000):
            chain = Not(chain)
        assert not contains_typ(chain)
        assert Typ(chain).sub is chain
        with pytest.raises(NestedTypicalityError):
            Typ(And(chain, Exists("r", Typ(B))))

    def test_names_and_validation_of_a_deep_chain(self):
        # 5000 levels built through the API: the name walks and
        # validation must not recurse once per level
        chain = Exists("r", A)
        for _ in range(5000):
            chain = Not(chain)
        assert concept_names(chain) == {"A"}
        assert role_names(chain) == {"r"}
        kb = WeightedKB(logic=LogicFamily.GODEL, concepts=("A",), roles=("r",),
                        tbox=(Inclusion(chain, TOP, Cmp.GE, F(1)),))
        assert validate_kb(kb) == []
        bad = WeightedKB(logic=LogicFamily.GODEL, concepts=("B",),
                         tbox=(Inclusion(chain, TOP, Cmp.GE, F(1)),))
        assert [v.message for v in validate_kb(bad)] == [
            "undeclared concept name 'A'", "undeclared role name 'r'"]

    def test_serialization_shapes(self):
        c = Exists("r", And(A, Typ(Or(B, TOP))))
        assert concept_to_text(c) == "(some r (and A T((or B Top))))"
        assert concept_to_text(BOTTOM) == "Bot"


class TestAxioms:
    def test_threshold_range_enforced(self):
        with pytest.raises(ThresholdRangeError):
            Inclusion(A, B, Cmp.GE, F(3, 2))
        with pytest.raises(ThresholdRangeError):
            ConceptAssertion(A, "a", Cmp.LE, F(-1, 2))
        with pytest.raises(ThresholdRangeError):
            RoleAssertion("r", "a", "b", Cmp.GT, F(2))

    def test_boundary_thresholds_allowed(self):
        Inclusion(A, B, Cmp.GE, F(0))
        Inclusion(A, B, Cmp.LE, F(1))


def small_kb(**overrides) -> WeightedKB:
    fields = dict(
        logic=LogicFamily.GODEL,
        concepts=("A", "B", "C"),
        roles=("r",),
        individuals=("a",),
        distinguished=("A",),
        tbox=(Inclusion(A, B, Cmp.GE, F(1)),),
        abox=(ConceptAssertion(B, "a", Cmp.GT, F(0)),),
        wtbox={"A": (WeightedTypicalityInclusion("A", B, F(2)),)},
    )
    fields.update(overrides)
    return WeightedKB(**fields)


class TestValidation:
    def test_valid_kb_has_empty_report(self):
        assert validate_kb(small_kb()) == []

    def test_distinguished_gets_implicit_empty_table(self):
        kb = small_kb(distinguished=("A", "B"), wtbox={})
        assert kb.weighted_inclusions("B") == ()
        assert validate_kb(kb) == []

    def test_typ_in_weighted_consequent_is_one_violation(self):
        kb = small_kb(wtbox={"A": (WeightedTypicalityInclusion("A", Typ(B), F(1)),)})
        report = validate_kb(kb)
        assert len(report) == 1
        assert "typicality" in report[0].message
        assert report[0].path == "wtbox[A][0]"

    def test_subject_not_distinguished_is_a_violation(self):
        kb = small_kb(wtbox={
            "A": (WeightedTypicalityInclusion("A", B, F(2)),),
            "B": (WeightedTypicalityInclusion("B", C, F(1)),),
        })
        report = validate_kb(kb)
        assert [v.path for v in report] == ["wtbox[B][0]"]
        assert "not distinguished" in report[0].message

    def test_undeclared_names_reported_with_paths(self):
        kb = small_kb(tbox=(Inclusion(Atomic("Ghost"), B, Cmp.GE, F(1)),),
                      abox=(ConceptAssertion(B, "nobody", Cmp.GT, F(0)),))
        report = validate_kb(kb)
        messages = {v.path: v.message for v in report}
        assert "undeclared concept name 'Ghost'" in messages["tbox[0]"]
        assert "undeclared individual 'nobody'" in messages["abox[0]"]

    def test_undeclared_role_in_concept(self):
        kb = small_kb(tbox=(Inclusion(Exists("s", B), B, Cmp.GE, F(1)),))
        report = validate_kb(kb)
        assert any("undeclared role name 's'" in v.message for v in report)


class TestNumberGrammar:
    GOOD = [("0", F(0)), ("+1", F(1)), ("-3/6", F(-1, 2)), ("0.25", F(1, 4)), ("007", F(7))]
    BAD = ["1e5", ".5", "5.", "1_0/2_0", "0e10000000", "\u0663", "1/0", "1.5/2", "inf",
           " 1", "1 ", "1/-2", "--1", "0x10", "1" * 5000]

    @pytest.mark.parametrize("text, value", GOOD)
    def test_literals(self, text, value):
        assert parse_number(text) == value

    @given(st.from_regex(NUMBER, fullmatch=True))
    def test_every_literal_reads_as_fraction_reads_it(self, text):
        try:
            expected = F(text.lstrip("+"))
        except (ValueError, ZeroDivisionError):  # 1.5/2, 1/0
            with pytest.raises(KBSyntaxError):
                parse_number(text)
        else:
            assert parse_number(text) == expected

    @pytest.mark.parametrize("text", BAD)
    def test_anything_else_is_a_syntax_error(self, text):
        with pytest.raises(KBSyntaxError, match="bad number"):
            parse_number(text, 3, 7)

    @pytest.mark.parametrize("text", BAD[:6])
    def test_kb_and_interpretation_files_reject_the_same_words(self, text):
        with pytest.raises(KBSyntaxError):
            parse_kb(f"logic godel\nconcepts A\ntbox:\nA <= A >= {text}\n")
        with pytest.raises(KBSyntaxError):
            parse_interpretation(f"domain e0\nconcept A e0 {text}\n", LogicFamily.GODEL)

    def test_integers_are_signed_digits(self):
        assert [parse_integer(t) for t in ("12", "+1", "-1", "007")] == [12, 1, -1, 7]
        for text in ("1.0", "1/1", "1_0", "\u0663", "", " 1", "1e2"):
            with pytest.raises(KBSyntaxError, match="bad integer"):
                parse_integer(text)
        with pytest.raises(KBSyntaxError, match="bad number"):
            parse_integer("1" * 5000)  # more digits than int() converts
