"""Text-format tests: the bird/penguin fixture, error reporting, and
round-trip identity (example-based and property-based)."""

from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fuzzytyp.algebra import LogicFamily
from fuzzytyp.parser import (
    parse_axiom,
    parse_concept,
    parse_interpretation,
    parse_kb,
    serialize_interpretation,
    serialize_kb,
)
from fuzzytyp.syntax import (
    And,
    Atomic,
    BOTTOM,
    Cmp,
    ConceptAssertion,
    Exists,
    Forall,
    Inclusion,
    KBSyntaxError,
    NestedTypicalityError,
    Not,
    Or,
    RoleAssertion,
    ThresholdRangeError,
    TOP,
    Typ,
    UndeclaredNameError,
    WeightedKB,
    WeightedTypicalityInclusion,
    validate_kb,
)

DATA = Path(__file__).parent / "data"
PENGUIN_TEXT = (DATA / "penguin.fkb").read_text()


@pytest.fixture(scope="module")
def penguin():
    return parse_kb(PENGUIN_TEXT)


class TestPenguinFixture:
    def test_shape(self, penguin):
        assert penguin.logic is LogicFamily.GODEL
        assert penguin.distinguished == ("Bird", "Penguin", "Canary")
        assert len(penguin.tbox) == 3
        assert penguin.abox == ()
        assert validate_kb(penguin) == []

    def test_weights_in_listed_order(self, penguin):
        weights = [incl.weight
                   for name in penguin.distinguished
                   for incl in penguin.wtbox[name]]
        assert weights == [F(20), F(50), F(50), F(100), F(-70), F(50),
                           F(100), F(30), F(20)]

    def test_strict_disjointness_axioms(self, penguin):
        for ax in penguin.tbox:
            assert ax.rhs == BOTTOM
            assert ax.cmp is Cmp.GE and ax.threshold == F(1)

    def test_roundtrip(self, penguin):
        again = parse_kb(serialize_kb(penguin))
        assert again == penguin

    def test_negative_weight_survives_serialization(self, penguin):
        assert "-70" in serialize_kb(penguin)


class TestParseErrors:
    def test_nested_typicality_in_wtbox(self):
        text = ("logic godel\nconcepts Bird Fly\ndistinguished Bird\n"
                "wtbox Bird:\nT(T(Bird)) <= Fly @ 10\n")
        with pytest.raises(NestedTypicalityError):
            parse_kb(text)

    def test_nested_typicality_in_tbox(self):
        text = "logic godel\nconcepts A B\ntbox:\nT((and A T(B))) <= B >= 1\n"
        with pytest.raises(NestedTypicalityError):
            parse_kb(text)

    def test_typ_in_weighted_consequent(self):
        text = ("logic godel\nconcepts Bird Fly\ndistinguished Bird\n"
                "wtbox Bird:\nT(Bird) <= T(Fly) @ 10\n")
        with pytest.raises(KBSyntaxError, match="consequent"):
            parse_kb(text)

    def test_threshold_out_of_range(self):
        with pytest.raises(ThresholdRangeError):
            parse_kb("logic godel\nconcepts A B\ntbox:\nA <= B >= 1.5\n")

    def test_negative_threshold(self):
        with pytest.raises(ThresholdRangeError):
            parse_kb("logic godel\nconcepts A B\ntbox:\nA <= B > -1/2\n")

    def test_undeclared_concept(self):
        with pytest.raises(UndeclaredNameError, match="Ghost"):
            parse_kb("logic godel\nconcepts A\ntbox:\nA <= Ghost >= 1\n")

    def test_undeclared_individual(self):
        with pytest.raises(UndeclaredNameError, match="tom"):
            parse_kb("logic godel\nconcepts A\nabox:\nA(tom) >= 1\n")

    def test_wtbox_for_non_distinguished(self):
        text = ("logic godel\nconcepts A B\ndistinguished A\n"
                "wtbox B:\nT(B) <= A @ 1\n")
        with pytest.raises(UndeclaredNameError, match="distinguished"):
            parse_kb(text)

    def test_distinguished_must_be_declared(self):
        with pytest.raises(UndeclaredNameError):
            parse_kb("logic godel\nconcepts A\ndistinguished Ghost\ntbox:\nA <= A >= 1\n")

    def test_syntax_error_carries_position(self):
        with pytest.raises(KBSyntaxError) as err:
            parse_kb("logic godel\nconcepts A B\ntbox:\nA <= B >= >=\n")
        assert err.value.line == 4
        assert err.value.col is not None

    def test_missing_logic_line(self):
        with pytest.raises(KBSyntaxError, match="logic"):
            parse_kb("concepts A\n")

    def test_bad_comparator(self):
        with pytest.raises(KBSyntaxError, match="comparator"):
            parse_kb("logic godel\nconcepts A B\ntbox:\nA <= B @ 1\n")

    def test_unknown_character(self):
        with pytest.raises(KBSyntaxError, match="unexpected character"):
            parse_kb("logic godel\nconcepts A B\ntbox:\nA <= B = 1\n")


class TestEmptyAndSmall:
    def test_empty_sections_kb(self):
        kb = parse_kb("logic zadeh\nconcepts A\n")
        assert kb.concepts == ("A",)
        assert kb.tbox == () and kb.abox == () and kb.wtbox == {}

    def test_empty_kb_serializes_to_header_lines_only(self):
        kb = WeightedKB(logic=LogicFamily.ZADEH, concepts=("A",))
        text = serialize_kb(kb)
        assert text == "logic zadeh\nconcepts A\n"

    def test_header_line_with_inline_first_entry(self):
        kb = parse_kb("logic godel\nconcepts A B\ntbox: A <= B >= 1/2\n")
        assert kb.tbox == (Inclusion(Atomic("A"), Atomic("B"), Cmp.GE, F(1, 2)),)

    def test_comments_and_blank_lines_ignored(self):
        kb = parse_kb("# intro\nlogic godel\n\nconcepts A  # trailing\n")
        assert kb.concepts == ("A",)


class TestAxiomAndConceptParsing:
    def test_parse_concept(self, penguin):
        c = parse_concept("(some has_Wings (and Bird (not Yellow)))", penguin)
        assert c == Exists("has_Wings", And(Atomic("Bird"), Not(Atomic("Yellow"))))

    def test_parse_inclusion_axiom(self, penguin):
        ax = parse_axiom("T(Penguin) <= Fly >= 0.9", penguin)
        assert ax == Inclusion(Typ(Atomic("Penguin")), Atomic("Fly"), Cmp.GE, F(9, 10))

    def test_parse_concept_assertion(self):
        kb = parse_kb("logic godel\nconcepts A B\nindividuals tom\n")
        ax = parse_axiom("(and A B)(tom) > 0", kb)
        assert ax == ConceptAssertion(And(Atomic("A"), Atomic("B")), "tom", Cmp.GT, F(0))

    def test_parse_role_assertion(self):
        kb = parse_kb("logic godel\nconcepts A\nroles r\nindividuals a b\n")
        ax = parse_axiom("r(a,b) >= 1/3", kb)
        assert ax == RoleAssertion("r", "a", "b", Cmp.GE, F(1, 3))


class TestInterpretationFormat:
    def test_fixture_roundtrip(self, penguin):
        text = (DATA / "penguin.fint").read_text()
        interp = parse_interpretation(text, penguin.logic, penguin)
        again = parse_interpretation(serialize_interpretation(interp),
                                     penguin.logic, penguin)
        assert again == interp

    def test_duplicate_entry_rejected(self):
        text = "domain a\nconcept A a 1\nconcept A a 1/2\n"
        with pytest.raises(KBSyntaxError, match="duplicate"):
            parse_interpretation(text, LogicFamily.GODEL)

    def test_element_outside_domain(self):
        with pytest.raises(UndeclaredNameError, match="domain"):
            parse_interpretation("domain a\nconcept A b 1\n", LogicFamily.GODEL)

    def test_degree_out_of_range(self):
        with pytest.raises(ThresholdRangeError):
            parse_interpretation("domain a\nconcept A a 9/8\n", LogicFamily.GODEL)

    def test_unbound_individual_with_kb(self):
        kb = parse_kb("logic godel\nconcepts A\nindividuals tom\n")
        with pytest.raises(UndeclaredNameError, match="unbound"):
            parse_interpretation("domain a\n", kb.logic, kb)

    def test_missing_entries_default_to_zero(self):
        kb = parse_kb("logic godel\nconcepts A B\n")
        interp = parse_interpretation("domain a\nconcept A a 1\n", kb.logic, kb)
        assert interp.concept_degree("B", "a") == F(0)


# ---------------------------------------------------------------------------
# Property-based round trip over generated KBs
# ---------------------------------------------------------------------------

names = st.sampled_from(["Bird", "Fish", "Heavy", "Fast", "Calm"])
role_names_st = st.sampled_from(["eats", "sees"])
ind_names = st.sampled_from(["tom", "ada"])
degrees = st.fractions(min_value=0, max_value=1, max_denominator=20)
weights = st.fractions(min_value=-100, max_value=100, max_denominator=10)
comparators = st.sampled_from(list(Cmp))


def concepts_strategy(allow_typ: bool):
    base = st.one_of(names.map(Atomic), st.just(TOP), st.just(BOTTOM))
    tree = st.recursive(
        base,
        lambda sub: st.one_of(
            sub.map(Not),
            st.tuples(sub, sub).map(lambda p: And(*p)),
            st.tuples(sub, sub).map(lambda p: Or(*p)),
            st.tuples(role_names_st, sub).map(lambda p: Exists(*p)),
            st.tuples(role_names_st, sub).map(lambda p: Forall(*p)),
        ),
        max_leaves=4,
    )
    if allow_typ:
        return st.one_of(tree, tree.map(Typ))
    return tree


@st.composite
def kbs(draw):
    logic = draw(st.sampled_from(list(LogicFamily)))
    distinguished = draw(st.lists(names, unique=True, min_size=0, max_size=2))
    tbox = tuple(draw(st.lists(
        st.builds(Inclusion, concepts_strategy(True), concepts_strategy(True),
                  comparators, degrees),
        max_size=3)))
    abox = tuple(draw(st.lists(
        st.one_of(
            st.builds(ConceptAssertion, concepts_strategy(True), ind_names,
                      comparators, degrees),
            st.builds(RoleAssertion, role_names_st, ind_names, ind_names,
                      comparators, degrees)),
        max_size=2)))
    wtbox = {
        name: tuple(draw(st.lists(
            st.builds(lambda c, w, name=name: WeightedTypicalityInclusion(name, c, w),
                      concepts_strategy(False), weights),
            max_size=3)))
        for name in distinguished
    }
    return WeightedKB(
        logic=logic,
        concepts=("Bird", "Fish", "Heavy", "Fast", "Calm"),
        roles=("eats", "sees"),
        individuals=("tom", "ada"),
        distinguished=tuple(distinguished),
        tbox=tbox,
        abox=abox,
        wtbox=wtbox,
    )


@settings(max_examples=150, deadline=None)
@given(kbs())
def test_serialize_parse_roundtrip(kb):
    assert validate_kb(kb) == []
    assert parse_kb(serialize_kb(kb)) == kb


@settings(max_examples=150, deadline=None)
@given(kbs())
def test_parse_axiom_reads_back_every_printed_axiom(kb):
    # inclusions, concept assertions and role assertions all go through
    # the same body rules as .fkb lines
    for ax in kb.tbox + kb.abox:
        assert parse_axiom(str(ax), kb) == ax
