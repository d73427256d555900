"""Network-to-KB translation, exact forward passes, and the
faithfulness check over stimulus-induced interpretations.

The integer forward pass is checked against ``oracle.ref_forward_pass``,
one stimulus at a time on Fractions, on random nets with skip synapses,
bias units, zero weights and every activation."""

import contextlib
import io
import random
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fuzzytyp.mlp import (
    Activation,
    FeedForwardNet,
    NetError,
    StimulusSet,
    Synapse,
    Unit,
    build_interpretation,
    forward_pass,
    mlp_to_kb,
    parse_net,
    parse_stimuli,
    serialize_net,
    serialize_stimuli,
    unit_name,
    verify_network_faithfulness,
)
from fuzzytyp.cli import main
from fuzzytyp.parser import MAX_UNITS, RESERVED
from fuzzytyp.syntax import Atomic, KBSyntaxError, validate_kb
from fuzzytyp.weighted import weight_table
from oracle import ref_forward_pass

HS = Activation.HARD_SIGMOID


def dense_net(sizes: list[int], weights, activation=HS) -> FeedForwardNet:
    """Fully connected net; ``weights`` yields one Fraction per edge."""
    units = [Unit(unit_name(layer, i), layer, None if layer == 0 else activation)
             for layer, size in enumerate(sizes) for i in range(size)]
    synapses = []
    for layer in range(1, len(sizes)):
        for i in range(sizes[layer - 1]):
            for j in range(sizes[layer]):
                synapses.append(Synapse(unit_name(layer - 1, i),
                                        unit_name(layer, j), next(weights)))
    return FeedForwardNet(tuple(units), tuple(synapses))


def const_weights(value):
    while True:
        yield value


def values_on(net: FeedForwardNet, vector: tuple) -> dict:
    """Every unit's activation on one input vector, by one forward pass
    over a one-stimulus set."""
    forward = forward_pass(net, StimulusSet(("s",), (vector,)))
    return {name: column[0] for name, column in forward.activations.items()}


class TestActivations:
    def test_hard_sigmoid_clips(self):
        assert HS(F(3)) == F(1)
        assert HS(F(0)) == F(1, 2)
        assert HS(F(-3)) == F(0)
        assert HS(F(1)) == F(2, 3)

    def test_clipped_linear(self):
        act = Activation.CLIPPED_LINEAR
        assert act(F(-1)) == F(0)
        assert act(F(1, 3)) == F(1, 3)
        assert act(F(5)) == F(1)

    def test_step(self):
        act = Activation.STEP
        assert act(F(0)) == F(1)
        assert act(F(-1, 100)) == F(0)


class TestTranslation:
    def test_incoming_synapses_become_weighted_inclusions(self):
        net = FeedForwardNet(
            units=(Unit("h1", 0, None), Unit("h2", 0, None), Unit("i", 1, HS)),
            synapses=(Synapse("h1", "i", F(2)), Synapse("h2", "i", F(-1))))
        kb = mlp_to_kb(net)
        assert kb.distinguished == ("i",)
        table = kb.wtbox["i"]
        assert [(t.consequent, t.weight) for t in table] == [
            (Atomic("h1"), F(2)), (Atomic("h2"), F(-1))]

    def test_input_only_net_has_no_distinguished_concepts(self):
        net = FeedForwardNet(units=(Unit("x", 0, None), Unit("y", 0, None)),
                             synapses=())
        kb = mlp_to_kb(net)
        assert kb.distinguished == ()
        assert kb.concepts == ("x", "y")

    def test_dense_221_counts(self):
        net = dense_net([2, 2, 1], const_weights(F(1)))
        kb = mlp_to_kb(net)
        assert len(kb.distinguished) == 3
        assert sum(len(t) for t in kb.wtbox.values()) == 6

    def test_translation_validates(self):
        net = dense_net([2, 3, 1], const_weights(F(-7, 3)))
        assert validate_kb(mlp_to_kb(net)) == []


class TestForwardPass:
    def test_input_passthrough(self):
        net = FeedForwardNet(units=(Unit("x", 0, None),), synapses=())
        values = values_on(net, (F(8, 10),))
        assert values == {"x": F(8, 10)}

    def test_zero_weight_net_gives_half_everywhere(self):
        net = dense_net([2, 3, 1], const_weights(F(0)))
        values = values_on(net, (F(0), F(0)))
        for unit in net.non_input_units():
            assert values[unit.name] == F(1, 2)

    def test_saturating_input(self):
        net = FeedForwardNet(
            units=(Unit("x", 0, None), Unit("h", 1, HS)),
            synapses=(Synapse("x", "h", F(6)),))
        assert values_on(net, (F(1, 2),))["h"] == F(1)

    def test_bias_unit_pins_one(self):
        net = FeedForwardNet(
            units=(Unit("x", 0, None), Unit("b", 0, None), Unit("h", 1, HS)),
            synapses=(Synapse("x", "h", F(0)), Synapse("b", "h", F(3))),
            bias_unit="b")
        assert values_on(net, (F(0),))["h"] == F(1)

    def test_dimension_mismatch(self):
        net = dense_net([2, 2, 1], const_weights(F(1)))
        with pytest.raises(NetError, match="components"):
            forward_pass(net, StimulusSet(("s",), ((F(1),),)))


class TestNetValidation:
    def test_backward_synapse_rejected(self):
        with pytest.raises(NetError, match="forward"):
            FeedForwardNet(
                units=(Unit("x", 0, None), Unit("h", 1, HS)),
                synapses=(Synapse("h", "x", F(1)),))

    def test_intra_layer_synapse_rejected(self):
        with pytest.raises(NetError, match="forward"):
            FeedForwardNet(
                units=(Unit("h1", 1, HS), Unit("h2", 1, HS), Unit("x", 0, None)),
                synapses=(Synapse("h1", "h2", F(1)),))

    def test_input_with_activation_rejected(self):
        with pytest.raises(NetError):
            FeedForwardNet(units=(Unit("x", 0, HS),), synapses=())

    def test_empty_stimulus_set_rejected(self):
        with pytest.raises(NetError, match="nonempty"):
            StimulusSet((), ())

    def test_component_outside_unit_interval_rejected(self):
        with pytest.raises(NetError):
            StimulusSet(("s",), ((F(3, 2),),))


class TestInducedInterpretation:
    def test_degrees_are_activations(self):
        net = dense_net([1, 1], const_weights(F(6)))
        stimuli = StimulusSet(("lo", "hi"), ((F(0),), (F(1, 2),)))
        interp = build_interpretation(net, stimuli)
        assert interp.domain == ("lo", "hi")
        assert interp.concept_degree(unit_name(0, 0), "hi") == F(1, 2)
        assert interp.concept_degree(unit_name(1, 0), "lo") == F(1, 2)
        assert interp.concept_degree(unit_name(1, 0), "hi") == F(1)

    def test_all_degrees_in_unit_interval(self):
        rng = random.Random(11)
        net = dense_net([2, 3, 1],
                        (F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in iter(int, 1)))
        stimuli = StimulusSet(
            tuple(f"s{i}" for i in range(6)),
            tuple((F(rng.randint(0, 12), 12), F(rng.randint(0, 12), 12))
                  for _ in range(6)))
        interp = build_interpretation(net, stimuli)
        for (name, elem), d in interp.concept_val.items():
            assert isinstance(d, F) and F(0) <= d <= F(1)


class TestFaithfulness:
    @pytest.mark.parametrize("activation", list(Activation))
    def test_random_nets_are_faithful(self, activation):
        rng = random.Random(hash(activation.value) % 1000)
        for _ in range(15):
            weights = (F(rng.randint(-10, 10), rng.randint(1, 5))
                       for _ in iter(int, 1))
            net = dense_net([2, 3, 1], weights, activation)
            stimuli = StimulusSet(
                tuple(f"s{i}" for i in range(8)),
                tuple((F(rng.randint(0, 10), 10), F(rng.randint(0, 10), 10))
                      for _ in range(8)))
            report = verify_network_faithfulness(net, stimuli)
            assert report.faithful, report.fm_report.faithfulness_violations

    def test_single_stimulus_is_trivially_faithful(self):
        net = dense_net([2, 2, 1], const_weights(F(1)))
        stimuli = StimulusSet(("only",), ((F(1, 3), F(2, 3)),))
        assert verify_network_faithfulness(net, stimuli).faithful

    def test_weights_table_equals_net_inputs(self):
        # the element weight for a unit's concept is exactly the unit's
        # net input on that stimulus
        net = FeedForwardNet(
            units=(Unit("x", 0, None), Unit("y", 0, None), Unit("h", 1, HS)),
            synapses=(Synapse("x", "h", F(2)), Synapse("y", "h", F(-1))))
        stimuli = StimulusSet(("s",), ((F(1, 2), F(1, 4)),))
        report = verify_network_faithfulness(net, stimuli)
        assert report.weights[("h", "s")] == F(2) * F(1, 2) + F(-1) * F(1, 4)


class TestFileFormats:
    NET_TEXT = """\
layers 2 2 1
activation 1 hard-sigmoid
activation 2 step
bias b
synapse u0_0 u1_0 1/2
synapse b u1_0 -1
synapse u0_1 u1_1 3
synapse u1_0 u2_0 1
synapse u1_1 u2_0 -1/4
"""

    def test_net_roundtrip(self):
        net = parse_net(self.NET_TEXT)
        assert parse_net(serialize_net(net)) == net
        assert net.bias_unit == "b"
        assert net.units[-1].name == "b"

    def test_per_layer_activations(self):
        net = parse_net(self.NET_TEXT)
        by_name = {u.name: u for u in net.units}
        assert by_name["u1_0"].activation is Activation.HARD_SIGMOID
        assert by_name["u2_0"].activation is Activation.STEP

    def test_cyclic_net_file_rejected(self):
        text = "layers 1 1\nactivation 1 step\nsynapse u1_0 u0_0 1\n"
        with pytest.raises(KBSyntaxError, match="forward"):
            parse_net(text)

    def test_unknown_activation_rejected(self):
        with pytest.raises(KBSyntaxError):
            parse_net("layers 1 1\nactivation 1 sigmoid\n")

    def test_stimuli_roundtrip(self):
        stimuli = parse_stimuli("stimulus a 1/2 0.25\nstimulus b 0 1\n")
        assert stimuli.vectors[0] == (F(1, 2), F(1, 4))
        assert parse_stimuli(serialize_stimuli(stimuli)) == stimuli

    def test_bad_stimulus_component(self):
        with pytest.raises(KBSyntaxError):
            parse_stimuli("stimulus a 3/2\n")


class TestFileNames:
    """Every name ``mlp`` writes into a .fkb or .fint file must read back,
    so ``parse_net`` and ``parse_stimuli`` reject the others at their
    line and column."""

    @pytest.mark.parametrize("name", ["s/1", "not", "Top", "1s", "s-1"])
    def test_bad_stimulus_name(self, name):
        with pytest.raises(KBSyntaxError, match=r"line 2, col 10: .*stimulus name"):
            parse_stimuli(f"stimulus ok 0\nstimulus {name} 1\n")

    @pytest.mark.parametrize("name", ["Top", "b/1", "and", "0"])
    def test_bad_bias_name(self, name):
        with pytest.raises(KBSyntaxError, match=r"line 2, col 6: .*bias unit name"):
            parse_net(f"layers 1 1\nbias {name}\nsynapse u0_0 u1_0 1\n")

    def test_good_names_pass(self):
        assert parse_stimuli("stimulus _s0 1\nstimulus concept 0\n").names == ("_s0", "concept")
        assert parse_net("layers 1 1\nbias B_1\n").bias_unit == "B_1"


class TestNetLines:
    @pytest.mark.parametrize("layer", [0, 2, 5, -1])
    def test_activation_for_a_missing_layer(self, layer):
        with pytest.raises(KBSyntaxError, match=rf"line 2, col 12: activation for layer {layer}"):
            parse_net(f"layers 1 1\nactivation {layer} step\n")

    def test_activation_before_the_layers_line(self):
        net = parse_net("activation 1 step\nlayers 1 1\n")
        assert net.units[-1].activation is Activation.STEP
        with pytest.raises(KBSyntaxError, match="line 1, col 12: activation for layer 2"):
            parse_net("activation 2 step\nlayers 1 1\n")

    def test_duplicate_activation_and_bias_lines(self):
        with pytest.raises(KBSyntaxError, match="line 3.*duplicate activation line"):
            parse_net("layers 1 1\nactivation 1 step\nactivation 1 clipped-linear\n")
        with pytest.raises(KBSyntaxError, match="line 3.*duplicate bias line"):
            parse_net("layers 1 1\nbias a\nbias b\n")

    @pytest.mark.parametrize("sizes", ["100000000 1", f"{MAX_UNITS} 1", f"1 {10 ** 40}"])
    def test_too_many_units(self, sizes):
        # rejected before any unit is built
        with pytest.raises(KBSyntaxError, match=f"line 1, col 1: more than {MAX_UNITS} units"):
            parse_net(f"layers {sizes}\n")

    def test_bias_counts_toward_the_cap(self):
        assert len(parse_net(f"layers {MAX_UNITS - 1} 1\n").units) == MAX_UNITS
        with pytest.raises(KBSyntaxError, match="more than"):
            parse_net(f"layers {MAX_UNITS - 1} 1\nbias b\n")


# --------------------------------------------------------------------------
# Random nets: the integer forward pass against the Fraction oracle
# --------------------------------------------------------------------------

WEIGHTS = st.one_of(st.just(F(0)), st.builds(F, st.integers(-12, 12), st.integers(1, 6)))
DEGREES = st.integers(1, 12).flatmap(lambda q: st.integers(0, q).map(lambda p: F(p, q)))
IDENTS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True).filter(
    lambda name: name not in RESERVED)


@st.composite
def nets_and_stimuli(draw):
    """A net with 1-3 hidden layers, one activation per layer; each
    non-input unit draws its sources from all earlier layers, so skip
    synapses occur; an optional bias unit; zero weights; and 1-5
    stimuli with mixed denominators."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=3, max_size=5))
    acts = [None] + [draw(st.sampled_from(list(Activation))) for _ in sizes[1:]]
    units = [Unit(unit_name(layer, i), layer, acts[layer])
             for layer, size in enumerate(sizes) for i in range(size)]
    taken = {u.name for u in units}
    bias = draw(st.one_of(st.none(), IDENTS.filter(lambda name: name not in taken)))
    if bias is not None:
        units.append(Unit(bias, 0, None))
    synapses = [Synapse(source.name, target.name, draw(WEIGHTS))
                for target in units for source in units
                if source.layer < target.layer and draw(st.booleans())]
    names = draw(st.lists(IDENTS, min_size=1, max_size=5, unique=True))
    vectors = [tuple(draw(DEGREES) for _ in range(sizes[0])) for _ in names]
    return (FeedForwardNet(tuple(units), tuple(synapses), bias),
            StimulusSet(tuple(names), tuple(vectors)))


class TestAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(nets_and_stimuli())
    def test_forward_pass(self, case):
        net, stimuli = case
        forward = forward_pass(net, stimuli)
        incoming = net.incoming()
        for x, vector in enumerate(stimuli.vectors):
            expected = ref_forward_pass(net, vector)
            got = {name: column[x] for name, column in forward.activations.items()}
            assert list(got.items()) == list(expected.items())  # values and unit order
            assert all(isinstance(v, F) for v in got.values())
            for name, (sums, scale) in forward.net_inputs.items():
                assert F(sums[x], scale) == sum(
                    (s.weight * expected[s.source] for s in incoming.get(name, ())), F(0))

    @settings(max_examples=150, deadline=None)
    @given(nets_and_stimuli())
    def test_interpretation_and_weights(self, case):
        net, stimuli = case
        report = verify_network_faithfulness(net, stimuli)
        # concept_val in stimulus order, then unit order, zeros left out
        expected = [((unit, name), value)
                     for name, vector in zip(stimuli.names, stimuli.vectors)
                     for unit, value in ref_forward_pass(net, vector).items() if value]
        assert list(report.interpretation.concept_val.items()) == expected
        assert report.interpretation == build_interpretation(net, stimuli)
        table = weight_table(report.interpretation, report.kb)
        assert list(report.weights.items()) == list(table.items())

    def test_skip_synapse_with_bias_on_one_stimulus(self):
        net = FeedForwardNet(
            units=(Unit("x", 0, None), Unit("b", 0, None),
                   Unit("h", 1, Activation.STEP), Unit("o", 2, Activation.CLIPPED_LINEAR)),
            synapses=(Synapse("x", "h", F(-1)), Synapse("b", "h", F(1, 3)),
                      Synapse("x", "o", F(5, 7)), Synapse("h", "o", F(0)),
                      Synapse("b", "o", F(-1, 4))),
            bias_unit="b")
        stimuli = StimulusSet(("s",), ((F(2, 3),),))
        assert values_on(net, (F(2, 3),)) == ref_forward_pass(net, (F(2, 3),))
        report = verify_network_faithfulness(net, stimuli)
        assert report.weights == {("h", "s"): float("-inf"),
                                  ("o", "s"): F(5, 7) * F(2, 3) - F(1, 4)}

    @settings(max_examples=40, deadline=None)
    @given(nets_and_stimuli())
    def test_written_files_read_back(self, case):
        net, stimuli = case
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            (d / "net.fnet").write_text(serialize_net(net))
            (d / "net.stim").write_text(serialize_stimuli(stimuli))
            kb, fint = str(d / "out" / "net.kb.fkb"), str(d / "out" / "net.interp.fint")
            code, records = _records("mlp", str(d / "net.fnet"), str(d / "net.stim"),
                                     "--out-dir", str(d / "out"))
            assert _records("parse", kb)[0] == 0
            check_code, check_records = _records("check-model", kb, fint)
        assert code in (0, 1)
        assert check_code == code
        assert check_records["faithful"] == records["faithful"]


def _records(*argv: str) -> tuple[int, dict[str, str]]:
    """Exit code and the first record of each key of one CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--format", "records", *argv])
    records: dict[str, str] = {}
    for line in out.getvalue().splitlines()[1:]:
        key, _, rest = line.partition(" ")
        records.setdefault(key, rest)
    return code, records
