"""Translation of small feed-forward networks into weighted knowledge
bases, and the induced interpretation over a set of input stimuli.

Every unit becomes a concept name; the activation of a unit on a
stimulus is the stimulus's membership degree in that concept.  Every
synapse into a non-input unit i becomes a weighted typicality inclusion
"typical instances of C_i satisfy the source concept" carrying the
synaptic weight, so each non-input unit gets a weighted table and the
element weight of a stimulus w.r.t. C_i is exactly the unit's net input
on that stimulus.  With monotone non-decreasing activations a strictly
higher activation forces a strictly higher net input, which is why the
induced interpretation is expected to be a faithful model of the
emitted knowledge base; the verifier checks it rather than assuming it.

Activations are restricted to piecewise-rational monotone maps into
[0, 1] so the whole forward pass is exact and faithfulness is decidable
without tolerances:

    hard-sigmoid(x)    = clamp(x/6 + 1/2, 0, 1)
    clipped-linear(x)  = clamp(x, 0, 1)
    step(x)            = 1 if x >= 0 else 0

Bias terms, when present, are a synapse from a declared constant-1
virtual input unit.

The forward pass runs once over the whole stimulus set, layer by layer,
on integers: each unit's activations are numerators over one
denominator of its own, and each unit's net inputs are numerators over
S = lcm(its sources' denominators) * lcm(its weights' denominators).
A Fraction is built once per nonzero degree and once per weight.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from fuzzytyp.algebra import LogicFamily, ONE, ZERO, as_degree
from fuzzytyp.interpretation import FuzzyInterpretation
from fuzzytyp.parser import MAX_UNITS, check_name
from fuzzytyp.syntax import (
    Atomic,
    KBError,
    KBSyntaxError,
    WeightedKB,
    WeightedTypicalityInclusion,
    parse_integer,
    parse_number,
)
from fuzzytyp.weighted import NEG_INF, ExtendedWeight, FmModelReport, is_fm_model


class Activation(Enum):
    HARD_SIGMOID = "hard-sigmoid"
    CLIPPED_LINEAR = "clipped-linear"
    STEP = "step"

    def on_sums(self, sums: list[int], scale: int) -> tuple[list[int], int]:
        """The activations of the net inputs ``n / scale``, one per
        numerator n, as numerators over the returned denominator."""
        if self is Activation.HARD_SIGMOID:  # clamp(n + 3S, 0, 6S) / 6S
            top, half = 6 * scale, 3 * scale
            return [0 if (v := n + half) < 0 else top if v > top else v for n in sums], top
        if self is Activation.CLIPPED_LINEAR:  # clamp(n, 0, S) / S
            return [0 if n < 0 else scale if n > scale else n for n in sums], scale
        return [1 if n >= 0 else 0 for n in sums], 1

    def __call__(self, x: Fraction) -> Fraction:
        (value,), denominator = self.on_sums([x.numerator], x.denominator)
        return Fraction(value, denominator)

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Unit:
    name: str
    layer: int
    activation: Activation | None  # None on the input layer


@dataclass(frozen=True)
class Synapse:
    source: str
    target: str
    weight: Fraction


class NetError(KBError):
    """A net or stimulus set of the wrong shape: an input error."""


@dataclass(frozen=True)
class FeedForwardNet:
    """Layered acyclic net.  ``bias_unit``, if set, names an input-layer
    unit pinned to activation 1 on every stimulus."""

    units: tuple[Unit, ...]
    synapses: tuple[Synapse, ...]
    bias_unit: str | None = None

    def __post_init__(self) -> None:
        by_name = {u.name: u for u in self.units}
        if len(by_name) != len(self.units):
            raise NetError("duplicate unit names")
        for u in self.units:
            if u.layer == 0 and u.activation is not None:
                raise NetError(f"input unit {u.name!r} must not carry an activation")
            if u.layer > 0 and u.activation is None:
                raise NetError(f"unit {u.name!r} needs an activation")
        for s in self.synapses:
            if s.source not in by_name or s.target not in by_name:
                raise NetError(f"synapse {s.source}->{s.target} references unknown units")
            if by_name[s.target].layer <= by_name[s.source].layer:
                raise NetError(
                    f"synapse {s.source}->{s.target} does not go strictly forward "
                    "(cycle or intra-layer edge)")
        if self.bias_unit is not None:
            if self.bias_unit not in by_name:
                raise NetError(f"bias unit {self.bias_unit!r} not declared")
            if by_name[self.bias_unit].layer != 0:
                raise NetError("bias unit must sit on the input layer")

    def input_units(self) -> list[Unit]:
        return [u for u in self.units if u.layer == 0 and u.name != self.bias_unit]

    def non_input_units(self) -> list[Unit]:
        return [u for u in self.units if u.layer > 0]

    def incoming(self) -> dict[str, list[Synapse]]:
        """The synapses into each unit that has some, in net order."""
        index: dict[str, list[Synapse]] = {}
        for s in self.synapses:
            index.setdefault(s.target, []).append(s)
        return index


@dataclass(frozen=True)
class StimulusSet:
    """Named rational input vectors; dimension = input layer width
    (bias excluded)."""

    names: tuple[str, ...]
    vectors: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if not self.names:
            raise NetError("stimulus set must be nonempty")
        if len(self.names) != len(set(self.names)):
            raise NetError("duplicate stimulus names")
        if len(self.names) != len(self.vectors):
            raise NetError("names/vectors length mismatch")
        for vec in self.vectors:
            for v in vec:
                if not ZERO <= v <= ONE:
                    raise NetError(f"stimulus component {v} outside [0, 1]")


def mlp_to_kb(net: FeedForwardNet, logic: LogicFamily = LogicFamily.GODEL) -> WeightedKB:
    """One concept per unit; per non-input unit, one weighted typicality
    inclusion per incoming synapse; empty strict TBox and ABox."""
    concepts = tuple(u.name for u in net.units)
    distinguished = tuple(u.name for u in net.non_input_units())
    incoming = net.incoming()
    wtbox = {
        u.name: tuple(
            WeightedTypicalityInclusion(u.name, Atomic(s.source), s.weight)
            for s in incoming.get(u.name, ()))
        for u in net.non_input_units()
    }
    return WeightedKB(
        logic=logic,
        concepts=concepts,
        distinguished=distinguished,
        wtbox=wtbox,
    )


class ForwardPass(NamedTuple):
    """A net's exact forward pass over a stimulus set: per unit, its
    activation on each stimulus (input units, the bias unit, then the
    rest by layer); per non-input unit, its net input on each stimulus
    as integer numerators over one denominator."""

    activations: dict[str, list[Fraction]]
    net_inputs: dict[str, tuple[list[int], int]]


def forward_pass(net: FeedForwardNet, stimuli: StimulusSet) -> ForwardPass:
    """Exact activation of every unit on every stimulus, in one pass
    over the layers."""
    inputs = net.input_units()
    for vector in stimuli.vectors:
        if len(vector) != len(inputs):
            raise NetError(f"stimulus has {len(vector)} components, "
                           f"input layer has {len(inputs)}")
    m = len(stimuli.vectors)
    # unit -> (activation numerators, their denominator)
    exact: dict[str, tuple[list[int], int]] = {}
    activations: dict[str, list[Fraction]] = {}
    for i, unit in enumerate(inputs):
        column = [vector[i] for vector in stimuli.vectors]
        den = lcm(*(v.denominator for v in column))
        exact[unit.name] = ([v.numerator * (den // v.denominator) for v in column], den)
        activations[unit.name] = column
    if net.bias_unit is not None:
        exact[net.bias_unit] = ([1] * m, 1)
        activations[net.bias_unit] = [ONE] * m
    incoming = net.incoming()
    net_inputs: dict[str, tuple[list[int], int]] = {}
    for unit in sorted(net.non_input_units(), key=lambda u: u.layer):
        synapses = incoming.get(unit.name, ())
        sources = lcm(*(exact[s.source][1] for s in synapses))
        weights = lcm(*(s.weight.denominator for s in synapses))
        scale = sources * weights
        sums = [0] * m
        for s in synapses:
            nums, den = exact[s.source]
            coef = s.weight.numerator * (weights // s.weight.denominator) * (sources // den)
            if coef:
                sums = [acc + coef * n for acc, n in zip(sums, nums)]
        net_inputs[unit.name] = (sums, scale)
        assert unit.activation is not None
        nums, den = unit.activation.on_sums(sums, scale)
        if min(nums) < 0 or max(nums) > den:
            out = next(Fraction(n, den) for n in nums if not 0 <= n <= den)
            raise NetError(f"activation of {unit.name!r} left [0, 1]: {out}")
        exact[unit.name] = (nums, den)
        activations[unit.name] = [Fraction(n, den) if n else ZERO for n in nums]
    return ForwardPass(activations, net_inputs)


def _induced(net: FeedForwardNet, stimuli: StimulusSet, activations: dict[str, list[Fraction]],
             logic: LogicFamily) -> FuzzyInterpretation:
    columns = list(activations.items())
    return FuzzyInterpretation(
        logic=logic,
        domain=stimuli.names,
        concept_names=tuple(u.name for u in net.units),
        concept_val={(unit, name): value for x, name in enumerate(stimuli.names)
                     for unit, values in columns if (value := values[x])},
    )


def build_interpretation(net: FeedForwardNet, stimuli: StimulusSet,
                         logic: LogicFamily = LogicFamily.GODEL) -> FuzzyInterpretation:
    """Domain = stimulus names; degree of a stimulus in a unit's concept
    = that unit's exact activation on the stimulus."""
    return _induced(net, stimuli, forward_pass(net, stimuli).activations, logic)


@dataclass(frozen=True)
class NetworkReport:
    faithful: bool
    fm_report: FmModelReport
    weights: dict[tuple[str, str], ExtendedWeight]
    kb: WeightedKB
    interpretation: FuzzyInterpretation


def verify_network_faithfulness(net: FeedForwardNet, stimuli: StimulusSet,
                                logic: LogicFamily = LogicFamily.GODEL) -> NetworkReport:
    """Check that the induced interpretation is a faithful model of the
    emitted knowledge base.  A violation here would be a first-class
    finding and is reported, never suppressed.

    The weight of a stimulus for a unit's concept is the unit's net
    input, read off the forward pass."""
    kb = mlp_to_kb(net, logic)
    forward = forward_pass(net, stimuli)
    interp = _induced(net, stimuli, forward.activations, logic)
    weights: dict[tuple[str, str], ExtendedWeight] = {}
    for unit in net.non_input_units():
        sums, scale = forward.net_inputs[unit.name]
        for name, n, degree in zip(stimuli.names, sums, forward.activations[unit.name]):
            weights[(unit.name, name)] = Fraction(n, scale) if degree else NEG_INF
    report = is_fm_model(interp, kb)
    return NetworkReport(
        faithful=report.faithful,
        fm_report=report,
        weights=weights,
        kb=kb,
        interpretation=interp,
    )


# --------------------------------------------------------------------------
# File formats (.fnet and stimulus lists)
# --------------------------------------------------------------------------

def _lines(text: str):
    """(line number, words, 1-based column of each word) per nonblank line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        found = list(re.finditer(r"\S+", raw.split("#", 1)[0]))
        if found:
            yield lineno, [m.group() for m in found], [m.start() + 1 for m in found]


def unit_name(layer: int, index: int) -> str:
    return f"u{layer}_{index}"


def parse_net(text: str) -> FeedForwardNet:
    """.fnet format, line oriented:

        layers <size>+              # input first
        activation <layer-index> (hard-sigmoid|clipped-linear|step)
        bias <name>                 # optional constant-1 input unit
        synapse <from> <to> <weight>

    Units are named u<layer>_<index> from the layer sizes; a layer with
    no activation line gets hard-sigmoid.  The bias name must be one a
    .fkb file can declare (``parser.check_name``), an activation line
    must name a non-input layer of the net, and the net may have at most
    ``parser.MAX_UNITS`` units.
    """
    sizes: list[int] | None = None
    layers_line = 0
    activations: dict[int, Activation] = {}
    activation_at: dict[int, tuple[int, int]] = {}  # layer -> its activation line's position
    bias: str | None = None
    synapse_rows: list[tuple[str, str, Fraction]] = []

    for lineno, words, cols in _lines(text):
        key = words[0]
        if key == "layers":
            if sizes is not None:
                raise KBSyntaxError("duplicate layers line", lineno, 1)
            sizes = [parse_integer(w, lineno, col) for w, col in zip(words[1:], cols[1:])]
            if len(sizes) < 2 or any(s < 1 for s in sizes):
                raise KBSyntaxError("need at least two positive layer sizes", lineno, 1)
            layers_line = lineno
        elif key == "activation":
            if len(words) != 3:
                raise KBSyntaxError("activation <layer> <name>", lineno, 1)
            layer = parse_integer(words[1], lineno, cols[1])
            try:
                act = Activation(words[2])
            except ValueError:
                raise KBSyntaxError(f"bad activation line {words!r}", lineno, 1) from None
            if layer in activations:
                raise KBSyntaxError(f"duplicate activation line for layer {layer}",
                                    lineno, cols[1])
            activations[layer] = act
            activation_at[layer] = (lineno, cols[1])
        elif key == "bias":
            if len(words) != 2:
                raise KBSyntaxError("bias <name>", lineno, 1)
            if bias is not None:
                raise KBSyntaxError("duplicate bias line", lineno, 1)
            bias = check_name(words[1], "bias unit name", lineno, cols[1])
        elif key == "synapse":
            if len(words) != 4:
                raise KBSyntaxError("synapse <from> <to> <weight>", lineno, 1)
            synapse_rows.append((words[1], words[2], parse_number(words[3], lineno, cols[3])))
        else:
            raise KBSyntaxError(f"unknown line kind {key!r}", lineno, 1)

    if sizes is None:
        raise KBSyntaxError("missing layers line", 1, 1)
    if sum(sizes) + (bias is not None) > MAX_UNITS:
        raise KBSyntaxError(f"more than {MAX_UNITS} units", layers_line, 1)
    for layer, (lineno, col) in activation_at.items():
        if not 0 < layer < len(sizes):
            raise KBSyntaxError(f"activation for layer {layer}, but the non-input layers "
                                f"are 1..{len(sizes) - 1}", lineno, col)
    units: list[Unit] = []
    for layer, size in enumerate(sizes):
        act = None if layer == 0 else activations.get(layer, Activation.HARD_SIGMOID)
        for index in range(size):
            units.append(Unit(unit_name(layer, index), layer, act))
    if bias is not None:
        units.append(Unit(bias, 0, None))
    try:
        return FeedForwardNet(
            units=tuple(units),
            synapses=tuple(Synapse(a, b, w) for a, b, w in synapse_rows),
            bias_unit=bias,
        )
    except NetError as exc:
        raise KBSyntaxError(str(exc), 1, 1) from None


def serialize_net(net: FeedForwardNet) -> str:
    sizes: dict[int, int] = {}
    for u in net.units:
        if u.name != net.bias_unit:
            sizes[u.layer] = sizes.get(u.layer, 0) + 1
    lines = ["layers " + " ".join(str(sizes[i]) for i in sorted(sizes))]
    seen_layers = sorted({u.layer for u in net.non_input_units()})
    for layer in seen_layers:
        act = next(u.activation for u in net.non_input_units() if u.layer == layer)
        lines.append(f"activation {layer} {act}")
    if net.bias_unit is not None:
        lines.append(f"bias {net.bias_unit}")
    for s in net.synapses:
        lines.append(f"synapse {s.source} {s.target} {s.weight}")
    return "\n".join(lines) + "\n"


def parse_stimuli(text: str) -> StimulusSet:
    """Stimulus list: one ``stimulus <name> <component>+`` line each.
    A name must be one a .fint file can declare (``parser.check_name``)."""
    names: list[str] = []
    vectors: list[tuple[Fraction, ...]] = []
    for lineno, words, cols in _lines(text):
        if words[0] != "stimulus" or len(words) < 3:
            raise KBSyntaxError("stimulus <name> <component>+", lineno, 1)
        names.append(check_name(words[1], "stimulus name", lineno, cols[1]))
        vector = []
        for w, col in zip(words[2:], cols[2:]):
            try:
                vector.append(as_degree(parse_number(w, lineno, col)))
            except ValueError as exc:
                raise KBSyntaxError(str(exc), lineno, col) from None
        vectors.append(tuple(vector))
    try:
        return StimulusSet(tuple(names), tuple(vectors))
    except NetError as exc:
        raise KBSyntaxError(str(exc), 1, 1) from None


def serialize_stimuli(stimuli: StimulusSet) -> str:
    lines = [f"stimulus {name} " + " ".join(str(v) for v in vec)
             for name, vec in zip(stimuli.names, stimuli.vectors)]
    return "\n".join(lines) + "\n"
