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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from fuzzytyp.algebra import LogicFamily, ONE, ZERO, as_degree
from fuzzytyp.interpretation import FuzzyInterpretation
from fuzzytyp.syntax import (
    Atomic,
    KBSyntaxError,
    WeightedKB,
    WeightedTypicalityInclusion,
    parse_number,
)
from fuzzytyp.weighted import FmModelReport, is_fm_model, weight_table


class Activation(Enum):
    HARD_SIGMOID = "hard-sigmoid"
    CLIPPED_LINEAR = "clipped-linear"
    STEP = "step"

    def __call__(self, x: Fraction) -> Fraction:
        if self is Activation.HARD_SIGMOID:
            return min(ONE, max(ZERO, x / 6 + Fraction(1, 2)))
        if self is Activation.CLIPPED_LINEAR:
            return min(ONE, max(ZERO, x))
        return ONE if x >= 0 else ZERO

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


class NetError(Exception):
    pass


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

    def incoming(self, name: str) -> list[Synapse]:
        return [s for s in self.synapses if s.target == name]


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
    wtbox = {
        u.name: tuple(
            WeightedTypicalityInclusion(u.name, Atomic(s.source), s.weight)
            for s in net.incoming(u.name))
        for u in net.non_input_units()
    }
    return WeightedKB(
        logic=logic,
        concepts=concepts,
        distinguished=distinguished,
        wtbox=wtbox,
    )


def forward_pass(net: FeedForwardNet, vector: tuple[Fraction, ...]) -> dict[str, Fraction]:
    """Exact activation of every unit on one input vector."""
    inputs = net.input_units()
    if len(vector) != len(inputs):
        raise NetError(f"stimulus has {len(vector)} components, "
                       f"input layer has {len(inputs)}")
    values: dict[str, Fraction] = {u.name: v for u, v in zip(inputs, vector)}
    if net.bias_unit is not None:
        values[net.bias_unit] = ONE
    for unit in sorted(net.non_input_units(), key=lambda u: u.layer):
        net_input = sum((s.weight * values[s.source] for s in net.incoming(unit.name)),
                        Fraction(0))
        assert unit.activation is not None
        out = unit.activation(net_input)
        if not ZERO <= out <= ONE:
            raise NetError(f"activation of {unit.name!r} left [0, 1]: {out}")
        values[unit.name] = out
    return values


def build_interpretation(net: FeedForwardNet, stimuli: StimulusSet,
                         logic: LogicFamily = LogicFamily.GODEL) -> FuzzyInterpretation:
    """Domain = stimulus names; degree of a stimulus in a unit's concept
    = that unit's exact activation on the stimulus."""
    concept_val: dict[tuple[str, str], Fraction] = {}
    for name, vector in zip(stimuli.names, stimuli.vectors):
        for unit_name, value in forward_pass(net, vector).items():
            if value != ZERO:
                concept_val[(unit_name, name)] = value
    return FuzzyInterpretation(
        logic=logic,
        domain=stimuli.names,
        concept_names=tuple(u.name for u in net.units),
        concept_val=concept_val,
    )


@dataclass(frozen=True)
class NetworkReport:
    faithful: bool
    fm_report: FmModelReport
    weights: dict[tuple[str, str], object]
    kb: WeightedKB
    interpretation: FuzzyInterpretation


def verify_network_faithfulness(net: FeedForwardNet, stimuli: StimulusSet,
                                logic: LogicFamily = LogicFamily.GODEL) -> NetworkReport:
    """Check that the induced interpretation is a faithful model of the
    emitted knowledge base.  A violation here would be a first-class
    finding and is reported, never suppressed."""
    kb = mlp_to_kb(net, logic)
    interp = build_interpretation(net, stimuli, logic)
    report = is_fm_model(interp, kb)
    return NetworkReport(
        faithful=report.faithful,
        fm_report=report,
        weights=weight_table(interp, kb),
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

    Units are named u<layer>_<index> from the layer sizes.
    """
    sizes: list[int] | None = None
    activations: dict[int, Activation] = {}
    bias: str | None = None
    synapse_rows: list[tuple[str, str, Fraction]] = []

    for lineno, words, cols in _lines(text):
        key = words[0]
        if key == "layers":
            if sizes is not None:
                raise KBSyntaxError("duplicate layers line", lineno, 1)
            try:
                sizes = [int(w) for w in words[1:]]
            except ValueError:
                raise KBSyntaxError("layer sizes must be integers", lineno, 1) from None
            if len(sizes) < 2 or any(s < 1 for s in sizes):
                raise KBSyntaxError("need at least two positive layer sizes", lineno, 1)
        elif key == "activation":
            if len(words) != 3:
                raise KBSyntaxError("activation <layer> <name>", lineno, 1)
            try:
                layer = int(words[1])
                activations[layer] = Activation(words[2])
            except ValueError:
                raise KBSyntaxError(f"bad activation line {words!r}", lineno, 1) from None
        elif key == "bias":
            if len(words) != 2:
                raise KBSyntaxError("bias <name>", lineno, 1)
            bias = words[1]
        elif key == "synapse":
            if len(words) != 4:
                raise KBSyntaxError("synapse <from> <to> <weight>", lineno, 1)
            synapse_rows.append((words[1], words[2], parse_number(words[3], lineno, cols[3])))
        else:
            raise KBSyntaxError(f"unknown line kind {key!r}", lineno, 1)

    if sizes is None:
        raise KBSyntaxError("missing layers line", 1, 1)
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
    """Stimulus list: one ``stimulus <name> <component>+`` line each."""
    names: list[str] = []
    vectors: list[tuple[Fraction, ...]] = []
    for lineno, words, cols in _lines(text):
        if words[0] != "stimulus" or len(words) < 3:
            raise KBSyntaxError("stimulus <name> <component>+", lineno, 1)
        names.append(words[1])
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
