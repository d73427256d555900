"""Differential oracle: a naive Fraction evaluator and a brute-force
countermodel scan, independent of the production kernel.

It has its own table of combination functions, written from their
textbook definitions, evaluates per element by plain recursion with
sup/inf as explicit loops, spells typicality out through the
induced-preference minimality definition (the minimal positive
elements), and enumerates grid interpretations with itertools in the
engine's documented index order.  No caching and no shortcuts.

The induced preference itself is spelled out as its set of ordered
pairs, over the degrees ``eval_concept`` reports, with the order
properties (irreflexive, transitive, modular, well-founded) checked
from their definitions; faithfulness and coherence are the O(n^2)
pairwise definitions.

A net's forward pass is run one stimulus at a time on Fractions, with
the activations written from their definitions and every unit's
incoming synapses found by a scan of all of them.
"""

import itertools
from fractions import Fraction as F

from fuzzytyp.algebra import LogicFamily
from fuzzytyp.interpretation import FuzzyInterpretation, eval_concept
from fuzzytyp.mlp import NetError
from fuzzytyp.syntax import (
    And,
    Atomic,
    Bottom,
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
)

ONE, ZERO = F(1), F(0)

#: family -> (t-norm, s-norm, implication, negation)
OPS = {
    LogicFamily.ZADEH: (min, max, lambda a, b: max(1 - a, b), lambda a: 1 - a),
    LogicFamily.GODEL: (min, max, lambda a, b: ONE if a <= b else b,
                        lambda a: ONE if a == 0 else ZERO),
    LogicFamily.LUKASIEWICZ: (lambda a, b: max(ZERO, a + b - 1), lambda a, b: min(ONE, a + b),
                              lambda a, b: min(ONE, 1 - a + b), lambda a: 1 - a),
    LogicFamily.PRODUCT: (lambda a, b: a * b, lambda a, b: a + b - a * b,
                          lambda a, b: ONE if a <= b else b / a,
                          lambda a: ONE if a == 0 else ZERO),
}


def ref_eval(interp: FuzzyInterpretation, concept: Concept, x: str) -> F:
    tnorm, snorm, implication, negation = OPS[interp.logic]
    if isinstance(concept, Atomic):
        return interp.concept_val.get((concept.name, x), ZERO)
    if isinstance(concept, Top):
        return ONE
    if isinstance(concept, Bottom):
        return ZERO
    if isinstance(concept, Not):
        return negation(ref_eval(interp, concept.sub, x))
    if isinstance(concept, And):
        return tnorm(ref_eval(interp, concept.left, x), ref_eval(interp, concept.right, x))
    if isinstance(concept, Or):
        return snorm(ref_eval(interp, concept.left, x), ref_eval(interp, concept.right, x))
    if isinstance(concept, Exists):
        best = ZERO
        for y in interp.domain:
            v = tnorm(interp.role_val.get((concept.role, x, y), ZERO),
                      ref_eval(interp, concept.filler, y))
            best = max(best, v)
        return best
    if isinstance(concept, Forall):
        worst = ONE
        for y in interp.domain:
            v = implication(interp.role_val.get((concept.role, x, y), ZERO),
                            ref_eval(interp, concept.filler, y))
            worst = min(worst, v)
        return worst
    if isinstance(concept, Typ):
        sub = concept.sub
        positives = [y for y in interp.domain if ref_eval(interp, sub, y) > 0]
        minimal = [u for u in positives
                   if not any(ref_eval(interp, sub, z) > ref_eval(interp, sub, u)
                              for z in positives)]
        return ONE if x in minimal else ZERO
    raise TypeError(concept)


def ref_axiom_degree(interp: FuzzyInterpretation, axiom) -> F:
    implication = OPS[interp.logic][2]
    if isinstance(axiom, Inclusion):
        worst = ONE
        for x in interp.domain:
            worst = min(worst, implication(ref_eval(interp, axiom.lhs, x),
                                           ref_eval(interp, axiom.rhs, x)))
        return worst
    if isinstance(axiom, ConceptAssertion):
        return ref_eval(interp, axiom.concept, interp.individuals[axiom.individual])
    if isinstance(axiom, RoleAssertion):
        key = (axiom.role, interp.individuals[axiom.subject], interp.individuals[axiom.object])
        return interp.role_val.get(key, ZERO)
    raise TypeError(axiom)


def ref_weight(interp: FuzzyInterpretation, kb, name: str, x: str):
    if interp.concept_val.get((name, x), ZERO) == 0:
        return float("-inf")
    return sum((incl.weight * ref_eval(interp, incl.consequent, x)
                for incl in kb.weighted_inclusions(name)), ZERO)


def ref_follows_preference(degrees: list, weights: list, coherent: bool = False) -> bool:
    """Faithfulness (a strictly higher degree has a strictly higher
    weight), and with ``coherent`` its converse too, pair by pair."""
    cells = list(zip(degrees, weights))
    faithful = all(wx > wy for dx, wx in cells for dy, wy in cells if dx > dy)
    converse = all(dx > dy for dx, wx in cells for dy, wy in cells if wx > wy)
    return faithful and (converse or not coherent)


def ref_preference_violations(interp: FuzzyInterpretation, kb, coherent: bool = False
                              ) -> list[tuple]:
    """(kind, concept, x, y, degree_x, degree_y, weight_x, weight_y) of
    every ordered pair that breaks faithfulness, or, with ``coherent``,
    its converse; distinguished concepts in KB order, pairs in domain
    order.  A concept with an empty weighted table is skipped."""
    out = []
    for name in kb.distinguished:
        if not kb.weighted_inclusions(name):
            continue
        for x in interp.domain:
            for y in interp.domain:
                dx = interp.concept_val.get((name, x), ZERO)
                dy = interp.concept_val.get((name, y), ZERO)
                wx = ref_weight(interp, kb, name, x)
                wy = ref_weight(interp, kb, name, y)
                if dx > dy and not wx > wy:
                    kind = "faithfulness"
                elif coherent and wx > wy and not dx > dy:
                    kind = "coherence"
                else:
                    continue
                out.append((kind, name, x, y, dx, dy, wx, wy))
    return out


def ref_is_model(interp: FuzzyInterpretation, kb, mode: str) -> bool:
    for ax in [*kb.tbox, *kb.abox]:
        if not ax.cmp.apply(ref_axiom_degree(interp, ax), ax.threshold):
            return False
    return mode != "fm" or not ref_preference_violations(interp, kb)


def preference_pairs(interp: FuzzyInterpretation, concept: Concept) -> frozenset:
    """The strict preference ``concept`` induces: (x, y) for every x
    whose degree is strictly higher than y's."""
    degree = {x: eval_concept(interp, concept, x) for x in interp.domain}
    return frozenset((x, y) for x in interp.domain for y in interp.domain
                     if degree[x] > degree[y])


def is_irreflexive(pairs: frozenset, domain) -> bool:
    return all((x, x) not in pairs for x in domain)


def is_transitive(pairs: frozenset) -> bool:
    return all((x, z) in pairs for (x, y) in pairs for (y2, z) in pairs if y2 == y)


def is_modular(pairs: frozenset, domain) -> bool:
    return all((x, z) in pairs or (z, y) in pairs for (x, y) in pairs for z in domain)


def is_well_founded(pairs: frozenset, domain) -> bool:
    """Every nonempty subset has a minimal (most preferred) element:
    peel off the elements nothing left is preferred to until none are
    left, or none can be peeled."""
    rest = set(domain)
    while rest:
        minimal = {x for x in rest if not any((y, x) in pairs for y in rest)}
        if not minimal:
            return False
        rest -= minimal
    return True


def ref_interpretations(logic, concepts, roles, individuals, n: int, q: int):
    """Every grid interpretation of size n, by ascending index: a mixed
    radix numeral with the first concept's entries fastest, then the
    role entries, then one element per individual."""
    dom = tuple(f"e{i}" for i in range(n))
    cells = ([(c, x) for c in concepts for x in dom]
             + [(r, a, b) for r in roles for a in dom for b in dom])
    radices = [range(q + 1)] * len(cells) + [range(n)] * len(individuals)
    for digits in itertools.product(*reversed(radices)):
        digits = digits[::-1]
        concept_val = {cell: F(d, q) for cell, d in zip(cells, digits)
                       if len(cell) == 2 and d}
        role_val = {cell: F(d, q) for cell, d in zip(cells, digits)
                    if len(cell) == 3 and d}
        bound = {ind: dom[d] for ind, d in zip(individuals, digits[len(cells):])}
        yield FuzzyInterpretation(logic=logic, domain=dom, concept_names=concepts,
                                  role_names=roles, concept_val=concept_val,
                                  role_val=role_val, individuals=bound)


def ref_scan(kb, goal, logic, sig, max_domain: int, q: int, mode: str, budget: int):
    """(first countermodel or None, interpretations examined, models,
    whether the budget ran out first)."""
    examined = models = 0
    for n in range(1, max_domain + 1):
        for interp in ref_interpretations(logic, sig.concepts, sig.roles,
                                          sig.individuals, n, q):
            if examined == budget:
                return None, examined, models, True
            examined += 1
            if not ref_is_model(interp, kb, mode):
                continue
            models += 1
            if not goal.cmp.apply(ref_axiom_degree(interp, goal), goal.threshold):
                return interp, examined, models, False
    return None, examined, models, False


#: activation name -> its definition on Fractions
ACTIVATIONS = {
    "hard-sigmoid": lambda x: min(ONE, max(ZERO, x / 6 + F(1, 2))),
    "clipped-linear": lambda x: min(ONE, max(ZERO, x)),
    "step": lambda x: ONE if x >= 0 else ZERO,
}


def ref_forward_pass(net, vector) -> dict:
    """Exact activation of every unit on one input vector: input units,
    the bias unit, then the others by layer."""
    inputs = [u for u in net.units if u.layer == 0 and u.name != net.bias_unit]
    if len(vector) != len(inputs):
        raise NetError(f"stimulus has {len(vector)} components, "
                       f"input layer has {len(inputs)}")
    values = {u.name: v for u, v in zip(inputs, vector)}
    if net.bias_unit is not None:
        values[net.bias_unit] = ONE
    for unit in sorted((u for u in net.units if u.layer > 0), key=lambda u: u.layer):
        net_input = sum((s.weight * values[s.source]
                         for s in net.synapses if s.target == unit.name), ZERO)
        out = ACTIVATIONS[unit.activation.value](net_input)
        if not ZERO <= out <= ONE:
            raise NetError(f"activation of {unit.name!r} left [0, 1]: {out}")
        values[unit.name] = out
    return values
