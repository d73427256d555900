"""Independent reference checker for benchmark witnesses.

A deliberately small, slow and obvious re-implementation of the
semantics: its own readers for the `.fkb` / `.fint` text formats and
for single axioms, a `Fraction` evaluator for the four logic families
(T(.) included), axiom degrees, element weights and faithfulness.  It
imports nothing from `fuzzytyp`, so a defect in the program's parser,
evaluator or weighted semantics cannot hide itself here.

Concepts are tuples: ("atom", name), ("top",), ("bot",), ("not", c),
("and", c, d), ("or", c, d), ("some", role, c), ("all", role, c),
("T", c).  Axioms are tuples too:
("incl", lhs, rhs, cmp, threshold), ("cass", concept, individual, cmp,
threshold) and ("rass", role, subject, object, cmp, threshold).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

CMPS = {
    ">=": lambda d, t: d >= t,
    "<=": lambda d, t: d <= t,
    ">": lambda d, t: d > t,
    "<": lambda d, t: d < t,
}


class RefError(Exception):
    """The text could not be read, or a witness does not check out."""


# --------------------------------------------------------------------------
# The four families, written out per family
# --------------------------------------------------------------------------

def t_and(logic: str, a: Fraction, b: Fraction) -> Fraction:
    if logic in ("zadeh", "godel"):
        return a if a < b else b
    if logic == "lukasiewicz":
        s = a + b - 1
        return s if s > 0 else ZERO
    if logic == "product":
        return a * b
    raise RefError(f"unknown logic {logic!r}")


def t_or(logic: str, a: Fraction, b: Fraction) -> Fraction:
    if logic in ("zadeh", "godel"):
        return a if a > b else b
    if logic == "lukasiewicz":
        s = a + b
        return s if s < 1 else ONE
    if logic == "product":
        return a + b - a * b
    raise RefError(f"unknown logic {logic!r}")


def t_impl(logic: str, a: Fraction, b: Fraction) -> Fraction:
    if logic == "zadeh":
        return max(1 - a, b)
    if logic == "lukasiewicz":
        return min(ONE, 1 - a + b)
    if a <= b:
        return ONE
    return b if logic == "godel" else b / a


def t_not(logic: str, a: Fraction) -> Fraction:
    if logic in ("zadeh", "lukasiewicz"):
        return 1 - a
    return ONE if a == 0 else ZERO


# --------------------------------------------------------------------------
# Readers
# --------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(<=|>=|[()<>,@:]|[^\s()<>,@:]+)")


def _tokens(text: str) -> list[str]:
    text = text.split("#", 1)[0]
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or not m.group(1):
            break
        out.append(m.group(1))
        pos = m.end()
    return out


def number(text: str) -> Fraction:
    try:
        return Fraction(text.lstrip("+"))
    except (ValueError, ZeroDivisionError):
        raise RefError(f"not a number: {text!r}") from None


def _concept(toks: list[str], i: int) -> tuple[tuple, int]:
    tok = toks[i]
    if tok == "T":
        if toks[i + 1] != "(":
            raise RefError("T must be followed by (")
        sub, i = _concept(toks, i + 2)
        if toks[i] != ")":
            raise RefError("unclosed T(")
        return ("T", sub), i + 1
    if tok == "(":
        op = toks[i + 1]
        if op == "not":
            sub, i = _concept(toks, i + 2)
            node = ("not", sub)
        elif op in ("and", "or"):
            left, i = _concept(toks, i + 2)
            right, i = _concept(toks, i)
            node = (op, left, right)
        elif op in ("some", "all"):
            filler, j = _concept(toks, i + 3)
            node, i = (op, toks[i + 2], filler), j
        else:
            raise RefError(f"unknown constructor {op!r}")
        if toks[i] != ")":
            raise RefError("unbalanced parentheses")
        return node, i + 1
    if tok == "Top":
        return ("top",), i + 1
    if tok == "Bot":
        return ("bot",), i + 1
    return ("atom", tok), i + 1


def read_concept(text: str) -> tuple:
    toks = _tokens(text)
    node, i = _concept(toks, 0)
    if i != len(toks):
        raise RefError(f"trailing text in concept {text!r}")
    return node


def read_axiom(text: str, roles: frozenset[str] = frozenset()) -> tuple:
    """One inclusion, concept assertion or role assertion."""
    toks = _tokens(text)
    if len(toks) == 8 and toks[0] in roles and toks[1] == "(" and toks[3] == ",":
        return ("rass", toks[0], toks[2], toks[4], toks[6], number(toks[7]))
    lhs, i = _concept(toks, 0)
    if toks[i] == "<=":
        rhs, i = _concept(toks, i + 1)
        node = ("incl", lhs, rhs, toks[i], number(toks[i + 1]))
    elif toks[i] == "(":
        node = ("cass", lhs, toks[i + 1], toks[i + 3], number(toks[i + 4]))
        i += 3
    else:
        raise RefError(f"not an axiom: {text!r}")
    if i + 2 != len(toks) or toks[i] not in CMPS:
        raise RefError(f"not an axiom: {text!r}")
    return node


@dataclass
class KB:
    logic: str
    roles: frozenset[str] = frozenset()
    distinguished: tuple[str, ...] = ()
    axioms: list[tuple] = field(default_factory=list)
    tables: dict[str, list[tuple[tuple, Fraction]]] = field(default_factory=dict)


def read_kb(text: str, logic: str | None = None) -> KB:
    """Read `.fkb` text; ``logic`` overrides the file's logic line."""
    kb = KB(logic="")
    section = None
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        head, _, rest = body.partition(" ")
        if head == "logic":
            kb.logic = rest.strip()
            continue
        if head == "roles":
            kb.roles = frozenset(rest.split())
            continue
        if head == "distinguished":
            kb.distinguished = tuple(rest.split())
            continue
        if head in ("concepts", "individuals"):
            continue
        m = re.match(r"(tbox|abox|wtbox\s+(\S+))\s*:\s*(.*)$", body)
        if m:
            section = m.group(2) or m.group(1)
            body = m.group(3).strip()
            if section not in ("tbox", "abox"):
                kb.tables.setdefault(section, [])
            if not body:
                continue
        if section in ("tbox", "abox"):
            kb.axioms.append(read_axiom(body, kb.roles))
        elif section is not None:
            lhs, _, rhs = body.partition("<=")
            consequent, _, w = rhs.rpartition("@")
            if read_concept(lhs) != ("T", ("atom", section)):
                raise RefError(f"weighted line not about {section}: {body!r}")
            kb.tables[section].append((read_concept(consequent), number(w.strip())))
        else:
            raise RefError(f"line outside any section: {body!r}")
    if logic is not None:
        kb.logic = logic
    if not kb.logic:
        raise RefError("no logic line")
    return kb


@dataclass
class Interp:
    logic: str
    domain: tuple[str, ...]
    concepts: dict[tuple[str, str], Fraction]
    roles: dict[tuple[str, str, str], Fraction]
    individuals: dict[str, str]


def read_interp(text: str, logic: str) -> Interp:
    """Read `.fint` text.  Entries not listed have degree 0."""
    domain: tuple[str, ...] = ()
    concepts: dict[tuple[str, str], Fraction] = {}
    roles: dict[tuple[str, str, str], Fraction] = {}
    individuals: dict[str, str] = {}
    for raw in text.splitlines():
        w = raw.split("#", 1)[0].split()
        if not w:
            continue
        if w[0] == "domain":
            domain = tuple(w[1:])
        elif w[0] == "concept" and len(w) == 4:
            concepts[(w[1], w[2])] = number(w[3])
        elif w[0] == "role" and len(w) == 5:
            roles[(w[1], w[2], w[3])] = number(w[4])
        elif w[0] == "individual" and len(w) == 3:
            individuals[w[1]] = w[2]
        else:
            raise RefError(f"bad interpretation line {raw!r}")
    if not domain:
        raise RefError("interpretation has no domain")
    return Interp(logic, domain, concepts, roles, individuals)


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------

def degrees(i: Interp, c: tuple) -> dict[str, Fraction]:
    """Degree of every domain element in concept ``c``."""
    kind, L, dom = c[0], i.logic, i.domain
    if kind == "atom":
        return {x: i.concepts.get((c[1], x), ZERO) for x in dom}
    if kind == "top":
        return {x: ONE for x in dom}
    if kind == "bot":
        return {x: ZERO for x in dom}
    if kind == "not":
        d = degrees(i, c[1])
        return {x: t_not(L, d[x]) for x in dom}
    if kind in ("and", "or"):
        a, b = degrees(i, c[1]), degrees(i, c[2])
        op = t_and if kind == "and" else t_or
        return {x: op(L, a[x], b[x]) for x in dom}
    if kind in ("some", "all"):
        d = degrees(i, c[2])
        out = {}
        for x in dom:
            links = [i.roles.get((c[1], x, y), ZERO) for y in dom]
            if kind == "some":
                out[x] = max(t_and(L, r, d[y]) for r, y in zip(links, dom))
            else:
                out[x] = min(t_impl(L, r, d[y]) for r, y in zip(links, dom))
        return out
    if kind == "T":
        d = degrees(i, c[1])
        top = max(d.values())
        return {x: ONE if top > 0 and d[x] == top else ZERO for x in dom}
    raise RefError(f"unknown concept node {c!r}")


def axiom_degree(i: Interp, ax: tuple) -> Fraction:
    if ax[0] == "incl":
        lhs, rhs = degrees(i, ax[1]), degrees(i, ax[2])
        return min(t_impl(i.logic, lhs[x], rhs[x]) for x in i.domain)
    if ax[0] == "cass":
        return degrees(i, ax[1])[i.individuals[ax[2]]]
    a, b = i.individuals[ax[2]], i.individuals[ax[3]]
    return i.roles.get((ax[1], a, b), ZERO)


def satisfied(i: Interp, ax: tuple) -> bool:
    return CMPS[ax[-2]](axiom_degree(i, ax), ax[-1])


def weights(i: Interp, kb: KB, name: str) -> dict[str, Fraction | None]:
    """W_name(x) for every element; None stands for minus infinity
    (x is not a member of ``name``)."""
    member = degrees(i, ("atom", name))
    parts = [(degrees(i, cons), w) for cons, w in kb.tables.get(name, [])]
    return {x: (sum((w * d[x] for d, w in parts), ZERO) if member[x] > 0 else None)
            for x in i.domain}


def faithful(i: Interp, kb: KB) -> bool:
    """Every strictly higher membership in a distinguished concept comes
    with a strictly higher weight.  Checked level by level: sorted by
    degree, each level's lightest member must outweigh the heaviest
    member of every lower level."""
    for name in kb.distinguished:
        member = degrees(i, ("atom", name))
        w = weights(i, kb, name)
        levels: dict[Fraction, list[Fraction]] = {}
        for x in i.domain:
            if member[x] > 0:
                levels.setdefault(member[x], []).append(w[x])
        heaviest_below = None
        for level in sorted(levels):
            if heaviest_below is not None and min(levels[level]) <= heaviest_below:
                return False
            top = max(levels[level])
            heaviest_below = top if heaviest_below is None else max(heaviest_below, top)
    return True


def strict_model(i: Interp, kb: KB) -> bool:
    return all(satisfied(i, ax) for ax in kb.axioms)


def fm_model(i: Interp, kb: KB) -> bool:
    return strict_model(i, kb) and faithful(i, kb)


# --------------------------------------------------------------------------
# Witness checks used by the benchmark
# --------------------------------------------------------------------------

def check_countermodel(kb_text: str, goal_text: str, logic: str, mode: str,
                       fint_text: str) -> None:
    """An entail countermodel is a strict model (an fm-model in fm mode)
    of the KB that falsifies the goal."""
    kb = read_kb(kb_text, logic)
    interp = read_interp(fint_text, kb.logic)
    goal = read_axiom(goal_text, kb.roles)
    if not (fm_model(interp, kb) if mode == "fm" else strict_model(interp, kb)):
        raise RefError(f"countermodel is not a{'n fm' if mode == 'fm' else ' strict'} model")
    if satisfied(interp, goal):
        raise RefError("countermodel satisfies the goal")


def _split_degree(text: str) -> tuple[str, Fraction]:
    axiom, _, degree = text.rpartition(" ")
    return axiom, number(degree)


def check_klm_witness(logic: str, premises: list[str], conclusion: str,
                      fint_text: str) -> None:
    """A postulate witness satisfies every premise and falsifies the
    conclusion; each reported degree must be the recomputed one.  Each
    premise and the conclusion come as "<axiom> <degree>"."""
    interp = read_interp(fint_text, logic)
    for line in premises:
        text, reported = _split_degree(line)
        ax = read_axiom(text)
        if axiom_degree(interp, ax) != reported:
            raise RefError(f"premise degree {reported} is not {axiom_degree(interp, ax)}")
        if not satisfied(interp, ax):
            raise RefError(f"premise not satisfied: {text}")
    text, reported = _split_degree(conclusion)
    ax = read_axiom(text)
    if axiom_degree(interp, ax) != reported:
        raise RefError(f"conclusion degree {reported} is not {axiom_degree(interp, ax)}")
    if satisfied(interp, ax):
        raise RefError(f"conclusion satisfied: {text}")


def check_fm_model(kb_text: str, fint_text: str,
                   reported_weights: dict[tuple[str, str], str]) -> None:
    """The interpretation is an fm-model of the KB, and every reported
    weight (printed as a rational or -inf) is the recomputed one."""
    kb = read_kb(kb_text)
    interp = read_interp(fint_text, kb.logic)
    if not fm_model(interp, kb):
        raise RefError("not an fm-model")
    for name in kb.distinguished:
        for x, w in weights(interp, kb, name).items():
            expected = "-inf" if w is None else str(w)
            if reported_weights.get((name, x)) != expected:
                raise RefError(f"W[{name}]({x}) reported {reported_weights.get((name, x))}, "
                               f"recomputed {expected}")
