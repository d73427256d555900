"""Parser and serializer for the textual knowledge-base (.fkb) and
interpretation (.fint) formats.

.fkb grammar (line oriented, '#' starts a comment, blank lines ignored):

    logic (zadeh|godel|lukasiewicz|product)
    concepts <name>+
    roles <name>*
    individuals <name>*
    distinguished <name>+
    tbox:
        <ConceptExpr> <= <ConceptExpr> (>=|<=|>|<) <number>
    wtbox <Name>:
        T(<Name>) <= <ConceptExpr> @ <signed-number>
    abox:
        <ConceptExpr>(<ind>) (>=|<=|>|<) <number>
        <role>(<ind>,<ind>) (>=|<=|>|<) <number>

    ConceptExpr := name | Top | Bot | (not E) | (and E E) | (or E E)
                 | (some role E) | (all role E) | T(E)

The logic line comes first; signature lines follow (each at most once,
in any order); sections come last and may repeat.  A section header may
carry its first entry on the same line.  Numbers are written p/q or as
decimal literals and are converted exactly (0.8 means 4/5, not a float).
A concept may nest at most MAX_NESTING operators ((not ...), (and ...),
(or ...), (some ...), (all ...), T(...)) inside one another.

.fint grammar (same lexical conventions):

    domain <elem>+
    concept <Name> <elem> <degree>
    role <Name> <elem> <elem> <degree>
    individual <name> <elem>

Valuation entries not listed default to degree 0; the serializer omits
zero entries for the same reason.
"""

from __future__ import annotations

import re
from fractions import Fraction

from fuzzytyp.algebra import LogicFamily, logic_from_name
from fuzzytyp.interpretation import FuzzyInterpretation
from fuzzytyp.syntax import (
    And,
    Atomic,
    BOTTOM,
    Cmp,
    Concept,
    ConceptAssertion,
    Exists,
    Forall,
    FuzzyAxiom,
    Inclusion,
    KBSyntaxError,
    NestedTypicalityError,
    Not,
    NUMBER,
    Or,
    RoleAssertion,
    TOP,
    Typ,
    UndeclaredNameError,
    WeightedKB,
    WeightedTypicalityInclusion,
    contains_typ,
    parse_degree,
    parse_number,
)

_TOKEN_RE = re.compile(
    rf"""
      (?P<num>{NUMBER})
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<sym><=|>=|<|>|\(|\)|,|@|:)
    """,
    re.VERBOSE,
)

RESERVED = {
    "logic", "concepts", "roles", "individuals", "distinguished",
    "tbox", "wtbox", "abox", "domain",
    "Top", "Bot", "not", "and", "or", "some", "all", "T",
}

_HEADER_WORDS = {"logic", "concepts", "roles", "individuals", "distinguished",
                 "tbox", "wtbox", "abox"}

#: Deepest operator nesting a concept expression may have.  Parsing,
#: compiling and printing recurse once per level, so the limit keeps
#: every concept well inside the interpreter's recursion limit.
MAX_NESTING = 256

#: Most units (all layers, the bias unit included) a .fnet file may
#: declare.  A net's forward pass and its knowledge base grow with the
#: unit count times the stimulus count, so the limit keeps a short file
#: from asking for millions of units; it is checked before any unit is
#: built.
MAX_UNITS = 10_000


def check_name(text: str, what: str, line: int, col: int) -> str:
    """``text``, if a .fkb or .fint file can declare it: an identifier
    that is not a reserved word; else a KBSyntaxError at ``line``,
    ``col``."""
    m = _TOKEN_RE.fullmatch(text)
    if m is None or m.lastgroup != "ident":
        raise KBSyntaxError(f"{what} {text!r} is not an identifier", line, col)
    if text in RESERVED:
        raise KBSyntaxError(f"reserved word {text!r} cannot be a {what}", line, col)
    return text


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize_line(text: str, lineno: int) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch == "#":
            break
        if ch.isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise KBSyntaxError(f"unexpected character {ch!r}", lineno, pos + 1)
        kind = m.lastgroup or ""
        tokens.append(_Token(kind, m.group(), lineno, pos + 1))
        pos = m.end()
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[_Token], lineno: int):
        self.tokens = tokens
        self.lineno = lineno
        self.pos = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def peek2(self) -> _Token | None:
        return self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None

    def next(self, expected: str) -> _Token:
        tok = self.peek()
        if tok is None:
            raise KBSyntaxError(f"unexpected end of line, expected {expected}",
                                self.lineno, len("".join(t.text for t in self.tokens)) + 1)
        self.pos += 1
        return tok

    def expect_sym(self, sym: str) -> _Token:
        tok = self.next(repr(sym))
        if tok.kind != "sym" or tok.text != sym:
            raise KBSyntaxError(f"expected {sym!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def expect_ident(self, what: str = "identifier") -> _Token:
        tok = self.next(what)
        if tok.kind != "ident":
            raise KBSyntaxError(f"expected {what}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def expect_number(self, what: str = "number") -> _Token:
        tok = self.next(what)
        if tok.kind != "num":
            raise KBSyntaxError(f"expected {what}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def expect_cmp(self) -> Cmp:
        tok = self.next("comparator (>=, <=, >, <)")
        if tok.kind != "sym" or tok.text not in (">=", "<=", ">", "<"):
            raise KBSyntaxError(f"expected comparator, found {tok.text!r}", tok.line, tok.col)
        return Cmp(tok.text)

    def expect_end(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise KBSyntaxError(f"unexpected trailing {tok.text!r}", tok.line, tok.col)


class _Signature:
    """Declared names available while parsing axiom lines."""

    def __init__(self, concepts: set[str], roles: set[str], individuals: set[str]):
        self.concepts = concepts
        self.roles = roles
        self.individuals = individuals


def _parse_concept_expr(ts: _TokenStream, sig: _Signature, depth: int = 0) -> Concept:
    """One concept expression; ``depth`` operators enclose it."""
    tok = ts.next("concept expression")
    if depth == MAX_NESTING and tok.text in ("T", "("):
        raise KBSyntaxError(f"concept nested deeper than {MAX_NESTING} levels",
                            tok.line, tok.col)
    depth += 1
    if tok.kind == "ident":
        if tok.text == "Top":
            return TOP
        if tok.text == "Bot":
            return BOTTOM
        if tok.text == "T":
            ts.expect_sym("(")
            inner = _parse_concept_expr(ts, sig, depth)
            ts.expect_sym(")")
            try:
                return Typ(inner)
            except NestedTypicalityError:
                raise NestedTypicalityError("typicality operator may not be nested",
                                            tok.line, tok.col) from None
        if tok.text in RESERVED:
            raise KBSyntaxError(f"reserved word {tok.text!r} is not a concept", tok.line, tok.col)
        if tok.text not in sig.concepts:
            raise UndeclaredNameError(f"undeclared concept name {tok.text!r}", tok.line, tok.col)
        return Atomic(tok.text)
    if tok.kind == "sym" and tok.text == "(":
        op = ts.expect_ident("operator (not, and, or, some, all)")
        if op.text == "not":
            sub = _parse_concept_expr(ts, sig, depth)
            ts.expect_sym(")")
            return Not(sub)
        if op.text in ("and", "or"):
            left = _parse_concept_expr(ts, sig, depth)
            right = _parse_concept_expr(ts, sig, depth)
            ts.expect_sym(")")
            return And(left, right) if op.text == "and" else Or(left, right)
        if op.text in ("some", "all"):
            role = ts.expect_ident("role name")
            if role.text not in sig.roles:
                raise UndeclaredNameError(f"undeclared role name {role.text!r}",
                                          role.line, role.col)
            filler = _parse_concept_expr(ts, sig, depth)
            ts.expect_sym(")")
            return Exists(role.text, filler) if op.text == "some" else Forall(role.text, filler)
        raise KBSyntaxError(f"expected operator, found {op.text!r}", op.line, op.col)
    raise KBSyntaxError(f"expected concept expression, found {tok.text!r}", tok.line, tok.col)


def _parse_threshold(ts: _TokenStream) -> Fraction:
    tok = ts.expect_number("threshold in [0, 1]")
    return parse_degree(tok.text, tok.line, tok.col)


def _parse_inclusion(ts: _TokenStream, sig: _Signature, lhs: Concept) -> Inclusion:
    """The rest of an inclusion whose left side ``lhs`` has been read."""
    ts.expect_sym("<=")
    rhs = _parse_concept_expr(ts, sig)
    cmp = ts.expect_cmp()
    n = _parse_threshold(ts)
    ts.expect_end()
    return Inclusion(lhs, rhs, cmp, n)


def _at_role_assertion(ts: _TokenStream, sig: _Signature) -> bool:
    """Whether the line goes on with a declared role name applied to
    two individuals."""
    head, nxt = ts.peek(), ts.peek2()
    return (head is not None and head.kind == "ident" and head.text in sig.roles
            and nxt is not None and nxt.text == "(")


def _parse_assertion(ts: _TokenStream, sig: _Signature) -> FuzzyAxiom:
    if _at_role_assertion(ts, sig):
        head = ts.next("role name")
        ts.expect_sym("(")
        a = ts.expect_ident("individual name")
        ts.expect_sym(",")
        b = ts.expect_ident("individual name")
        ts.expect_sym(")")
        cmp = ts.expect_cmp()
        n = _parse_threshold(ts)
        ts.expect_end()
        for ind in (a, b):
            if ind.text not in sig.individuals:
                raise UndeclaredNameError(f"undeclared individual {ind.text!r}", ind.line, ind.col)
        return RoleAssertion(head.text, a.text, b.text, cmp, n)
    return _parse_concept_assertion(ts, sig, _parse_concept_expr(ts, sig))


def _parse_concept_assertion(ts: _TokenStream, sig: _Signature,
                             concept: Concept) -> ConceptAssertion:
    """The rest of a concept assertion whose ``concept`` has been read."""
    ts.expect_sym("(")
    ind = ts.expect_ident("individual name")
    ts.expect_sym(")")
    cmp = ts.expect_cmp()
    n = _parse_threshold(ts)
    ts.expect_end()
    if ind.text not in sig.individuals:
        raise UndeclaredNameError(f"undeclared individual {ind.text!r}", ind.line, ind.col)
    return ConceptAssertion(concept, ind.text, cmp, n)


def _parse_weighted_line(ts: _TokenStream, sig: _Signature, subject: str
                         ) -> WeightedTypicalityInclusion:
    t_tok = ts.expect_ident("'T'")
    if t_tok.text != "T":
        raise KBSyntaxError(f"expected 'T', found {t_tok.text!r}", t_tok.line, t_tok.col)
    ts.expect_sym("(")
    name = ts.expect_ident("distinguished concept name")
    if name.text == "T" and ts.peek() is not None and ts.peek().text == "(":
        raise NestedTypicalityError("typicality operator may not be nested",
                                    name.line, name.col)
    if name.text != subject:
        raise KBSyntaxError(
            f"subject {name.text!r} does not match section 'wtbox {subject}'",
            name.line, name.col)
    ts.expect_sym(")")
    ts.expect_sym("<=")
    consequent = _parse_concept_expr(ts, sig)
    if contains_typ(consequent):
        raise KBSyntaxError("typicality operator not allowed in a weighted consequent",
                            ts.lineno, 1)
    ts.expect_sym("@")
    w_tok = ts.expect_number("weight")
    ts.expect_end()
    return WeightedTypicalityInclusion(subject, consequent,
                                       parse_number(w_tok.text, w_tok.line, w_tok.col))


def _parse_names(ts: _TokenStream, what: str) -> list[str]:
    names: list[str] = []
    while ts.peek() is not None:
        tok = ts.expect_ident(f"{what} name")
        if tok.text in RESERVED:
            raise KBSyntaxError(f"reserved word {tok.text!r} cannot be declared", tok.line, tok.col)
        if tok.text in names:
            raise KBSyntaxError(f"duplicate {what} name {tok.text!r}", tok.line, tok.col)
        names.append(tok.text)
    return names


def parse_kb(text: str) -> WeightedKB:
    """Parse .fkb text into a structurally valid WeightedKB."""
    logic: LogicFamily | None = None
    decls: dict[str, list[str]] = {}
    tbox: list[Inclusion] = []
    abox: list[FuzzyAxiom] = []
    wtbox: dict[str, list[WeightedTypicalityInclusion]] = {}
    section: tuple[str, str | None] | None = None
    sections_started = False
    sig = _Signature(set(), set(), set())

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, lineno)
        if not tokens:
            continue
        ts = _TokenStream(tokens, lineno)
        head = tokens[0]

        if head.kind == "ident" and head.text in _HEADER_WORDS:
            ts.next("header")
            if head.text == "logic":
                if logic is not None:
                    raise KBSyntaxError("duplicate logic line", head.line, head.col)
                if sections_started:
                    raise KBSyntaxError("logic line must come first", head.line, head.col)
                name = ts.expect_ident("logic family")
                ts.expect_end()
                try:
                    logic = logic_from_name(name.text)
                except ValueError as exc:
                    raise KBSyntaxError(str(exc), name.line, name.col) from None
                continue
            if head.text in ("concepts", "roles", "individuals", "distinguished"):
                if sections_started:
                    raise KBSyntaxError(f"{head.text} line must precede sections",
                                        head.line, head.col)
                if head.text in decls:
                    raise KBSyntaxError(f"duplicate {head.text} line", head.line, head.col)
                decls[head.text] = _parse_names(ts, head.text.rstrip("s"))
                continue
            # section headers
            if logic is None:
                raise KBSyntaxError("logic line must come first", head.line, head.col)
            if not sections_started:
                sig = _Signature(set(decls.get("concepts", [])),
                                 set(decls.get("roles", [])),
                                 set(decls.get("individuals", [])))
                for name in decls.get("distinguished", []):
                    if name not in sig.concepts:
                        raise UndeclaredNameError(
                            f"distinguished concept {name!r} is not a declared concept",
                            head.line, head.col)
                sections_started = True
            if head.text in ("tbox", "abox"):
                ts.expect_sym(":")
                section = (head.text, None)
            else:  # wtbox <Name>:
                name = ts.expect_ident("distinguished concept name")
                ts.expect_sym(":")
                if name.text not in decls.get("distinguished", []):
                    raise UndeclaredNameError(
                        f"concept {name.text!r} is not declared distinguished",
                        name.line, name.col)
                section = ("wtbox", name.text)
            if ts.peek() is None:
                continue
            # header line carries its first entry
            tokens = tokens[ts.pos:]
            ts = _TokenStream(tokens, lineno)

        if not sections_started or section is None:
            raise KBSyntaxError(f"expected a header line, found {head.text!r}",
                                head.line, head.col)
        kind, wname = section
        if kind == "tbox":
            tbox.append(_parse_inclusion(ts, sig, _parse_concept_expr(ts, sig)))
        elif kind == "abox":
            abox.append(_parse_assertion(ts, sig))
        else:
            assert wname is not None
            wtbox.setdefault(wname, []).append(_parse_weighted_line(ts, sig, wname))

    if logic is None:
        raise KBSyntaxError("missing logic line", 1, 1)
    if not sections_started:
        for name in decls.get("distinguished", []):
            if name not in decls.get("concepts", []):
                raise UndeclaredNameError(
                    f"distinguished concept {name!r} is not a declared concept", 1, 1)

    return WeightedKB(
        logic=logic,
        concepts=tuple(decls.get("concepts", [])),
        roles=tuple(decls.get("roles", [])),
        individuals=tuple(decls.get("individuals", [])),
        distinguished=tuple(decls.get("distinguished", [])),
        tbox=tuple(tbox),
        abox=tuple(abox),
        wtbox={name: tuple(axs) for name, axs in wtbox.items()},
    )


def _signature_of(kb: WeightedKB) -> _Signature:
    return _Signature(set(kb.concepts), set(kb.roles), set(kb.individuals))


def parse_concept(text: str, kb: WeightedKB) -> Concept:
    """Parse a single concept expression against a KB's signature."""
    ts = _TokenStream(_tokenize_line(text, 1), 1)
    concept = _parse_concept_expr(ts, _signature_of(kb))
    ts.expect_end()
    return concept


def parse_axiom(text: str, kb: WeightedKB) -> FuzzyAxiom:
    """Parse one inclusion or assertion (same grammar as .fkb bodies)."""
    ts = _TokenStream(_tokenize_line(text, 1), 1)
    sig = _signature_of(kb)
    if _at_role_assertion(ts, sig):
        return _parse_assertion(ts, sig)
    first = _parse_concept_expr(ts, sig)
    nxt = ts.peek()
    if nxt is not None and nxt.kind == "sym" and nxt.text == "<=":
        return _parse_inclusion(ts, sig, first)
    return _parse_concept_assertion(ts, sig, first)


def serialize_kb(kb: WeightedKB) -> str:
    """Canonical .fkb text; parse(serialize(kb)) equals kb."""
    lines = [f"logic {kb.logic}"]
    if kb.concepts:
        lines.append("concepts " + " ".join(kb.concepts))
    if kb.roles:
        lines.append("roles " + " ".join(kb.roles))
    if kb.individuals:
        lines.append("individuals " + " ".join(kb.individuals))
    if kb.distinguished:
        lines.append("distinguished " + " ".join(kb.distinguished))
    if kb.tbox:
        lines.append("tbox:")
        lines.extend(str(ax) for ax in kb.tbox)
    ordered = list(kb.distinguished) + [n for n in kb.wtbox if n not in kb.distinguished]
    for name in ordered:
        inclusions = kb.wtbox.get(name, ())
        if inclusions:
            lines.append(f"wtbox {name}:")
            lines.extend(str(incl) for incl in inclusions)
    if kb.abox:
        lines.append("abox:")
        lines.extend(str(ax) for ax in kb.abox)
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Interpretation files (.fint)
# --------------------------------------------------------------------------

def parse_interpretation(text: str, logic: LogicFamily,
                         kb: WeightedKB | None = None) -> FuzzyInterpretation:
    """Parse .fint text.

    With a KB the declared signature comes from it and all names are
    checked; without one the signature is inferred from the entries.
    """
    domain: list[str] = []
    concept_val: dict[tuple[str, str], Fraction] = {}
    role_val: dict[tuple[str, str, str], Fraction] = {}
    individuals: dict[str, str] = {}
    seen_concepts: set[str] = set()
    seen_roles: set[str] = set()

    def check_elem(tok: _Token) -> str:
        if tok.text not in domain:
            raise UndeclaredNameError(f"element {tok.text!r} not in domain", tok.line, tok.col)
        return tok.text

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, lineno)
        if not tokens:
            continue
        ts = _TokenStream(tokens, lineno)
        head = ts.expect_ident("domain / concept / role / individual")
        if head.text == "domain":
            if domain:
                raise KBSyntaxError("duplicate domain line", head.line, head.col)
            while ts.peek() is not None:
                tok = ts.expect_ident("element id")
                if tok.text in domain:
                    raise KBSyntaxError(f"duplicate element {tok.text!r}", tok.line, tok.col)
                domain.append(tok.text)
            if not domain:
                raise KBSyntaxError("domain must be nonempty", head.line, head.col)
        elif head.text == "concept":
            name = ts.expect_ident("concept name")
            if kb is not None and name.text not in kb.concepts:
                raise UndeclaredNameError(f"undeclared concept name {name.text!r}",
                                          name.line, name.col)
            elem = check_elem(ts.expect_ident("element id"))
            deg_tok = ts.expect_number("degree")
            ts.expect_end()
            key = (name.text, elem)
            if key in concept_val:
                raise KBSyntaxError(f"duplicate entry for {name.text}({elem})",
                                    name.line, name.col)
            concept_val[key] = parse_degree(deg_tok.text, deg_tok.line, deg_tok.col)
            seen_concepts.add(name.text)
        elif head.text == "role":
            name = ts.expect_ident("role name")
            if kb is not None and name.text not in kb.roles:
                raise UndeclaredNameError(f"undeclared role name {name.text!r}",
                                          name.line, name.col)
            a = check_elem(ts.expect_ident("element id"))
            b = check_elem(ts.expect_ident("element id"))
            deg_tok = ts.expect_number("degree")
            ts.expect_end()
            key = (name.text, a, b)
            if key in role_val:
                raise KBSyntaxError(f"duplicate entry for {name.text}({a},{b})",
                                    name.line, name.col)
            role_val[key] = parse_degree(deg_tok.text, deg_tok.line, deg_tok.col)
            seen_roles.add(name.text)
        elif head.text == "individual":
            name = ts.expect_ident("individual name")
            if kb is not None and name.text not in kb.individuals:
                raise UndeclaredNameError(f"undeclared individual {name.text!r}",
                                          name.line, name.col)
            elem = check_elem(ts.expect_ident("element id"))
            ts.expect_end()
            if name.text in individuals:
                raise KBSyntaxError(f"duplicate binding for {name.text!r}", name.line, name.col)
            individuals[name.text] = elem
        else:
            raise KBSyntaxError(f"unknown line kind {head.text!r}", head.line, head.col)

    if not domain:
        raise KBSyntaxError("missing domain line", 1, 1)
    if kb is not None:
        missing = [ind for ind in kb.individuals if ind not in individuals]
        if missing:
            raise UndeclaredNameError(f"unbound individuals: {', '.join(missing)}", 1, 1)
        concept_names = kb.concepts
        role_names = kb.roles
    else:
        concept_names = tuple(sorted(seen_concepts))
        role_names = tuple(sorted(seen_roles))

    return FuzzyInterpretation(
        logic=logic,
        domain=tuple(domain),
        concept_names=concept_names,
        role_names=role_names,
        concept_val=concept_val,
        role_val=role_val,
        individuals=individuals,
    )


def serialize_interpretation(interp: FuzzyInterpretation) -> str:
    """Canonical .fint text; zero-degree entries are omitted."""
    lines = ["domain " + " ".join(interp.domain)]
    for name in interp.concept_names:
        for elem in interp.domain:
            d = interp.concept_val.get((name, elem))
            if d:
                lines.append(f"concept {name} {elem} {d}")
    for name in interp.role_names:
        for a in interp.domain:
            for b in interp.domain:
                d = interp.role_val.get((name, a, b))
                if d:
                    lines.append(f"role {name} {a} {b} {d}")
    for ind, elem in interp.individuals.items():
        lines.append(f"individual {ind} {elem}")
    return "\n".join(lines) + "\n"
