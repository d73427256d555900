"""Command-line front end.

Subcommands: check-model, entail, klm-test, mlp, parse.
Exit codes: 0 success/holds, 1 refuted/violated/not-a-model, 2 usage or
input errors, 3 search truncated by the budget, 4 internal error.

Record output (--format records) is line-delimited structured text with
a versioned header; identical inputs, flags, and seed produce byte
identical output.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from dataclasses import replace
from pathlib import Path

from fuzzytyp.algebra import logic_from_name
from fuzzytyp.engine import NoCountermodel, Refuted, SearchConfig, check_entailment_bounded
from fuzzytyp.mlp import parse_net, parse_stimuli, verify_network_faithfulness
from fuzzytyp.parser import (
    parse_axiom,
    parse_interpretation,
    parse_kb,
    serialize_interpretation,
    serialize_kb,
)
from fuzzytyp.postulates import (
    POSTULATES,
    HoldsWithinBounds,
    ShapeBound,
    Violated,
    search_counterexample,
)
from fuzzytyp.syntax import KBError, WeightedKB, concept_to_text, validate_kb
from fuzzytyp.weighted import is_coherent, is_fm_model, weight_table

RECORDS_HEADER = "fuzzytyp-records 1"

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_TRUNCATED = 3
EXIT_INTERNAL = 4


def _bound_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--max-domain", type=int, default=2, metavar="N",
                     help="largest domain size (default 2)")
    sub.add_argument("--denominator", type=int, default=2, metavar="Q",
                     help="degree grid denominator (default 2)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzytyp",
        description="Reasoning workbench for fuzzy ALC with typicality: "
                    "model checking, weighted KBs, bounded countermodel search.")
    parser.add_argument("--format", choices=["human", "records"], default="human")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check-model", help="check fm-modelhood of an interpretation")
    p.add_argument("kb", type=Path)
    p.add_argument("interpretation", type=Path)
    p.add_argument("--logic", help="override the KB's logic family")

    p = subs.add_parser("entail", help="bounded countermodel search for a goal axiom")
    p.add_argument("kb", type=Path)
    p.add_argument("axiom", help="goal axiom in .fkb body syntax")
    p.add_argument("--logic", help="override the KB's logic family")
    p.add_argument("--mode", choices=["plain", "fm"], default="plain")
    p.add_argument("--save-countermodel", type=Path, metavar="PATH")
    _bound_flags(p)
    p.add_argument("--budget", type=int, default=200_000,
                   help="max interpretations examined (default 200000)")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")

    p = subs.add_parser("klm-test", help="verify or refute a KLM postulate variant")
    p.add_argument("--postulate", required=True, choices=sorted(POSTULATES))
    p.add_argument("--logic", required=True)
    p.add_argument("--mode", choices=["verify", "find-counterexample"],
                   default="find-counterexample",
                   help="names the intent only: both modes run the same seeded search")
    p.add_argument("--trials", type=int, default=2000,
                   help="random interpretation and instantiation draws (default 2000)")
    p.add_argument("--depth", type=int, default=2, help="concept shape bound")
    _bound_flags(p)
    p.add_argument("--seed", type=int, default=0, help="seed of the random search")

    p = subs.add_parser("mlp", help="translate a feed-forward net and verify faithfulness")
    p.add_argument("net", type=Path)
    p.add_argument("stimuli", type=Path)
    p.add_argument("--logic", default="godel")
    p.add_argument("--out-dir", type=Path, default=None,
                   help="where to write the .fkb/.fint/report files (default: beside the net)")

    p = subs.add_parser("parse", help="syntax-check a KB file")
    p.add_argument("kb", type=Path)
    p.add_argument("--emit", action="store_true", help="print the canonical form")

    return parser


class _Printer:
    def __init__(self, records: bool):
        self.records = records
        self.lines: list[str] = [RECORDS_HEADER] if records else []

    def rec(self, *fields: object) -> None:
        if self.records:
            self.lines.append(" ".join(str(f) for f in fields))

    def human(self, text: str) -> None:
        if not self.records:
            self.lines.append(text)

    def both(self, text: str, *fields: object) -> None:
        self.rec(*fields)
        self.human(text)

    def flush(self) -> None:
        sys.stdout.write("\n".join(self.lines) + ("\n" if self.lines else ""))


def _load_kb(args) -> WeightedKB:
    """The KB file ``args.kb``, validated (a violation is a ``KBError``),
    in the logic family ``--logic`` names, if it names one."""
    kb = parse_kb(args.kb.read_text())
    problems = validate_kb(kb)
    if problems:
        raise KBError("; ".join(str(p) for p in problems))
    return kb if args.logic is None else replace(kb, logic=logic_from_name(args.logic))


def _emit_interpretation(out: _Printer, interp, prefix: str) -> None:
    for line in serialize_interpretation(interp).splitlines():
        out.rec(prefix, line)
        out.human(f"    {line}")


def _emit_violations(out: _Printer, violations) -> None:
    for v in violations:  # a net's coherence check can fail on thousands of pairs
        if out.records:
            out.rec("violation", v.kind, v.concept, v.x, v.y,
                    v.degree_x, v.degree_y, v.weight_x, v.weight_y)
        else:
            out.human(f"  {v}")


def cmd_check_model(args, out: _Printer) -> int:
    kb = _load_kb(args)
    interp = parse_interpretation(args.interpretation.read_text(), kb.logic, kb)

    report = is_fm_model(interp, kb)
    out.both(f"strict part: {'satisfied' if report.strict_ok else 'violated'}",
             "strict", str(report.strict_ok).lower())
    for v in report.strict_violations:
        out.both(f"  strict violation: {v}", "strict-violation", v.axiom, v.degree)

    out.human("weights:")
    for (name, elem), w in weight_table(interp, kb).items():
        out.both(f"  W[{name}]({elem}) = {w}", "weight", name, elem, w)

    out.both(f"faithful: {'yes' if report.faithful else 'no'}",
             "faithful", str(report.faithful).lower())
    _emit_violations(out, report.faithfulness_violations)
    coherent, cviol = is_coherent(interp, kb)
    out.both(f"coherent: {'yes' if coherent else 'no'}", "coherent", str(coherent).lower())
    _emit_violations(out, [v for v in cviol if v.kind == "coherence"])
    out.both(f"fm-model: {'yes' if report.is_fm_model else 'no'}",
             "fm-model", str(report.is_fm_model).lower())
    return EXIT_OK if report.is_fm_model else EXIT_REFUTED


def cmd_entail(args, out: _Printer) -> int:
    kb = _load_kb(args)
    goal = parse_axiom(args.axiom, kb)
    config = SearchConfig(logic=kb.logic, max_domain_size=args.max_domain,
                          denominator=args.denominator, budget=args.budget,
                          mode=args.mode, jobs=args.jobs)
    verdict = check_entailment_bounded(kb, goal, config)

    if isinstance(verdict, Refuted):
        out.both(f"refuted: countermodel found ({verdict.stats})", "verdict", "refuted")
        out.rec("examined", verdict.stats.examined)
        out.rec("models", verdict.stats.models_found)
        out.human("countermodel:")
        _emit_interpretation(out, verdict.countermodel, "cm")
        if args.save_countermodel:
            args.save_countermodel.write_text(
                serialize_interpretation(verdict.countermodel))
            out.human(f"countermodel written to {args.save_countermodel}")
        return EXIT_REFUTED
    assert isinstance(verdict, NoCountermodel)
    kind = "truncated" if verdict.stats.truncated else "no-countermodel"
    out.both(f"{kind} within bounds ({verdict.stats})", "verdict", kind)
    out.rec("examined", verdict.stats.examined)
    out.rec("models", verdict.stats.models_found)
    return EXIT_TRUNCATED if verdict.stats.truncated else EXIT_OK


def cmd_klm(args, out: _Printer) -> int:
    logic = logic_from_name(args.logic)
    verdict = search_counterexample(args.postulate, logic, ShapeBound(max_depth=args.depth),
                                    max_domain_size=args.max_domain,
                                    denominator=args.denominator, trials=args.trials,
                                    seed=args.seed)

    if isinstance(verdict, Violated):
        check = verdict.check
        out.both(f"violated: {args.postulate} fails in {logic}", "verdict", "violated")
        for var, concept in sorted(check.substitution.items()):
            out.both(f"  {var} := {concept_to_text(concept)}",
                     "subst", var, concept_to_text(concept))
        for premise, degree in zip(check.premises, check.premise_degrees):
            out.both(f"  premise {premise}  [degree {degree}]",
                     "premise", str(premise), degree)
        out.both(f"  conclusion {check.conclusion}  [degree {check.conclusion_degree}]",
                 "conclusion", str(check.conclusion), check.conclusion_degree)
        out.human("witness interpretation:")
        _emit_interpretation(out, verdict.interp, "cm")
        out.rec("trials", verdict.stats.trials)
        return EXIT_REFUTED
    assert isinstance(verdict, HoldsWithinBounds)
    s = verdict.stats
    out.both(f"holds-within-bounds: {args.postulate} in {logic} "
             f"({s.trials} trials, {s.engaged} engaged, {s.vacuous} vacuous, "
             f"{s.uncertified} uncertified)",
             "verdict", "holds-within-bounds")
    out.rec("trials", s.trials)
    out.rec("engaged", s.engaged)
    out.rec("vacuous", s.vacuous)
    out.rec("uncertified", s.uncertified)
    return EXIT_OK


def cmd_mlp(args, out: _Printer) -> int:
    net = parse_net(args.net.read_text())
    stimuli = parse_stimuli(args.stimuli.read_text())
    logic = logic_from_name(args.logic)
    report = verify_network_faithfulness(net, stimuli, logic)

    out_dir = args.out_dir if args.out_dir is not None else args.net.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = args.net.stem
    kb_path = out_dir / f"{stem}.kb.fkb"
    fint_path = out_dir / f"{stem}.interp.fint"
    report_path = out_dir / f"{stem}.report.txt"
    kb_path.write_text(serialize_kb(report.kb))
    fint_path.write_text(serialize_interpretation(report.interpretation))

    lines = [f"faithful: {'yes' if report.faithful else 'no'}"]
    for (name, elem), w in report.weights.items():
        lines.append(f"W[{name}]({elem}) = {w}")
    for v in report.fm_report.faithfulness_violations:
        lines.append(str(v))
    report_path.write_text("\n".join(lines) + "\n")

    out.both(f"faithful: {'yes' if report.faithful else 'no'}",
             "faithful", str(report.faithful).lower())
    _emit_violations(out, report.fm_report.faithfulness_violations)
    out.both(f"wrote {kb_path}, {fint_path}, {report_path}",
             "outputs", kb_path, fint_path, report_path)
    return EXIT_OK if report.faithful else EXIT_REFUTED


def cmd_parse(args, out: _Printer) -> int:
    kb = parse_kb(args.kb.read_text())
    problems = validate_kb(kb)
    for p in problems:
        out.both(f"violation: {p}", "violation", p.path, p.message)
    if problems:
        return EXIT_USAGE
    out.both(f"ok: {len(kb.tbox)} strict inclusions, "
             f"{sum(len(v) for v in kb.wtbox.values())} weighted inclusions, "
             f"{len(kb.abox)} assertions",
             "ok", len(kb.tbox), sum(len(v) for v in kb.wtbox.values()), len(kb.abox))
    if args.emit:
        for line in serialize_kb(kb).splitlines():
            out.both(line, "kb", line)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = _Printer(records=args.format == "records")
    handlers = {
        "check-model": cmd_check_model,
        "entail": cmd_entail,
        "klm-test": cmd_klm,
        "mlp": cmd_mlp,
        "parse": cmd_parse,
    }
    try:
        code = handlers[args.command](args, out)
    except (KBError, ValueError, OSError) as exc:
        out.flush()
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a crash must never read as a verdict
        out.flush()
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL
    out.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
