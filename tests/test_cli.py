"""End-to-end CLI tests: exit codes, record-format determinism, and the
round trip of emitted countermodels back through check-model."""

import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from fuzzytyp.algebra import LogicFamily
from fuzzytyp.cli import main
from fuzzytyp.parser import MAX_NESTING, parse_kb
from fuzzytyp.syntax import Atomic, Cmp, Inclusion, WeightedKB

DATA = Path(__file__).parent / "data"
PENGUIN_KB = str(DATA / "penguin.fkb")
PENGUIN_INT = str(DATA / "penguin.fint")


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture()
def unfaithful_fint(tmp_path):
    text = (DATA / "penguin.fint").read_text().replace(
        "concept Penguin reddy 0.2", "concept Penguin reddy 0.9")
    path = tmp_path / "variant.fint"
    path.write_text(text)
    return str(path)


class TestCheckModel:
    def test_fixture_is_fm_model(self, capsys):
        code, out = run(capsys, "check-model", PENGUIN_KB, PENGUIN_INT)
        assert code == 0
        assert "W[Bird](reddy) = 120" in out
        assert "W[Bird](opus) = 100" in out
        assert "W[Penguin](reddy) = 30" in out
        assert "W[Penguin](opus) = 120" in out
        assert "fm-model: yes" in out

    def test_unfaithful_variant_fails_with_the_pair(self, capsys, unfaithful_fint):
        code, out = run(capsys, "check-model", PENGUIN_KB, unfaithful_fint)
        assert code == 1
        assert "faithful: no" in out
        assert "Penguin" in out and "reddy" in out and "opus" in out

    def test_each_format_has_each_violation_once(self, capsys, unfaithful_fint):
        _, human = run(capsys, "check-model", PENGUIN_KB, unfaithful_fint)
        _, records = run(capsys, "--format", "records", "check-model", PENGUIN_KB,
                         unfaithful_fint)
        assert [line for line in human.splitlines() if "violation" in line] == [
            "  faithfulness violation for Penguin: (reddy, opus) degrees 9/10/4/5 "
            "weights 30/120 (preferred without higher weight)",
            "  coherence violation for Penguin: (opus, reddy) degrees 4/5/9/10 "
            "weights 120/30 (higher weight without preference)"]
        assert [line for line in records.splitlines() if "violation" in line] == [
            "violation faithfulness Penguin reddy opus 9/10 4/5 30 120",
            "violation coherence Penguin opus reddy 4/5 9/10 120 30"]

    def test_malformed_kb_is_a_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.fkb"
        bad.write_text("logic godel\nconcepts A\ntbox:\nA <= Ghost >= 1\n")
        code, _ = run(capsys, "check-model", str(bad), PENGUIN_INT)
        assert code == 2

    def test_runs_the_strict_part_once(self, capsys, monkeypatch):
        import fuzzytyp.interpretation as interpretation
        original = interpretation.is_model_strict
        calls = []

        def counted(*args):
            calls.append(args)
            return original(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("fuzzytyp") and getattr(module, "is_model_strict", 0) is original:
                monkeypatch.setattr(module, "is_model_strict", counted)
        code, _ = run(capsys, "check-model", PENGUIN_KB, PENGUIN_INT)
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("fint", ["fixture", "unfaithful"])
    def test_computes_each_weight_table_once(self, capsys, monkeypatch, unfaithful_fint, fint):
        # weights, faithfulness and coherence share one table per concept
        import fuzzytyp.weighted as weighted
        original = weighted.scaled_weights
        calls = []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(weighted, "scaled_weights", counted)
        path = PENGUIN_INT if fint == "fixture" else unfaithful_fint
        code, _ = run(capsys, "check-model", PENGUIN_KB, path)
        assert code == (0 if fint == "fixture" else 1)
        kb = parse_kb((DATA / "penguin.fkb").read_text())
        assert len(calls) == len(kb.distinguished) > 0

    def test_records_format(self, capsys):
        code, out = run(capsys, "--format", "records",
                        "check-model", PENGUIN_KB, PENGUIN_INT)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "fuzzytyp-records 1"
        assert "weight Bird reddy 120" in lines
        assert "fm-model true" in lines


class TestEntail:
    def test_refutation_and_recheck(self, capsys, tmp_path):
        saved = tmp_path / "cm.fint"
        code, out = run(capsys, "entail", PENGUIN_KB, "T(Penguin) <= Fly >= 0.9",
                        "--mode", "fm", "--max-domain", "2",
                        "--denominator", "10", "--save-countermodel", str(saved))
        assert code == 1
        assert saved.exists()
        # an fm-mode countermodel is itself an fm-model of the KB
        code2, out2 = run(capsys, "check-model", PENGUIN_KB, str(saved))
        assert code2 == 0
        assert "fm-model: yes" in out2

    def test_goal_present_in_tbox(self, capsys, tmp_path):
        kb = tmp_path / "self.fkb"
        kb.write_text("logic godel\nconcepts A B\ntbox:\nA <= B >= 1\n")
        code, out = run(capsys, "entail", str(kb), "A <= B >= 1",
                        "--max-domain", "2", "--denominator", "2")
        assert code == 0
        assert "no-countermodel" in out

    def test_budget_truncation_has_its_own_exit_code(self, capsys, tmp_path):
        kb = tmp_path / "self.fkb"
        kb.write_text("logic godel\nconcepts A B\n")
        code, out = run(capsys, "entail", str(kb), "A <= Top >= 1",
                        "--max-domain", "2", "--denominator", "6",
                        "--budget", "5")
        assert code == 3
        assert "truncated" in out

    def test_bad_goal_axiom(self, capsys):
        code, _ = run(capsys, "entail", PENGUIN_KB, "T(Ghost) <= Fly >= 1")
        assert code == 2


class TestKlm:
    def test_find_counterexample(self, capsys):
        code, out = run(capsys, "klm-test", "--postulate", "REFL1",
                        "--logic", "godel", "--mode", "find-counterexample",
                        "--trials", "200", "--max-domain", "2",
                        "--denominator", "2", "--seed", "0")
        assert code == 1
        assert "violated" in out
        assert "conclusion" in out

    def test_verify_holds(self, capsys):
        code, out = run(capsys, "klm-test", "--postulate", "REFL0",
                        "--logic", "zadeh", "--mode", "verify",
                        "--trials", "300", "--max-domain", "3",
                        "--denominator", "4")
        assert code == 0
        assert "holds-within-bounds" in out

    def test_records_are_byte_identical_across_runs(self, capsys):
        argv = ["--format", "records", "klm-test", "--postulate", "CM0",
                "--logic", "godel", "--trials", "5000", "--max-domain", "3",
                "--denominator", "4", "--seed", "3"]
        code1, out1 = run(capsys, *argv)
        code2, out2 = run(capsys, *argv)
        assert code1 == code2
        assert out1 == out2

    def test_unknown_postulate_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["klm-test", "--postulate", "NOPE", "--logic", "godel"])
        assert err.value.code == 2

    @pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--trials", "-5"),
                                             ("--depth", "-1"), ("--max-domain", "0"),
                                             ("--denominator", "0")])
    def test_out_of_range_bound_is_usage_error(self, capsys, flag, value):
        code = main(["klm-test", "--postulate", "REFL0", "--logic", "godel", flag, value])
        assert code == 2
        assert "must be >=" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["entail", PENGUIN_KB, "Fly <= Bird >= 1", "--seed", "1"],
    ["klm-test", "--postulate", "REFL0", "--logic", "godel", "--jobs", "2"],
    ["klm-test", "--postulate", "REFL0", "--logic", "godel", "--budget", "5"],
])
def test_a_flag_the_command_would_ignore_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


def test_a_crash_exits_4_never_1(capsys, monkeypatch):
    import fuzzytyp.cli as cli

    def crash(text):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "parse_kb", crash)
    code = main(["parse", PENGUIN_KB])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("error: internal error:") and "boom" in err


class TestNestingLimit:
    """A concept nested MAX_NESTING deep is read; one level deeper is an
    input error with its position, never a crash."""

    CASES = [(MAX_NESTING, 0), (MAX_NESTING + 1, 2), (3000, 2)]

    @staticmethod
    def nested(levels: int) -> str:
        return "(not " * levels + "A" + ")" * levels

    @pytest.mark.parametrize("levels, expected", CASES)
    def test_fkb_line(self, capsys, tmp_path, levels, expected):
        kb = tmp_path / "deep.fkb"
        kb.write_text(f"logic godel\nconcepts A\ntbox:\n{self.nested(levels)} <= Top >= 1\n")
        assert main(["parse", str(kb)]) == expected
        if expected:
            assert "line 4, col" in capsys.readouterr().err

    @pytest.mark.parametrize("levels, expected", CASES)
    def test_entail_goal(self, capsys, tmp_path, levels, expected):
        kb = tmp_path / "flat.fkb"
        kb.write_text("logic godel\nconcepts A\n")
        code = main(["entail", str(kb), f"{self.nested(levels)} <= Top >= 1",
                     "--max-domain", "1", "--denominator", "1"])
        assert code == expected
        if expected:
            assert f"nested deeper than {MAX_NESTING}" in capsys.readouterr().err


class TestMlp:
    NET = ("layers 2 3 1\n"
           "activation 1 hard-sigmoid\nactivation 2 hard-sigmoid\n"
           + "\n".join(f"synapse u0_{i} u1_{j} {w}"
                       for (i, j, w) in [(0, 0, "1/2"), (0, 1, "-2"), (0, 2, "3"),
                                         (1, 0, "1"), (1, 1, "1/3"), (1, 2, "-1")])
           + "\nsynapse u1_0 u2_0 1\nsynapse u1_1 u2_0 -1/2\nsynapse u1_2 u2_0 2\n")
    STIMS = "stimulus s0 1/2 3/4\nstimulus s1 0 1\nstimulus s2 1 0\n"

    def test_exports_three_artifacts(self, capsys, tmp_path):
        net = tmp_path / "net.fnet"
        stim = tmp_path / "net.stim"
        net.write_text(self.NET)
        stim.write_text(self.STIMS)
        code, out = run(capsys, "mlp", str(net), str(stim),
                        "--out-dir", str(tmp_path / "out"))
        assert code == 0
        assert "faithful: yes" in out
        out_dir = tmp_path / "out"
        assert (out_dir / "net.kb.fkb").exists()
        assert (out_dir / "net.interp.fint").exists()
        assert (out_dir / "net.report.txt").exists()
        # the exported KB parses and the exported interpretation
        # re-checks as an fm-model of it
        code2, out2 = run(capsys, "check-model", str(out_dir / "net.kb.fkb"),
                          str(out_dir / "net.interp.fint"))
        assert code2 == 0

    def test_cyclic_net_is_an_error(self, capsys, tmp_path):
        net = tmp_path / "net.fnet"
        net.write_text("layers 1 1\nactivation 1 step\nsynapse u1_0 u0_0 1\n")
        stim = tmp_path / "net.stim"
        stim.write_text("stimulus s0 1\n")
        code, _ = run(capsys, "mlp", str(net), str(stim))
        assert code == 2

    def test_wrong_stimulus_width_is_an_input_error(self, capsys, tmp_path):
        net = tmp_path / "net.fnet"
        net.write_text(self.NET)
        stim = tmp_path / "net.stim"
        stim.write_text("stimulus s 0\n")
        assert main(["mlp", str(net), str(stim)]) == 2
        assert "error: stimulus has 1 components, input layer has 2" in capsys.readouterr().err

    @pytest.mark.parametrize("stims, net_extra", [
        ("stimulus s/1 0 1\n", ""), ("stimulus not 0 1\n", ""),
        ("stimulus s0 0 1\n", "bias Top\n"), ("stimulus s0 0 1\n", "bias b/1\n")])
    def test_names_the_outputs_could_not_read_back(self, capsys, tmp_path, stims, net_extra):
        net = tmp_path / "net.fnet"
        net.write_text(self.NET + net_extra)
        stim = tmp_path / "net.stim"
        stim.write_text(stims)
        code, _ = run(capsys, "mlp", str(net), str(stim), "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert not (tmp_path / "out").exists()

    def test_empty_stimuli_is_an_error(self, capsys, tmp_path):
        net = tmp_path / "net.fnet"
        net.write_text("layers 1 1\nactivation 1 step\nsynapse u0_0 u1_0 1\n")
        stim = tmp_path / "net.stim"
        stim.write_text("")
        code, _ = run(capsys, "mlp", str(net), str(stim))
        assert code == 2


class TestNumberGrammar:
    """Every number of every input format is a ``syntax.NUMBER``
    literal, and .fnet layer sizes and indices are its ``INTEGER``
    part: anything else is an input error, found before any
    arithmetic."""

    NET = "layers 1 1\nactivation 1 step\nsynapse u0_0 u1_0 1\n"
    LINES = {
        "stimulus": (NET, "stimulus s {}\n"),
        "weight": ("layers 1 1\nsynapse u0_0 u1_0 {}\n", "stimulus s 1\n"),
        "layers": ("layers {} 1\n", "stimulus s 1\n"),
        "activation": ("layers 1 1\nactivation {} step\n", "stimulus s 1\n"),
    }

    @pytest.mark.parametrize("where, word", [
        *(("stimulus", w) for w in ("1e5", ".5", "1_0/2_0", "0e10000000", "\u0663")),
        *(("weight", w) for w in ("1e5", ".5")),
        *(("layers", w) for w in ("1_0", "\u0663", "1/1")),
        *(("activation", w) for w in ("1_0", "1.0")),
    ])
    def test_mlp_exits_2_at_once_and_writes_nothing(self, capsys, tmp_path, where, word):
        net, stim = (text.format(word) for text in self.LINES[where])
        (tmp_path / "net.fnet").write_text(net, encoding="utf-8")
        (tmp_path / "net.stim").write_text(stim, encoding="utf-8")
        t0 = time.perf_counter()
        code = main(["mlp", str(tmp_path / "net.fnet"), str(tmp_path / "net.stim"),
                     "--out-dir", str(tmp_path / "out")])
        elapsed = time.perf_counter() - t0
        err = capsys.readouterr().err
        assert code == 2
        assert repr(word) in err and "line" in err and "col" in err
        assert not (tmp_path / "out").exists()
        assert elapsed < 0.5


class TestParse:
    def test_good_kb(self, capsys):
        code, out = run(capsys, "parse", PENGUIN_KB)
        assert code == 0
        assert "ok:" in out

    def test_emit_canonical_form_reparses(self, capsys, tmp_path):
        code, out = run(capsys, "parse", PENGUIN_KB, "--emit")
        assert code == 0
        canonical = "\n".join(line for line in out.splitlines()
                              if not line.startswith("ok:")) + "\n"
        again = tmp_path / "again.fkb"
        again.write_text(canonical)
        code2, _ = run(capsys, "parse", str(again))
        assert code2 == 0

    def test_syntax_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.fkb"
        bad.write_text("concepts A\n")
        code, _ = run(capsys, "parse", str(bad))
        assert code == 2


class TestZeroDenominators:
    """A zero denominator is an input error (exit 2) in every format,
    reported with its line and column, never a crash."""

    FNET = "layers 1 1\nactivation 1 step\nsynapse u0_0 u1_0 1/0\n"
    GOOD_NET = "layers 1 1\nactivation 1 step\nsynapse u0_0 u1_0 1\n"

    @pytest.mark.parametrize("case", ["fkb-weight", "fkb-threshold", "fint-degree",
                                      "fnet-weight", "stimulus"])
    def test_exit_2(self, capsys, tmp_path, case):
        kb = (DATA / "penguin.fkb").read_text()
        fint = (DATA / "penguin.fint").read_text()
        if case == "fkb-weight":
            argv = ["parse", self._write(tmp_path, "kb.fkb", kb.replace("@ 20", "@ 1/0"))]
        elif case == "fkb-threshold":
            bad = kb.replace("(and Yellow Black) <= Bot >= 1", "(and Yellow Black) <= Bot >= 1/0")
            argv = ["parse", self._write(tmp_path, "kb.fkb", bad)]
        elif case == "fint-degree":
            bad = fint.replace("concept Penguin reddy 0.2", "concept Penguin reddy 1/0")
            argv = ["check-model", PENGUIN_KB, self._write(tmp_path, "i.fint", bad)]
        elif case == "fnet-weight":
            argv = ["mlp", self._write(tmp_path, "net.fnet", self.FNET),
                    self._write(tmp_path, "net.stim", "stimulus s0 1\n")]
        else:
            argv = ["mlp", self._write(tmp_path, "net.fnet", self.GOOD_NET),
                    self._write(tmp_path, "net.stim", "stimulus s0 1/0\n")]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert "1/0" in err and "line" in err and "col" in err

    @staticmethod
    def _write(tmp_path, name: str, text: str) -> str:
        path = tmp_path / name
        path.write_text(text)
        return str(path)


def test_logic_override_leaves_the_parsed_kb_alone(capsys, monkeypatch):
    import fuzzytyp.cli as cli
    kb = cli.parse_kb((DATA / "penguin.fkb").read_text())
    monkeypatch.setattr(cli, "parse_kb", lambda text: kb)
    run(capsys, "entail", PENGUIN_KB, "Fly <= Bird >= 1", "--logic", "zadeh",
        "--max-domain", "1", "--budget", "5")
    run(capsys, "check-model", PENGUIN_KB, PENGUIN_INT, "--logic", "lukasiewicz")
    assert kb.logic is LogicFamily.GODEL


@pytest.mark.parametrize("argv", [
    ["entail", PENGUIN_KB, "A <= A >= 1"],
    ["check-model", PENGUIN_KB, PENGUIN_INT],
])
def test_a_kb_that_fails_validation_is_a_usage_error(capsys, monkeypatch, argv):
    # the parser rejects what validation would; a KB from elsewhere
    # must still be validated by every command that loads one
    import fuzzytyp.cli as cli
    kb = WeightedKB(logic=LogicFamily.GODEL, concepts=("A",),
                    tbox=(Inclusion(Atomic("A"), Atomic("Ghost"), Cmp.GE, F(1)),))
    monkeypatch.setattr(cli, "parse_kb", lambda text: kb)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: tbox[0]: undeclared concept name 'Ghost'\n"


def test_klm_records_do_not_depend_on_the_hash_seed():
    """The forcing step draws one value per typical element; set order
    of element names must not decide which element gets which draw."""
    argv = [sys.executable, "-m", "fuzzytyp.cli", "--format", "records", "klm-test",
            "--postulate", "AND0", "--logic", "zadeh", "--mode", "verify",
            "--trials", "500", "--seed", "3", "--max-domain", "5",
            "--denominator", "6", "--depth", "2"]
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(argv, env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
