import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from negabase.cli import main
from negabase.syntax import parse_base


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv, "--json")
    return code, json.loads(out)


class TestExpand:
    def test_greedy_minus_half(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--base", "phi", "--x", "-1/2",
                               "--kind", "greedy")
        assert code == 0
        assert "(111000)" in out

    def test_is_minus_half(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--base", "phi", "--x", "-1/2",
                               "--kind", "is")
        assert code == 0 and "(100)" in out

    def test_greedy_zero(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--base", "phi", "--x", "0",
                               "--kind", "greedy")
        assert code == 0 and "01(10)" in out

    def test_json_report(self, capsys):
        code, rep = run_json(capsys, "expand", "--base", "phi", "--x", "-1/2",
                             "--kind", "greedy")
        assert code == 0
        assert rep["schema"] == 1
        assert rep["status"] == "OK"
        assert rep["base"]["min_poly"] == [-1, -1, 1]
        assert rep["x"]["coeffs"] == ["-1/2", "0"]
        assert rep["result"]["word"] == "(111000)"
        assert rep["result"]["period_length"] == 6
        assert rep["round_trip"] is True
        assert rep["interval"]["l"] == ["-1", "0"]

    def test_lazy_kind(self, capsys):
        code, rep = run_json(capsys, "expand", "--base", "phi", "--x", "-1/2",
                             "--kind", "lazy")
        assert code == 0 and rep["result"]["word"] == "1(001110)"

    def test_beta2_kinds(self, capsys):
        code, rep = run_json(capsys, "expand", "--base", "phi", "--x", "-1/2",
                             "--kind", "beta2-greedy")
        assert code == 0
        assert rep["result"]["word"] == "(1:1.1:0.0:0)"
        assert rep["round_trip"] is True
        code, rep = run_json(capsys, "expand", "--base", "phi", "--x", "-1/2",
                             "--kind", "beta2-lazy")
        assert code == 0
        assert rep["result"]["word"].startswith("1:0(")
        assert rep["round_trip"] is True

    def test_depth_mode(self, capsys):
        code, rep = run_json(capsys, "expand", "--base", "phi", "--x", "-1/2",
                             "--kind", "greedy", "--depth", "4")
        assert code == 0
        assert rep["result"]["word"] == "1110"
        assert rep["round_trip"] is False

    def test_domain_error_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "expand", "--base", "phi", "--x", "5",
                                 "--kind", "greedy")
        assert code == 2
        assert "outside" in err

    @pytest.mark.parametrize("kind", ["greedy", "lazy", "beta2-greedy", "beta2-lazy"])
    def test_domain_error_builds_no_table(self, capsys, monkeypatch, kind):
        # the beta^2 scheme of 1001/3 has 111 556 cells and takes seconds to build
        monkeypatch.setattr("negabase.schemes.all_pair_digits",
                            lambda *a: pytest.fail("tables built"))
        code, out, err = run_cli(capsys, "expand", "--base", "1001/3", "--x", "1/7",
                                 "--kind", kind)
        assert (code, out) == (2, "")
        assert err == "error: x = 1/7 outside [-999999/1001992, 2997/1001992]\n"

    @pytest.mark.parametrize("kind", ["greedy", "lazy", "is", "beta2-greedy", "beta2-lazy"])
    def test_domain_error_before_depth_error(self, capsys, kind):
        code, _, err = run_cli(capsys, "expand", "--base", "phi", "--x", "5",
                               "--depth", "0", "--kind", kind)
        assert code == 2 and "x = 5 outside" in err

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "expand", "--base", "sqrt2", "--x", "0")
        assert code == 2

    def test_period_not_found_exit_3(self, capsys, monkeypatch):
        monkeypatch.setenv("NEGABASE_ORBIT_BUDGET", "25")
        code, rep = run_json(capsys, "expand", "--base", "phi",
                             "--x", "104729/1048576", "--kind", "greedy")
        assert code == 3
        assert rep["status"] == "PERIOD_NOT_FOUND"

    def test_period_not_found_reports_no_value(self, capsys):
        # the 10 000-digit prefix of 1/4 in base -7/4 is not a value of x,
        # and its exact value has too many digits to print
        code, rep = run_json(capsys, "expand", "--base", "7/4", "--x", "1/4")
        assert code == 3
        assert rep["status"] == "PERIOD_NOT_FOUND"
        assert rep["evaluated"] is None and rep["round_trip"] is None
        code, out, _ = run_cli(capsys, "expand", "--base", "7/4", "--x", "1/4")
        assert code == 3
        assert "round-trip" not in out and "status: PERIOD_NOT_FOUND" in out

    def test_error_report_in_json(self, capsys):
        code, rep = run_json(capsys, "expand", "--base", "phi", "--x", "5")
        assert code == 2 and rep["status"] == "ERROR"


@pytest.mark.parametrize("base, x", [("phi", "-1/2"), ("phi", "0"), ("phi", "-1"),
                                     ("tribonacci", "-1/3"), ("7/4", "-1/3")])
def test_beta2_kinds_group_the_greedy_and_lazy_words(capsys, monkeypatch, base, x):
    from negabase import (build_beta2_scheme, format_word, greedy_neg_beta, lazy_neg_beta,
                          parse_element, psi_inverse, run_scheme)
    ctx = parse_base(base)
    point = parse_element(x, ctx)
    for budget in range(1, 6):
        monkeypatch.setenv("NEGABASE_ORBIT_BUDGET", str(budget))
        for depth in (None, 1, 2, 3, 4):
            if depth is not None and depth > budget:
                continue   # refused before any orbit runs
            for kind, expand in (("greedy", greedy_neg_beta), ("lazy", lazy_neg_beta)):
                argv = ["expand", "--base", base, "--x", x, "--kind", f"beta2-{kind}"]
                code, rep = run_json(capsys, *argv, *(() if depth is None else
                                                      ("--depth", str(depth))))
                letters = expand(point, None if depth is None else 2 * depth, 2 * budget)
                pairs = run_scheme(build_beta2_scheme(ctx, kind), point, depth, budget)
                assert psi_inverse(letters.word) == pairs.word
                assert rep["result"]["word"] == format_word(psi_inverse(letters.word))
                assert rep["result"]["status"] == ("OK" if letters.ok else "PERIOD_NOT_FOUND")
                assert rep["result"]["endpoint"] == letters.endpoint == pairs.endpoint
                assert code == (0 if letters.ok else 3), (kind, budget, depth)


@pytest.mark.parametrize("name, argv", [
    ("NEGABASE_ORBIT_BUDGET", ("expand", "--base", "phi", "--x", "0")),
    ("NEGABASE_NODE_BUDGET", ("branches", "--base", "phi", "--x", "0", "--depth", "4"))])
@pytest.mark.parametrize("value", ["abc", "1.5", "0", "-3"])
def test_budget_variables_take_positive_integers(capsys, monkeypatch, name, argv, value):
    monkeypatch.setenv(name, value)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and not out
    assert err == f"error: {name} must be a positive integer, got {value!r}\n"
    code, rep = run_json(capsys, *argv)
    assert code == 2 and rep["status"] == "ERROR" and name in rep["error"]


@pytest.mark.parametrize("command", ["expand", "compare"])
def test_depth_above_the_orbit_budget_exit_2(capsys, monkeypatch, command):
    monkeypatch.setenv("NEGABASE_ORBIT_BUDGET", "50")
    argv = (command, "--base", "phi", "--x", "-1/2", "--depth")
    code, out, err = run_cli(capsys, *argv, "51")
    assert code == 2 and not out
    assert err == "error: --depth 51 is above the orbit budget 50 (NEGABASE_ORBIT_BUDGET)\n"
    code, rep = run_json(capsys, *argv, "51")
    assert code == 2 and rep["status"] == "ERROR"
    code, _, _ = run_cli(capsys, *argv, "50")
    assert code == 0


def _nested(core):
    return "(" * 3000 + core + ")" * 3000


@pytest.mark.parametrize("argv, message", [
    (("alphabet", "--base", f"root({_nested('x')}^2-3, 1, 2)"), "expression nested too deeply"),
    (("alphabet", "--base", "root(((x+1)^100)^100-3, 1, 2)"), "degree 200 is above 100"),
    # a bracket end that is no constant expression is read as a rational literal
    (("alphabet", "--base", f"root(x^2-3, 1, {_nested('2')})"), "bad rational literal"),
    (("alphabet", "--base", "root(x^2-3, 1, ((x+2)^100)^100)"), "bad rational literal"),
    (("expand", "--base", "phi", "--x", _nested("b"), "--depth", "2"), "expression nested too deeply"),
    (("expand", "--base", "phi", "--x", "(((b+1)^100)^100)", "--depth", "2"), "degree 200 is above 100"),
    # a constant to nested powers: the degree stays 0, the size is refused
    (("alphabet", "--base", "root(x^2-3, 1, ((2^100)^100)^100)"), "bad rational literal"),
    (("expand", "--base", "phi", "--x", "(((2^100)^100)^100)^100", "--depth", "1"),
     "a power of about 1000100 bits is above 65536"),
    # input that stops where a term is due names its end, not the parser's end marker
    (("expand", "--base", "phi", "--x", "("), "unexpected end of input"),
    (("expand", "--base", "phi", "--x", "1+"), "unexpected end of input"),
    (("expand", "--base", "phi", "--x", "2*"), "unexpected end of input"),
    (("expand", "--base", "phi", "--x", "-"), "unexpected end of input"),
    (("alphabet", "--base", "root(, 1, 2)"), "unexpected end of input"),
], ids=["base-nesting", "base-degree", "end-nesting", "end-degree", "x-nesting", "x-degree",
        "end-bits", "x-bits", "x-open", "x-plus", "x-times", "x-minus", "base-empty"])
def test_parse_errors_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and not out and err.startswith(f"error: {message}")
    code, rep = run_json(capsys, *argv)
    assert code == 2
    assert rep == {"schema": 1, "command": argv[0], "status": "ERROR", "error": rep["error"]}
    assert rep["error"].startswith(message)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="the interpreter has no int <-> str limit")
class TestExactValuesOfAnySize:
    # each command lifts the interpreter's 4300-digit limit and restores it
    def test_long_decimal(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, rep = run_json(capsys, "expand", "--base", "phi", "--x", "0." + "3" * 5000,
                             "--depth", "3")
        assert code == 0 and rep["x"]["coeffs"][0] == "3" * 5000 + "/1" + "0" * 5000
        assert sys.get_int_max_str_digits() == limit

    def test_long_unique_sample(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, rep = run_json(capsys, "unique", "--base", "2.8", "--samples", "1",
                             "--length", "2000", "--depth", "2")
        assert code == 0 and len(rep["samples"][0]["word"]) == 2 + 2 * 2000   # pair digits
        assert len(rep["samples"][0]["value"][0]) > 4300
        assert sys.get_int_max_str_digits() == limit


class TestAdmissible:
    def test_pairs_reject(self, capsys):
        code, out, _ = run_cli(capsys, "admissible", "--base", "phi",
                               "--pairs", "1:1.0:0", "--level", "pairs-greedy")
        assert code == 0
        assert out.startswith("REJECT")

    def test_binary_is_accept(self, capsys):
        code, out, _ = run_cli(capsys, "admissible", "--binary-is", "(100)")
        assert code == 0 and out.startswith("ACCEPT")

    def test_binary_golden(self, capsys):
        code, rep = run_json(capsys, "admissible", "--binary-golden", "0(011101)")
        assert code == 0 and rep["accepted"] is True

    def test_binary_checks_refuse_other_bases(self, capsys):
        code, _, err = run_cli(capsys, "admissible", "--base", "7/4", "--binary-is", "100")
        assert code == 2 and "golden-ratio presets" in err

    @pytest.mark.parametrize("base", ["root(x^2-x-1, 3/2, 2)", "root(2x^2-2x-2, 1, 2)"])
    def test_binary_checks_take_phi_in_any_bracket(self, capsys, base):
        # x^2 - x - 1 has one root above 1, so any bracket that holds it names phi
        code, rep = run_json(capsys, "admissible", "--base", base, "--binary-golden", "1010")
        assert code == 0 and rep["accepted"] is True
        assert rep["base"] == {"text": "phi", "min_poly": [-1, -1, 1],
                               "isolating_interval": ["1", "2"], "floor": 1}
        code, out, _ = run_cli(capsys, "admissible", "--base", base, "--binary-is", "(100)")
        assert code == 0 and out.startswith("ACCEPT: (100) ")

    def test_level_needs_pairs(self, capsys):
        # a binary word has no pair level: refused, not checked at its own level
        for option in ("--binary-golden", "--binary-is"):
            code, out, err = run_cli(capsys, "admissible", option, "1010",
                                     "--level", "pairs-lazy")
            assert code == 2 and out == ""
            assert "--level" in err and "--pairs" in err
            code, rep = run_json(capsys, "admissible", option, "1010", "--level", "pairs-greedy")
            assert code == 2 and rep["status"] == "ERROR"
            assert "--level" in rep["error"] and "--pairs" in rep["error"]

    @pytest.mark.parametrize("option, word", [("--binary-golden", "1021"),
                                              ("--binary-is", "10(23)")])
    def test_a_digit_that_is_not_binary_exit_2(self, capsys, option, word):
        code, out, err = run_cli(capsys, "admissible", option, word)
        assert (code, out, err) == (2, "", "error: digit 2 is not binary\n")
        code, rep = run_json(capsys, "admissible", option, word)
        assert code == 2
        assert rep == {"schema": 1, "command": "admissible", "status": "ERROR",
                       "error": "digit 2 is not binary"}

    def test_pairs_lazy_level(self, capsys):
        code, out, _ = run_cli(capsys, "admissible", "--base", "phi",
                               "--pairs", "0:0.1:1", "--level", "pairs-lazy")
        assert code == 0 and out.startswith("REJECT")

    def test_pairs_need_base(self, capsys):
        code, _, err = run_cli(capsys, "admissible", "--pairs", "1:1")
        assert code == 2

    def test_bounds_not_computed_without_a_critical_digit(self, capsys, monkeypatch):
        # 1:0 and 0:0 are not critical digits for 7/4, so no reference orbit runs
        def refuse(*args, **kwargs):
            raise AssertionError("reference orbit computed")

        monkeypatch.setattr("negabase.admissibility.run_scheme", refuse)
        code, rep = run_json(capsys, "admissible", "--base", "7/4",
                             "--pairs", "1:0(0:0)", "--level", "pairs-greedy")
        assert code == 0 and rep["verdict"] == "admissible"

    def test_undecided_exit_3(self, capsys, monkeypatch):
        from fractions import Fraction

        from negabase import (format_word, minimal_alphabet, rational_field,
                              reference_bounds)
        from negabase.words import DigitString

        monkeypatch.setenv("NEGABASE_ORBIT_BUDGET", "3")
        ctx = rational_field(Fraction(7, 4))
        bounds = reference_bounds(ctx, orbit_budget=3)
        info = minimal_alphabet(ctx)
        trigger = next(p for p in info.greedy if p.b >= 1 and p.a == ctx.floor_beta)
        word = DigitString((trigger,) + bounds.mid.word.preperiod, (info.greedy[0],))
        code, rep = run_json(capsys, "admissible", "--base", "7/4",
                             "--pairs", format_word(word, pair=True),
                             "--level", "pairs-greedy")
        assert code == 3
        assert rep["status"] == "UNDECIDED"


class TestAlphabet:
    def test_phi(self, capsys):
        code, rep = run_json(capsys, "alphabet", "--base", "phi")
        assert code == 0
        assert rep["greedy_alphabet"] == ["1:0", "1:1", "0:0"]
        assert rep["full"] is False

    def test_tribonacci(self, capsys):
        code, rep = run_json(capsys, "alphabet", "--base", "tribonacci")
        assert code == 0
        assert rep["greedy_alphabet"] == ["1:0", "1:1", "0:0", "0:1"]
        assert rep["full"] is True


class TestUnique:
    def test_28(self, capsys):
        code, rep = run_json(capsys, "unique", "--base", "2.8", "--depth", "8",
                             "--samples", "4")
        assert code == 0
        assert rep["all_unique_at_depth"] is True
        assert all(s["branch_count"] == 1 for s in rep["samples"])

    def test_below_threshold(self, capsys):
        code, _, err = run_cli(capsys, "unique", "--base", "1.5")
        assert code == 2 and "sqrt(3)" in err

    @pytest.mark.parametrize("option, name", [("--samples", "samples"),
                                              ("--length", "word_length")])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_nothing_to_sample_exit_2(self, capsys, option, name, value):
        code, out, err = run_cli(capsys, "unique", "--base", "2.8", option, value)
        assert code == 2 and not out and err == f"error: {name} must be at least 1\n"

    def test_length_past_the_limit_exit_2(self, capsys):
        # the sampled period's exact value is refused past 4096 letters, before
        # it is built; 4096 itself samples
        code, out, err = run_cli(capsys, "unique", "--base", "2.8", "--samples", "1",
                                 "--length", "4097")
        assert code == 2 and not out and err == "error: word_length must be at most 4096\n"
        code, rep = run_json(capsys, "unique", "--base", "2.8", "--samples", "1",
                             "--length", "4096", "--depth", "2")
        assert code == 0 and len(rep["samples"][0]["word"]) == 2 + 2 * 4096


class TestBranches:
    def test_counts_and_prefixes(self, capsys):
        code, rep = run_json(capsys, "branches", "--base", "phi", "--x", "-1/2",
                             "--depth", "6")
        assert code == 0
        assert rep["count"] == len(rep["prefixes"])
        assert "111000" in rep["prefixes"]
        assert "100111" in rep["prefixes"]

    def test_unique_point(self, capsys):
        code, rep = run_json(capsys, "branches", "--base", "phi", "--x", "-1",
                             "--depth", "4")
        assert code == 0 and rep["prefixes"] == ["1010"]


class TestCompare:
    def test_minus_half_table(self, capsys):
        code, rep = run_json(capsys, "compare", "--base", "phi", "--x", "-1/2")
        assert code == 0
        assert rep["expansions"]["greedy"]["word"] == "(111000)"
        assert rep["expansions"]["lazy"]["word"] == "1(001110)"
        assert rep["expansions"]["ito_sadahiro"]["word"] == "(100)"
        assert rep["alternate_order"] == {"lazy_vs_is": "LT", "is_vs_greedy": "LT"}

    def test_outside_is_domain(self, capsys):
        code, _, err = run_cli(capsys, "compare", "--base", "phi", "--x", "-1")
        assert code == 2 and "Ito-Sadahiro domain" in err

    def test_verdict_reads_every_known_digit(self, capsys):
        # the words first differ past digit 60: at depth 120 the verdict is
        # decided, not UNDECIDED
        code, rep = run_json(capsys, "compare", "--base", "tribonacci", "--x", "3/10",
                             "--depth", "120")
        assert code == 0 and rep["status"] == "OK"
        assert rep["alternate_order"] == {"lazy_vs_is": "LT", "is_vs_greedy": "LT"}
        # equal known digits stay undecided
        code, rep = run_json(capsys, "compare", "--base", "tribonacci", "--x", "3/10",
                             "--depth", "60")
        assert code == 3 and rep["alternate_order"]["is_vs_greedy"] == "UNDECIDED"


def test_order_verdict_eq():
    from negabase import greedy_neg_beta, lazy_neg_beta, phi_field
    from negabase.cli import _order_verdict

    # a point whose greedy and lazy expansions coincide
    phi = phi_field()
    g = greedy_neg_beta(phi.element(-1))
    l = lazy_neg_beta(phi.element(-1))
    assert _order_verdict(g, l) == "EQ"


def test_round_trip_by_equality_needs_no_fallback(capsys):
    # the prefix's value misses x by about beta^-4000, so the sign of the
    # difference would fall back; the equality test reads the vectors
    ctx = parse_base("phi")
    before = ctx.fallback_count()
    assert main(["expand", "--base", "phi", "--x", "-1/2", "--depth", "4000", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["round_trip"] is False
    assert ctx.fallback_count() == before


def test_byte_determinism(capsys):
    args = ["compare", "--base", "phi", "--x", "-1/2", "--json"]
    code1 = main(args)
    out1 = capsys.readouterr().out
    code2 = main(args)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("unbuffered", [
    False,  # the report waits in the buffer for the flush at exit
    True,   # print itself hits the closed pipe
])
def test_closed_stdout_exits_1_without_traceback(unbuffered):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    # argparse prints --help and exits inside parse_args
    for argv in (["branches", "--base", "phi", "--x", "-1/2", "--depth", "14"], ["--help"]):
        r, w = os.pipe()
        os.close(r)   # no reader: the child's first write to stdout fails
        try:
            proc = subprocess.run([sys.executable, "-m", "negabase.cli", *argv],
                                  stdout=w, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(w)
        assert proc.returncode == 1, argv
        assert proc.stderr == b"", argv


def test_cold_import_builds_two_dataclasses_and_loads_neither_typing_nor_random():
    # without site, whose hooks may load any of these modules, the import path
    # of the command and of the bare package shows what each loads itself;
    # dataclasses comes in only when the probe imports it
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); __import__(sys.argv[2])\n"
        "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))\n"
        "import dataclasses\n"
        "print(sorted({'typing', 'random'} & sys.modules.keys()))\n"
        "print(sorted(c.__name__ for n, m in list(sys.modules.items()) if n.startswith('negabase')\n"
        "             for c in vars(m).values() if isinstance(c, type)\n"
        "             and c.__module__ == n and dataclasses.is_dataclass(c)))")
    for module in ("negabase.cli", "negabase"):
        proc = subprocess.run([sys.executable, "-S", "-c", probe, src, module],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "[]", "['AdmissibilityReport', 'Expansion']"], \
            module


ENVELOPE_ARGV = [
    ("expand", "--base", "phi", "--x", "-1/2"),
    ("admissible", "--binary-is", "(100)"),
    ("alphabet", "--base", "phi"),
    ("unique", "--base", "2.8", "--samples", "1", "--depth", "4"),
    ("branches", "--base", "phi", "--x", "-1/2", "--depth", "4"),
    ("compare", "--base", "phi", "--x", "-1/2"),
]


@pytest.mark.parametrize("argv", ENVELOPE_ARGV, ids=[a[0] for a in ENVELOPE_ARGV])
def test_report_envelope(capsys, argv):
    # one driver writes the envelope: a report begins schema, command, status,
    # base (then interval and x where there is an --x)
    code, rep = run_json(capsys, *argv)
    head = ["schema", "command", "status", "base"]
    if "--x" in argv:
        head += ["interval", "x"]
    assert code == 0 and list(rep)[:len(head)] == head
    assert (rep["schema"], rep["command"], rep["status"]) == (1, argv[0], "OK")
    # an error document carries the envelope and the error alone
    code, rep = run_json(capsys, *argv[:2], "bogus", *argv[3:])
    assert code == 2 and list(rep) == ["schema", "command", "status", "error"]
    assert (rep["schema"], rep["command"], rep["status"]) == (1, argv[0], "ERROR")


@pytest.mark.parametrize("budget, argv, status", [
    (None, ("expand", "--base", "phi", "--x", "-1/2"), "OK"),
    ("25", ("expand", "--base", "phi", "--x", "104729/1048576"), "PERIOD_NOT_FOUND"),
    ("25", ("compare", "--base", "phi", "--x", "104729/1048576"), "PERIOD_NOT_FOUND"),
    (None, ("compare", "--base", "tribonacci", "--x", "3/10", "--depth", "60"), "UNDECIDED"),
    ("3", ("admissible", "--base", "7/4", "--pairs", "1:1.0:0.1:1.0:0(1:0)"), "UNDECIDED"),
    (None, ("expand", "--base", "phi", "--x", "5"), "ERROR"),
], ids=["expand-ok", "expand-period", "compare-period", "compare-undecided",
        "admissible-undecided", "expand-error"])
def test_exit_table(capsys, monkeypatch, budget, argv, status):
    # each status a report can carry has one exit code, in one table
    from negabase.cli import _EXIT

    if budget is not None:
        monkeypatch.setenv("NEGABASE_ORBIT_BUDGET", budget)
    code, rep = run_json(capsys, *argv)
    assert rep["status"] == status and code == _EXIT[status]
    code, out, _ = run_cli(capsys, *argv)
    assert code == _EXIT[status]
    assert out.endswith(f"status: {status}\n") == (status not in ("OK", "ERROR"))
    assert _EXIT == {"OK": 0, "ERROR": 2, "UNDECIDED": 3, "PERIOD_NOT_FOUND": 3}
