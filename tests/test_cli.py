import argparse
import functools
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from logsine import binomderiv, integrals, parse_text, verify
from logsine.cli import (
    MAX_BELL_TERM_DIGITS, MAX_BELL_TERMS, MAX_BINOM_DERIV_K, MAX_BINOM_DERIV_P, MAX_N, _emit, _fmt,
    build_parser, main,
)
from logsine.verify import Check, IdentityResult
from fresh import SRC, run_fresh


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestClosedFormCommand:
    def test_text_output(self, capsys):
        code, out = run_cli(capsys, "closed-form", "--z", "pi", "--n", "1", "--p", "2")
        assert code == 0
        assert "1/24*pi^4" in out and "numeric:" in out

    def test_json_round_trips_through_parser(self, capsys):
        code, out = run_cli(
            capsys, "closed-form", "--z", "pi", "--n", "1", "--p", "2", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        value = parse_text(payload["exact"])
        assert parse_text(value.text()) == value

    @pytest.mark.parametrize("n,p", [(200, 2)])
    def test_overflow_is_a_one_line_error(self, capsys, n, p):
        code = main(["closed-form", "--z", "pi", "--n", str(n), "--p", str(p)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_largest_log_power_fits_binary64(self, capsys):
        # 8.05276107045719083e48 by 80-digit mpmath quadrature of x^2 log^40(sin x)
        code, out = run_cli(capsys, "closed-form", "--z", "pi", "--n", "2", "--p", "40", "--json")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["numeric"] - 8.05276107045719083e48) <= payload["abs_err"]
        assert payload["abs_err"] <= 1e-12 * 8.05276107045719083e48

    def test_fallback_flagged(self, capsys):
        code, out = run_cli(
            capsys, "closed-form", "--z", "pi", "--n", "2", "--p", "3", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert "exact" not in payload
        assert payload["status"] == "ok"
        assert "reason" in payload


class TestLsCommand:
    def test_json_output(self, capsys):
        code, out = run_cli(
            capsys, "ls", "--p", "2", "--n", "1", "--theta", "2pi", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] == "-1/6*pi^4"
        assert payload["numeric"] == pytest.approx(-16.234848505667064, abs=1e-9)

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    @pytest.mark.within(60)
    def test_non_finite_fallback_is_a_one_line_error(self, capsys, fmt):
        """A fallback past binary64 exits 1, one just below it exits 0"""
        # the p = 3 fallback at n = 700 is about 1e345, past binary64
        code = main(["ls", "--theta", "pi", "--n", "700", "--p", "3", *fmt])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("n,p", [(2, -1), (-1, 2)])
    @pytest.mark.within(60)
    def test_negative_order_is_a_one_line_usage_error(self, capsys, n, p):
        """An exact result prints the same bytes at every --tol; bad arguments exit 2"""
        code = main(["ls", "--theta", "pi", "--n", str(n), "--p", str(p)])
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", "usage error: n and p must be >= 0\n")


class TestLogPowerLimit:
    # closed-form and ls take the largest --p of binom-deriv: an exact hit without
    # weights (n = 0, and n = 1 at pi) builds its exact central row at the same order
    @pytest.mark.parametrize("argv", [
        ["closed-form", "--z", "pi/2", "--n", "2"],
        ["ls", "--theta", "pi", "--n", "2"],
    ])
    @pytest.mark.parametrize("p", [MAX_BINOM_DERIV_P + 1, 100])
    @pytest.mark.within(1)
    def test_larger_order_is_refused_before_any_work(self, capsys, argv, p):
        """A log power past 40 and a flag a subcommand does not read exit 2; large basis constants exit 0"""
        code = main([*argv, "--p", str(p)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"usage error: {argv[0]} takes --p up to {MAX_BINOM_DERIV_P}, got {p}\n"

    def test_limit_is_documented(self, capsys):
        for command in ("closed-form", "ls"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            assert f"at most {MAX_BINOM_DERIV_P}" in capsys.readouterr().out
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert f"`closed-form` and `ls` take `--p` up to {MAX_BINOM_DERIV_P}" in readme

    def test_tol_is_documented_as_validated_only(self, capsys):
        # no output of closed-form or ls reads --tol yet (ROADMAP item 5); numeric and verify-paper do
        for command, text in [("closed-form", "validated only"), ("ls", "validated only"),
                              ("numeric", "target absolute tolerance"),
                              ("verify-paper", "target absolute tolerance")]:
            with pytest.raises(SystemExit):
                main([command, "--help"])
            help_text = capsys.readouterr().out
            assert "--tol TOL" in help_text and text in help_text, command



class TestPowerLimit:
    # past --n 1600 a closed form's power of x overflows binary64 at every angle;
    # without the bound --n 20000 ran for minutes before it failed
    @pytest.mark.parametrize("argv", [
        ["closed-form", "--z", "pi", "--p", "1"],
        ["ls", "--theta", "pi", "--p", "3"],
    ])
    @pytest.mark.parametrize("n", [MAX_N + 1, 20000])
    @pytest.mark.within(1)
    def test_larger_power_is_refused_before_any_work(self, capsys, argv, n):
        """A power past --n 1600 and --digits outside 1..15 exit 2 at once, with no traceback"""
        code = _exit_code([*argv, "--n", str(n)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"usage error: {argv[0]} takes --n up to {MAX_N}, got {n}\n"

    # a float ** that overflows raises with the errno pair (34, 'Numerical result out of range')
    @pytest.mark.parametrize("argv", [
        ["closed-form", "--z", "pi/2", "--n", str(MAX_N), "--p", "1"],
        ["numeric", "--z", "pi", "--n", str(MAX_N), "--p", "40"],
        ["ls", "--theta", "pi", "--n", "700", "--p", "3"],
    ])
    @pytest.mark.within(60)
    def test_an_overflow_inside_the_limit_prints_its_reason_not_an_errno_pair(self, capsys, argv):
        """Results print by one record rule, the JSON keys of each kind and its bare text"""
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: the result overflows binary64 floats: Numerical result out of range\n"

    def test_limit_is_documented(self, capsys):
        for command in ("closed-form", "ls"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            assert f"at most {MAX_N}" in capsys.readouterr().out
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert f"`closed-form` and `ls` take `--n` up to {MAX_N}" in readme


class TestDigitsRange:
    @pytest.mark.parametrize("argv", [
        ["closed-form", "--z", "pi", "--n", "2", "--p", "1"],
        ["ls", "--theta", "pi", "--n", "2", "--p", "3"],
        ["constant", "--name", "pi"],
    ])
    @pytest.mark.parametrize("digits", ["0", "-5", "16"])
    @pytest.mark.within(1)
    def test_outside_one_to_fifteen_is_a_one_line_usage_error(self, capsys, argv, digits):
        """A power past --n 1600 and --digits outside 1..15 exit 2 at once, with no traceback"""
        code = _exit_code([*argv, "--digits", digits])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1 and "--digits" in err

    @pytest.mark.parametrize("digits", ["1", "15"])
    def test_the_ends_of_the_range_print(self, capsys, digits):
        code, out = run_cli(capsys, "constant", "--name", "pi", "--digits", digits)
        assert code == 0 and out == f"{math.pi:.{digits}g}\n"


# exact values that hold zb1, summed once per process at a fixed target
_EXACT_REQUESTS = [
    ("ls", "--theta", "pi", "--n", "3", "--p", "2"),
    ("closed-form", "--z", "pi/2", "--n", "3", "--p", "2"),
]
# fallbacks, whose k-series are sums of log-sine moments that read no tolerance
_FALLBACK_REQUESTS = [
    ("closed-form", "--z", "pi", "--n", "2", "--p", "3"),
    ("ls", "--theta", "pi", "--n", "4", "--p", "8"),
]
# a value that holds zeta(odd) and a basis constant: neither takes a tolerance
_UNTOLERANCED_REQUESTS = [
    ("binom-deriv", "--p", "5", "--k", "0"),
    ("constant", "--name", "zb1_5"),
]


class TestExactOutputIgnoresTolerance:
    @pytest.mark.parametrize("argv", _EXACT_REQUESTS + _FALLBACK_REQUESTS)
    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_same_bytes_at_every_tolerance(self, capsys, argv, fmt):
        """An exact result prints the same bytes at every --tol; bad arguments exit 2"""
        tols = ([], ["--tol", "1e-1"], ["--tol", "1e-20"])
        outputs = {run_cli(capsys, *argv, *fmt, *tol) for tol in tols}
        assert len(outputs) == 1
        ((code, _),) = outputs
        assert code == 0

    @pytest.mark.parametrize("argv", _UNTOLERANCED_REQUESTS)
    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_tolerance_is_a_usage_error(self, capsys, argv, fmt):
        assert run_cli(capsys, *argv, *fmt)[0] == 0
        with pytest.raises(SystemExit) as exc:
            main([*argv, *fmt, "--tol", "1e-1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def test_documented_value(self, capsys):
        code, out = run_cli(capsys, "ls", "--theta", "pi", "--n", "3", "--p", "2", "--tol", "1e-1")
        assert code == 0 and out.splitlines()[1] == "numeric: -9.37390039110411"

    def test_a_fallback_at_another_tolerance_adds_no_moment(self, capsys):
        # the moments read no tolerance, so one cache entry serves every --tol
        integrals._log_sine_moment.cache_clear()
        argv = ["ls", "--theta", "2pi", "--n", "4", "--p", "5"]
        assert run_cli(capsys, *argv, "--tol", "1e-3")[0] == 0
        filled = integrals._log_sine_moment.cache_info().currsize
        assert run_cli(capsys, *argv)[0] == 0
        assert integrals._log_sine_moment.cache_info().currsize == filled == 5


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's own usage errors
        return exc.code


class TestToleranceMustBeFinite:
    @pytest.mark.parametrize("argv", [
        ["closed-form", "--z", "pi", "--n", "2", "--p", "3"],
        ["ls", "--theta", "pi", "--n", "2", "--p", "3"],
        ["numeric", "--z", "pi", "--n", "0", "--p", "2"],
        ["verify-paper"],
    ])
    @pytest.mark.parametrize("tol", ["inf", "-inf", "1e309", "nan", "0"])
    @pytest.mark.within(60)
    def test_is_a_one_line_usage_error(self, capsys, argv, tol):
        """A tolerance that is not finite and > 0 is a usage error"""
        assert _exit_code([*argv, "--tol", tol]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage error: ") and err.count("\n") == 1


class TestHighOrderFallbacks:
    @pytest.mark.parametrize("argv", [
        ["closed-form", "--z", "pi/2", "--n", "2", "--p", "7"],
        ["closed-form", "--z", "pi/2", "--n", "2", "--p", "8"],
        ["ls", "--theta", "pi", "--n", "2", "--p", "7"],
        ["closed-form", "--z", "pi", "--n", "3", "--p", "7"],
    ])
    def test_value_lies_within_its_claimed_error(self, capsys, argv):
        """Fallbacks at p = 7 and at the largest log power exit 0"""
        mpmath = pytest.importorskip("mpmath")
        code, out = run_cli(capsys, *argv, "--json")
        assert code == 0
        payload = json.loads(out)
        opts = dict(zip(argv[1::2], argv[2::2]))
        n, p = int(opts["--n"]), int(opts["--p"])
        with mpmath.workdps(40):
            if argv[0] == "ls":
                theta = mpmath.pi
                want = mpmath.quad(
                    lambda x: -(x**n) * mpmath.log(2 * mpmath.sin(x / 2)) ** p, [0, theta / 2, theta]
                )
            else:
                z = mpmath.pi if opts["--z"] == "pi" else mpmath.pi / 2
                want = mpmath.quad(lambda x: x**n * mpmath.log(mpmath.sin(x)) ** p, [0, z / 2, z])
        assert abs(payload["numeric"] - float(want)) <= payload["abs_err"]


class TestNumericCommand:
    def test_token_angle(self, capsys):
        code, out = run_cli(capsys, "numeric", "--z", "pi", "--n", "0", "--p", "1")
        assert code == 0
        assert float(out.strip()) == pytest.approx(-2.1775860903036022, abs=1e-10)

    def test_decimal_angle(self, capsys):
        code, out = run_cli(capsys, "numeric", "--z", "1.1", "--n", "3", "--p", "1")
        assert code == 0
        float(out.strip())

    def test_logsin_past_pi_is_usage_error(self, capsys):
        code = main(["numeric", "--z", "3.5", "--n", "0", "--p", "2"])
        assert code == 2
        assert "(0, pi]" in capsys.readouterr().err

    def test_bad_angle_is_usage_error(self, capsys):
        code = main(["numeric", "--z", "oops", "--n", "0", "--p", "1"])
        assert (code, capsys.readouterr().err) == (2, "usage error: cannot parse angle 'oops'\n")

    def test_normalized_form(self, capsys):
        code, out = run_cli(
            capsys, "numeric", "--z", "2pi", "--n", "1", "--p", "2", "--form", "ls"
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(-(3.14159265358979**4) / 6, abs=1e-6)

    def test_tolerance_flag_reaches_the_kernels(self, capsys):
        code, out = run_cli(
            capsys, "numeric", "--z", "pi", "--n", "0", "--p", "1", "--tol", "1e-6"
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(-2.1775860903036022, abs=1e-6)

    def test_form_choices_are_the_forms_table(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        form = next(a for a in sub.choices["numeric"]._actions if a.dest == "form")
        assert list(form.choices) == list(integrals.FORMS) and form.default == "logsin"

    @pytest.mark.parametrize("form,z,n,p,want", [
        ("ls", "6.2831853071795", 3, 1, 142.36591322073925),  # 1e-13 below 2pi: a node clamps onto 5e-324
        ("ls", "1e-320", 0, 3, 4.0166280523003696e-312),  # a subnormal angle, likewise
        # the two smallest angles, whose intervals hold no interior float and one: the values lie
        # far inside the default --tol, so these rows check exit 0 and one line, not the digits
        ("logsin", "5e-324", 0, 1, -3.68e-321),
        ("ls", "5e-324", 0, 1, 3.68e-321),
        ("logsin", "1e-323", 0, 3, -4.08171953e-315),
        ("ls", "1e-323", 0, 1, 7.357e-321),
    ])
    @pytest.mark.within(10)
    def test_log_sine_form_near_its_singular_ends_is_a_value(self, capsys, form, z, n, p, want):
        """The oracle grid keeps its bits, and the log-sine form answers within 1e-13 of 2pi and at a subnormal angle"""
        # once a usage error "math domain error": g at 0, read by a node or by the clamp loss; mpmath references
        code = main(["numeric", "--z", z, "--n", str(n), "--p", str(p), "--form", form])
        out, err = capsys.readouterr()
        assert (code, err, out.count("\n")) == (0, "", 1)
        assert abs(float(out) - want) <= 1e-10


# whole runs in a fresh interpreter: argv, exit code, seconds, and the stdout or pieces of it
_FRESH_RUNS = [
    ("verify-paper --filter lemma:delta-derivative --json", 0, 60, ('"status": "pass"', '"tol": 1e-12')),
    ("numeric --z pi --n 5 --p 6 --form ls", 0, 10, None),
    ("numeric --z 3.0 --n 5 --p 6", 0, 10, None),
    ("numeric --z 1.1 --n 3 --p 1", 0, 10, None),
    ("closed-form --z pi/2 --n 1500 --p 2", 1, 10, ""),
    ("closed-form --z pi --n 1000 --p 2", 1, 10, ""),
    ("ls --theta 2pi --n 1000 --p 2", 1, 10, ""),
    ("binom-deriv --p 40 --k 0", 0, 60, None),
    ("binom-deriv --p 40 --k 0 --scaled", 0, 60, None),
    ("binom-deriv --p 40 --k 30 --scaled", 0, 60, None),
    ("ls --theta pi --n 600 --p 3", 0, 10, None),
    ("closed-form --z pi/2 --n 2 --p 7", 0, 60, None),
    ("ls --theta pi --n 2 --p 7", 0, 60, None),
    ("closed-form --z pi --n 2 --p 40", 0, 10, None),
    ("constant --name zeta2 --json", 0, 10, '{"id": "constant:zeta2", "numeric": 1.6449340668482264, "status": "ok"}\n'),
    ("constant --name zb1_999999999", 0, 10, "0\n"),
    ("constant --name zeta999999999", 0, 10, "1\n"),
]


@pytest.mark.parametrize("argv,code,seconds,want", _FRESH_RUNS, ids=[row[0] for row in _FRESH_RUNS])
def test_a_fresh_run_exits_in_time_with_its_output(argv, code, seconds, want):
    """The delta lemma row checks exact values to 1e-12
    The quadrature oracle answers from the CLI; a filter matching no identity exits 2
    A 1500-power closed form overflows binary64 in time, with one line and no traceback
    Thousand-power closed forms at the full angles overflow binary64 in time, with one line and no traceback
    Largest binom-deriv order and shift run in time, the next ones are refused
    A fallback past binary64 exits 1, one just below it exits 0
    Fallbacks at p = 7 and at the largest log power exit 0
    A basis constant prints its correctly rounded double
    Constants past the cuts sum no series and return at once"""
    proc = run_fresh(argv.split(), code, timeout=seconds)
    assert code == 0 or proc.stderr.startswith("error: ")
    out = proc.stdout
    assert want is None or (out == want if isinstance(want, str) else all(piece in out for piece in want))


class TestBellCommand:
    def test_bell_number(self, capsys):
        code, out = run_cli(capsys, "bell", "--seq", "1,1,1,1,1")
        assert code == 0
        assert out.strip() == "52"

    def test_rational_sequence(self, capsys):
        code, out = run_cli(capsys, "bell", "--seq", "1/2,1/3")
        assert code == 0
        assert out.strip() == "7/12"  # (1/2)^2 + 1/3

    def test_negative_first_entry_in_the_equals_form(self, capsys, monkeypatch):
        # argparse reads a separate "-1/2,3" as a flag, so the help names the --seq= form
        code, out = run_cli(capsys, "bell", "--seq=-1/2,3")
        assert code == 0
        assert out.strip() == "13/4"  # (-1/2)^2 + 3
        monkeypatch.setenv("COLUMNS", "200")  # no line break inside the form
        with pytest.raises(SystemExit):
            main(["bell", "--help"])
        assert "--seq=-1/2,3" in capsys.readouterr().out

    @pytest.mark.parametrize("seq", ["1/0", "1,2/0"])
    @pytest.mark.within(60)
    def test_zero_denominator_is_a_one_line_usage_error(self, capsys, seq):
        """An exact result prints the same bytes at every --tol; bad arguments exit 2"""
        code = main(["bell", "--seq", seq])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("seq", ["1,,2", "1,2,", ",1", "1, ,2"])
    @pytest.mark.within(60)
    def test_empty_term_is_a_one_line_usage_error(self, capsys, seq):
        """An exact result prints the same bytes at every --tol; bad arguments exit 2"""
        code = main(["bell", "--seq", seq])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == f"usage error: --seq has an empty term: {seq!r}\n"

    def test_no_terms_is_the_empty_polynomial(self, capsys):
        code, out = run_cli(capsys, "bell", "--seq=")
        assert (code, out) == (0, "1\n")  # B_0

    @pytest.mark.parametrize("length", [MAX_BELL_TERMS, MAX_BELL_TERMS + 1])
    @pytest.mark.within(60)
    def test_longest_sequence_and_the_next_one(self, capsys, length):
        """Largest binom-deriv order and shift run in time, the next ones are refused"""
        seq = ",".join(("1/2", "-1/3", "2")[i % 3] for i in range(length))
        code = main(["bell", f"--seq={seq}"])
        out, err = capsys.readouterr()
        if length == MAX_BELL_TERMS:
            assert code == 0 and err == "" and out.strip()
        else:
            assert (code, out) == (2, "")
            assert err == f"usage error: bell takes --seq up to {MAX_BELL_TERMS} terms, got {length}\n"

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    @pytest.mark.within(60)
    def test_a_value_past_the_int_digit_limit_prints_whole(self, capsys, fmt):
        """A 200-term bell value past the 4300-digit int-to-str limit is not a usage error or a traceback"""
        # B_200(x, ..., x) with x = 10^40 - 1 has 8,001 digits, past the interpreter's
        # 4,300-digit int-to-str limit, and equals sum_j S(200, j) x^j (Touchard)
        x, n = 10**40 - 1, MAX_BELL_TERMS
        stirling = [1]  # S(i, 0..i), row by row
        for i in range(1, n + 1):
            prev = stirling + [0]
            stirling = [0] + [j * prev[j] + prev[j - 1] for j in range(1, i + 1)]
        want = sum(s * x**j for j, s in enumerate(stirling))
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code = main(["bell", "--seq=" + ",".join([str(x)] * n), *fmt])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        text = json.loads(out)["exact"] if fmt else out.removesuffix("\n")
        assert text.isdigit() and 10 ** (len(text) - 1) <= want < 10 ** len(text)
        prime = 2**61 - 1  # the digits as a number, by Horner's rule modulo a prime
        assert functools.reduce(lambda r, d: (10 * r + int(d)) % prime, text, 0) == want % prime
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit  # restored

    @pytest.mark.parametrize("seq,position", [
        ("1,{}", 2), ("1/{},2", 1), ("3,5,-{}/7", 3), ("1.{}", 1), ("2,1_{}", 2),
    ])
    @pytest.mark.parametrize("digits", [MAX_BELL_TERM_DIGITS, MAX_BELL_TERM_DIGITS + 1])
    def test_a_number_past_the_digit_limit_names_its_term(self, capsys, seq, position, digits):
        longest = digits + ("_" in seq)  # 1_777... is one number
        code = main(["bell", "--seq=" + seq.format("7" * digits)])
        out, err = capsys.readouterr()
        if longest <= MAX_BELL_TERM_DIGITS:
            assert code == 0 and err == "" and out.strip()
            return
        assert (code, out) == (2, "")
        assert err == (f"usage error: --seq term {position} has a number of {longest} digits; a "
                       f"numerator, denominator or decimal part takes at most {MAX_BELL_TERM_DIGITS}\n")

    @pytest.mark.parametrize("seq,position,digits", [
        ("1e4299", 1, 4300), ("2,1_0e4_298", 2, 4300), ("7.5E+4299", 1, 4300), ("1e-4299", 1, 4300),
        ("1e4300", 1, 4301), ("1,1e-4300", 2, 4301), ("7.5e4300", 1, 4301),
        ("1e100000", 1, 100001), ("3/4,1e1000000", 2, 1000001),
    ])
    @pytest.mark.within(1)
    def test_a_decimal_exponent_counts_into_the_digits_it_scales(self, capsys, seq, position, digits):
        """A bell term whose decimal exponent passes the digit limit exits 2 at once, with no traceback"""
        # 1e100000 once printed all 100,001 digits and 1e1000000 took 18.7 s; a term is now
        # sized before Fraction reads it, so every call here returns within the budget
        code = main(["bell", f"--seq={seq}"])
        out, err = capsys.readouterr()
        if digits <= MAX_BELL_TERM_DIGITS:
            assert code == 0 and err == "" and out.strip()
            return
        assert (code, out) == (2, "")
        assert err == (f"usage error: --seq term {position} has a number of {digits} digits; a "
                       f"numerator, denominator or decimal part takes at most {MAX_BELL_TERM_DIGITS}\n")

    def test_an_exponent_past_the_digit_limit_is_refused_by_its_own_digits(self, capsys):
        code = main(["bell", "--seq=1e" + "0" * MAX_BELL_TERM_DIGITS + "1"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith(f"usage error: --seq term 1 has a number of {MAX_BELL_TERM_DIGITS + 1} digits;")

    def test_digit_limit_is_documented(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert f"at most {MAX_BELL_TERM_DIGITS:,} digits" in readme

    def test_limit_is_documented(self, capsys):
        with pytest.raises(SystemExit):
            main(["bell", "--help"])
        assert f"at most {MAX_BELL_TERMS} terms" in capsys.readouterr().out
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert f"`--seq` up to {MAX_BELL_TERMS} terms" in readme


class TestBinomDerivCommand:
    def test_displayed_first_derivative(self, capsys):
        code, out = run_cli(capsys, "binom-deriv", "--p", "1", "--k", "2")
        assert code == 0
        assert "-1/2" in out

    def test_largest_order_is_accepted(self, capsys):
        code, out = run_cli(capsys, "binom-deriv", "--p", str(MAX_BINOM_DERIV_P), "--k", "2")
        assert code == 0
        assert out.startswith("exact:   ") and "numeric: " in out

    @pytest.mark.parametrize("p", [MAX_BINOM_DERIV_P + 1, 60])
    @pytest.mark.within(60)
    def test_larger_order_is_a_one_line_usage_error(self, capsys, p):
        """Largest binom-deriv order and shift run in time, the next ones are refused"""
        code = main(["binom-deriv", "--p", str(p), "--k", "2"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            f"usage error: binom-deriv takes --p up to {MAX_BINOM_DERIV_P}, got {p}\n"
        )

    def test_limit_is_documented(self, capsys):
        with pytest.raises(SystemExit):
            main(["binom-deriv", "--help"])
        help_text = capsys.readouterr().out
        assert f"at most {MAX_BINOM_DERIV_P}" in help_text
        assert f"at most {MAX_BINOM_DERIV_K}" in help_text
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert f"--p` up to {MAX_BINOM_DERIV_P}" in readme
        assert f"--k` up to {MAX_BINOM_DERIV_K}" in readme

    @pytest.mark.within(1)
    def test_larger_shift_is_refused_before_any_work(self, capsys):
        """Largest binom-deriv order and shift run in time, the next ones are refused"""
        # at the largest order a shift past the limit would take seconds to build
        k = MAX_BINOM_DERIV_K + 1
        code = main(["binom-deriv", "--p", str(MAX_BINOM_DERIV_P), "--k", str(k), "--scaled"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"usage error: binom-deriv takes --k up to {MAX_BINOM_DERIV_K}, got {k}\n"


class TestConstantCommand:
    def test_zeta3(self, capsys):
        code, out = run_cli(capsys, "constant", "--name", "zeta3", "--digits", "12")
        assert code == 0
        assert out.strip().startswith("1.2020569031")

    @pytest.mark.parametrize("name", ["nope", "zeta", "zeta3x", "zb1_", "zb1_x"])
    def test_unknown_constant(self, capsys, name):
        code = main(["constant", "--name", name])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == f"usage error: unknown constant {name!r}\n"

    # an index out of range names the --name given and the indices it takes
    @pytest.mark.parametrize("name,rule", [
        ("zeta1", "zeta<n> takes n >= 2"),
        ("zeta0", "zeta<n> takes n >= 2"),
        ("zb1_2", "zb1_<n> takes odd n >= 3"),
        ("zb1_0", "zb1_<n> takes odd n >= 3"),
        ("zeta" + "9" * 5000, "an index has at most 4300 digits"),  # past int()'s digit limit
    ])
    @pytest.mark.within(10)
    def test_an_index_out_of_range_is_named(self, capsys, name, rule):
        """An out-of-range constant index exits 2 with a line that names the --name given"""
        code = main(["constant", "--name", name])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == f"usage error: no constant {name!r}: {rule}\n"

    # only digits follow the prefix: a sign is no part of an index
    def test_a_signed_index_is_unknown(self, capsys):
        code = main(["constant", "--name", "zeta-3"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", "usage error: unknown constant 'zeta-3'\n")

    def test_zeta4(self, capsys):
        code, out = run_cli(capsys, "constant", "--name", "zeta4")
        assert (code, out) == (0, "1.08232323371114\n")

    # past the cuts, zeta(n) rounds to 1 and zb1(n) to its first term 2^-n, with no series
    @pytest.mark.parametrize("name,value", [("zeta1025", "1"), ("zb1_645", "6.84940421565126e-195"),
                                            ("zb1_" + "9" * 309, "0")])
    @pytest.mark.within(10)
    def test_terms_past_binary64_count_as_zero(self, capsys, name, value):
        """A log power past 40 and a flag a subcommand does not read exit 2; large basis constants exit 0
        Constants past the cuts sum no series and return at once"""
        code, out = run_cli(capsys, "constant", "--name", name)
        assert (code, out) == (0, value + "\n")


# the digit guards of bell --seq and constant read the interpreter's int-from-str limit in force
@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-from-str limit")
class TestDigitLimitInForce:
    @pytest.mark.parametrize("argv,named", [
        (["constant", "--name", "zeta" + "9" * 1000], "no constant 'zeta" + "9" * 1000 + "'"),
        (["bell", "--seq=1," + "9" * 1000], "--seq term 2 has a number of 1000 digits"),
        (["bell", "--seq=" + "9" * 1000], "--seq term 1 has a number of 1000 digits"),
    ])
    def test_a_lower_limit_names_the_term_or_constant(self, argv, named):
        """Under a 640-digit int-from-str limit, a longer constant index or bell term exits 2 naming it"""
        proc = run_fresh(argv, 2, env={"PYTHONINTMAXSTRDIGITS": "640"}, timeout=10)
        assert proc.stdout == "" and named in proc.stderr, proc.stderr
        assert proc.stderr.endswith(" at most 640 digits\n" if argv[0] == "constant" else " at most 640\n")

    def test_no_limit_reads_every_number(self):
        proc = run_fresh(["bell", "--seq=" + "9" * 5000], env={"PYTHONINTMAXSTRDIGITS": "0"})
        assert (proc.stdout, proc.stderr) == ("9" * 5000 + "\n", "")
        proc = run_fresh(["constant", "--name", "zeta" + "9" * 5000], env={"PYTHONINTMAXSTRDIGITS": "0"})
        assert (proc.stdout, proc.stderr) == ("1\n", "")

    @pytest.mark.parametrize("seq,position", [("1e1000000", 1), ("3/4,1e1000000", 2)])
    def test_no_limit_still_caps_what_an_exponent_scales(self, seq, position):
        """With no int-from-str limit, a bell term an exponent scales past 4,300 digits still exits 2 at once"""
        # under limit 0, 1e1000000 once built and printed all 1,000,001 digits in 17 s
        proc = run_fresh(["bell", f"--seq={seq}"], 2, env={"PYTHONINTMAXSTRDIGITS": "0"}, timeout=10)
        assert proc.stdout == ""
        assert proc.stderr == (f"usage error: --seq term {position} has a number of 1000001 digits; a number "
                               f"an exponent scales takes at most {MAX_BELL_TERM_DIGITS}\n")


# flags that each call sets and the next call leaves out
_MIXED_CALLS = [
    ("binom-deriv", "--p", "4", "--k", "3", "--scaled", "--json"),
    ("binom-deriv", "--p", "4", "--k", "3"),
    ("ls", "--p", "2", "--n", "1", "--theta", "2pi", "--tol", "1e-6", "--json"),
    ("ls", "--p", "3", "--n", "2", "--theta", "pi"),
    ("closed-form", "--z", "pi", "--n", "2", "--p", "3", "--tol", "1e-4"),
    ("closed-form", "--z", "pi", "--n", "2", "--p", "3", "--json"),
    ("binom-deriv", "--p", "2", "--k", "1", "--scaled", "--digits", "6"),
    ("binom-deriv", "--p", "2", "--k", "1", "--json"),
]


# a request of each subcommand, and the flags that it does not read
_SUBCOMMANDS = [
    (("closed-form", "--z", "pi", "--n", "1", "--p", "2"), ["--max-terms"]),
    (("numeric", "--z", "pi", "--n", "0", "--p", "1"), ["--max-terms"]),
    (("ls", "--p", "2", "--n", "1", "--theta", "2pi"), ["--max-terms"]),
    (("binom-deriv", "--p", "2", "--k", "1"), ["--max-terms", "--tol"]),
    (("bell", "--seq", "1,1"), ["--max-terms", "--tol", "--digits"]),
    (("constant", "--name", "pi"), ["--max-terms", "--tol"]),
    (("verify-paper", "--filter", "lemmas"), ["--max-terms"]),
]


@pytest.mark.parametrize("argv,flag", [
    (argv, flag) for argv, unread in _SUBCOMMANDS for flag in unread
])
@pytest.mark.within(60)
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(capsys, argv, flag):
    """A log power past 40 and a flag a subcommand does not read exit 2; large basis constants exit 0"""
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, "1e-3"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1e-3" in capsys.readouterr().err


class TestDeterminism:
    def test_in_process_calls_carry_no_flag_over(self, capsys):
        for argv in _MIXED_CALLS:
            code, out = run_cli(capsys, *argv)
            assert out == run_fresh(argv, code).stdout, argv

    def test_byte_identical_reruns(self, capsys):
        _, first = run_cli(
            capsys, "closed-form", "--z", "pi/2", "--n", "3", "--p", "2", "--json"
        )
        _, second = run_cli(
            capsys, "closed-form", "--z", "pi/2", "--n", "3", "--p", "2", "--json"
        )
        assert first == second


class TestClosedOutput:
    @pytest.mark.parametrize("argv", [
        ["ls", "--theta", "pi", "--n", "2", "--p", "3"],
        ["constant", "--name", "pi"],
        ["verify-paper"],
    ])
    def test_a_closed_reader_is_a_one_line_error(self, argv):
        env = dict(os.environ, PYTHONPATH=SRC)
        read_end, write_end = os.pipe()
        os.close(read_end)  # no reader is left before the child writes
        try:
            proc = subprocess.run([sys.executable, "-m", "logsine", *argv], env=env,
                                  stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


class TestVerifyCommand:
    def test_filtered_run_passes(self, capsys):
        code, out = run_cli(capsys, "verify-paper", "--filter", "lemmas")
        assert code == 0
        assert "[PASS]" in out and "identities passed" in out

    def test_fault_injection_fails(self, capsys, monkeypatch):
        # a deliberately broken identity must flip the exit code and name itself
        def broken(cfg):
            return IdentityResult(
                id="injected:sign-flip",
                group="sec2",
                exact="-1/6*pi^4",
                numeric=16.234,
                oracle=-16.234,
                abs_err=32.468,
                tol=1e-8,
                status="fail",
            )

        registry = verify.build_registry() + [Check("injected:sign-flip", "sec2", broken)]
        monkeypatch.setattr(verify, "build_registry", lambda: registry)
        code, out = run_cli(capsys, "verify-paper", "--filter", "injected")
        assert code == 1
        assert "[FAIL] injected:sign-flip" in out

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    @pytest.mark.within(60)
    def test_a_filter_matching_no_identity_is_a_usage_error(self, capsys, fmt):
        """The quadrature oracle answers from the CLI; a filter matching no identity exits 2"""
        # 0/0 rows must not pass: a mistyped filter in CI would pass silently
        code = main(["verify-paper", "--filter", "nomatch", *fmt])
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", "usage error: --filter 'nomatch' matches no identity\n")


class TestVerifyRegistry:
    def test_results_sorted_by_id(self, cfg):
        results = verify.run_verification("sec3", cfg)
        ids = [r.id for r in results]
        assert ids == sorted(ids)
        assert all(r.status == "pass" for r in results)

    def test_json_rows_round_trip_exact_forms(self, capsys):
        code, out = run_cli(capsys, "verify-paper", "--filter", "sec3", "--json")
        assert code == 0
        for row in json.loads(out):
            assert {"id", "numeric", "status", "abs_err"} <= set(row)
            if "exact" in row:
                value = parse_text(row["exact"])
                assert parse_text(value.text()) == value

    def test_registry_ids_are_unique_and_cover_the_benchmark(self, monkeypatch):
        # perfbench/grids.py names the checks the benchmark times; load it by
        # path, registered while it runs because its dataclass looks itself up
        path = Path(__file__).resolve().parents[1] / "perfbench" / "grids.py"
        spec = importlib.util.spec_from_file_location("perfbench_grids", path)
        grids = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "perfbench_grids", grids)
        spec.loader.exec_module(grids)
        ids = [c.id for c in verify.build_registry()]
        assert len(ids) == len(set(ids)) == 33
        assert set(grids.VERIFY_CHECKS) <= set(ids)

    @pytest.mark.parametrize("module,name,ident", [
        (binomderiv, "taylor_coefficient_oracle", "deriv:shifted-p3"),
        (binomderiv, "taylor_coefficient_oracle", "deriv:central-p0..6"),
        (integrals, "sine_power_moment_numeric", "moment:closed-vs-series"),
    ])
    def test_a_nan_oracle_fails_its_grid_row(self, cfg, monkeypatch, module, name, ident):
        # max(0.0, nan) is 0.0: a row that folded its gaps by max read a NaN oracle as a pass
        monkeypatch.setattr(module, name, lambda *args: math.nan)
        (row,) = verify.run_verification(ident, cfg)
        assert row.id == ident and row.status == "fail" and math.isnan(row.numeric)

    def test_the_delta_row_sees_a_polygamma_error(self, cfg, monkeypatch):
        # delta_2 moves by 2e-8 when every polygamma value moves by 1e-8
        polygamma = binomderiv.polygamma_real
        monkeypatch.setattr(binomderiv, "polygamma_real", lambda n, x: polygamma(n, x) + 1e-8)
        (row,) = verify.run_verification("lemma:delta-derivative", cfg)
        assert row.status == "fail" and row.abs_err > 1e-9

    def test_all_passed_helper(self):
        good = IdentityResult("a", "g", None, 0, 0, 0, 1, "pass")
        bad = IdentityResult("b", "g", None, 1, 0, 1, 0.5, "fail")
        assert verify.all_passed([good])
        assert not verify.all_passed([good, bad])


# the record rule: the JSON keys of each kind of result and its text shape,
# whose floats are _fmt of the JSON values at the same --digits
_EXACT_KEYS = {"exact", "id", "numeric", "status"}
_FALLBACK_KEYS = {"abs_err", "id", "numeric", "reason", "status"}
_VALUE_KEYS = {"id", "numeric", "status"}


def _labelled_pair(obj, digits):
    return f"exact:   {obj['exact']}\nnumeric: {_fmt(obj['numeric'], digits)}\n"


def _fallback_lines(obj, digits):
    return (f"numeric: {_fmt(obj['numeric'], digits)}  (error estimate {obj['abs_err']:.1e})\n"
            f"note:    no exact form: {obj['reason']}\n")


def _bare_value(obj, digits):
    return f"{_fmt(obj['numeric'], digits)}\n"


def _bare_exact(obj, digits):
    return f"{obj['exact']}\n"


# each request, its JSON keys, its text from its JSON, and where pinned its whole JSON line
_RECORDS = [
    (("closed-form", "--z", "pi", "--n", "1", "--p", "2"), _EXACT_KEYS, _labelled_pair, None),
    (("ls", "--theta", "2pi", "--n", "1", "--p", "2"), _EXACT_KEYS, _labelled_pair,
     '{"exact": "-1/6*pi^4", "id": "ls:theta=2pi:p=2:n=1", "numeric": -16.234848505667067, "status": "ok"}'),
    (("closed-form", "--z", "pi", "--n", "2", "--p", "3"), _FALLBACK_KEYS, _fallback_lines, None),
    (("ls", "--theta", "pi", "--n", "2", "--p", "3"), _FALLBACK_KEYS, _fallback_lines, None),
    (("numeric", "--z", "1.1", "--n", "3", "--p", "1"), _VALUE_KEYS, _bare_value, None),
    (("constant", "--name", "zeta3"), _VALUE_KEYS, _bare_value, None),
    (("binom-deriv", "--p", "2", "--k", "1"), _EXACT_KEYS, _labelled_pair,
     '{"exact": "-2", "id": "binom-deriv:p=2:k=1:scaled=False", "numeric": -2.0, "status": "ok"}'),
    (("binom-deriv", "--p", "0", "--k", "1"), _EXACT_KEYS, _labelled_pair, None),  # the value 0
    (("bell", "--seq=1,1"), {"exact", "id", "status"}, _bare_exact, '{"exact": "2", "id": "bell:n=2", "status": "ok"}'),
    (("bell", "--seq=1/2,-1/3,2"), {"exact", "id", "status"}, _bare_exact,
     '{"exact": "13/8", "id": "bell:n=3", "status": "ok"}'),
]


class TestRecordFormat:
    @pytest.mark.parametrize("argv,keys,text,pinned,digits", [
        (argv, keys, text, pinned, digits) for argv, keys, text, pinned in _RECORDS
        for digits in ([], ["--digits", "6"]) if argv[0] != "bell" or not digits
    ])
    @pytest.mark.within(60)
    def test_keys_and_text_shape(self, capsys, argv, keys, text, pinned, digits):
        """Results print by one record rule, the JSON keys of each kind and its bare text"""
        code, out = run_cli(capsys, *argv, *digits, "--json")
        obj = json.loads(out)
        assert code == 0 and out.count("\n") == 1
        assert pinned is None or digits or out == pinned + "\n"
        assert set(obj) == keys
        assert obj["id"].startswith(f"{argv[0]}:") and obj["status"] == "ok"
        code, out = run_cli(capsys, *argv, *digits)
        assert code == 0
        assert out == text(obj, int(digits[1]) if digits else 15)

    def test_verify_rows_carry_exact_only_with_a_form(self, capsys, cfg):
        code, out = run_cli(capsys, "verify-paper", "--json")
        rows = {row["id"]: row for row in json.loads(out)}
        results = verify.run_verification(None, cfg)
        base = {"abs_err", "group", "id", "numeric", "oracle", "status", "tol"}
        assert code == 0 and set(rows) == {r.id for r in results}
        for r in results:
            assert set(rows[r.id]) == base | ({"exact"} if r.exact is not None else set())
        assert {r.exact is None for r in results} == {True, False}

    def test_a_zero_value_and_a_zero_error_estimate_still_print(self, capsys):
        _emit(argparse.Namespace(json=True), "x", numeric=0.0, error=0.0, reason="r")
        assert json.loads(capsys.readouterr().out) == {
            "abs_err": 0.0, "id": "x", "numeric": 0.0, "reason": "r", "status": "ok"}
        _emit(argparse.Namespace(json=False, digits=15), "x", numeric=0.0, error=0.0, reason="r")
        assert capsys.readouterr().out == "numeric: 0  (error estimate 0.0e+00)\nnote:    no exact form: r\n"
