import json

import pytest

from logsine import parse_text, verify
from logsine.cli import main
from logsine.verify import Check, IdentityResult


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

    @pytest.mark.parametrize("n,p", [(200, 2), (2, 40)])
    def test_overflow_is_a_one_line_error(self, capsys, n, p):
        code = main(["closed-form", "--z", "pi", "--n", str(n), "--p", str(p)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

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
        code, _ = run_cli(capsys, "numeric", "--z", "oops", "--n", "0", "--p", "1")
        assert code == 2

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


class TestBellCommand:
    def test_bell_number(self, capsys):
        code, out = run_cli(capsys, "bell", "--seq", "1,1,1,1,1")
        assert code == 0
        assert out.strip() == "52"

    def test_rational_sequence(self, capsys):
        code, out = run_cli(capsys, "bell", "--seq", "1/2,1/3")
        assert code == 0
        assert out.strip() == "7/12"  # (1/2)^2 + 1/3


class TestBinomDerivCommand:
    def test_displayed_first_derivative(self, capsys):
        code, out = run_cli(capsys, "binom-deriv", "--p", "1", "--k", "2")
        assert code == 0
        assert "-1/2" in out


class TestConstantCommand:
    def test_zeta3(self, capsys):
        code, out = run_cli(capsys, "constant", "--name", "zeta3", "--digits", "12")
        assert code == 0
        assert out.strip().startswith("1.2020569031")

    def test_unknown_constant(self, capsys):
        code, _ = run_cli(capsys, "constant", "--name", "nope")
        assert code == 2


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        _, first = run_cli(
            capsys, "closed-form", "--z", "pi/2", "--n", "3", "--p", "2", "--json"
        )
        _, second = run_cli(
            capsys, "closed-form", "--z", "pi/2", "--n", "3", "--p", "2", "--json"
        )
        assert first == second


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

    def test_all_passed_helper(self):
        good = IdentityResult("a", "g", None, 0, 0, 0, 1, "pass")
        bad = IdentityResult("b", "g", None, 1, 0, 1, 0.5, "fail")
        assert verify.all_passed([good])
        assert not verify.all_passed([good, bad])
