"""Command-line front end.

Subcommands: closed-form, numeric, ls, binom-deriv, bell, constant,
verify-paper.  Each takes --json; all but bell take --digits; closed-form,
numeric, ls and verify-paper take --tol, which closed-form and ls only validate.
Exit codes: 0 success, 1 computation or output failed, 2 usage error.
Every subcommand but verify-paper prints its result through ``_emit``, the one
place where a result's output is formatted.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction
from functools import lru_cache

from . import binomderiv, integrals
from .bell import complete_bell
from .numerics import DEFAULT_CONFIG, NumericConfig, QuadratureError, zeta_numeric
from .specialfn import zeta_bar1_numeric
from .symbolic import SymbolicValue, eval_numeric


MAX_BINOM_DERIV_P = 40  # the exact form grows fast with p: megabytes at p = 40 scaled
MAX_BINOM_DERIV_K = 200  # its harmonic-number denominators grow with k: 30 MB at p = 40, k = 200 scaled
MAX_N = 1600  # ROADMAP item 5's range at pi/2; (pi/2)^(n+1) overflows binary64 from n = 1,571
MAX_BELL_TERMS = 200  # the exact value's cost grows 5-12x per doubling: 36 s at 1,200 terms
MAX_BELL_TERM_DIGITS = 4300  # per number read with no int-from-str limit; per number an exponent scales
_P_HELP = f"log power, at most {MAX_BINOM_DERIV_P}"
_N_HELP = f"power of x, at most {MAX_N}"
_TOL_HELP = "target absolute tolerance"
_TOL_UNREAD = "absolute tolerance, validated only: no output reads it yet"


def _flags(sub: argparse.ArgumentParser, tol: str | None = None, digits: bool = True):
    sub.add_argument("--json", action="store_true", help="machine-readable output")
    if tol:
        sub.add_argument("--tol", type=float, default=DEFAULT_CONFIG.target_abs_tol, help=tol)
    if digits:
        sub.add_argument("--digits", type=int, default=15, choices=range(1, 16), metavar="D",
                         help="significant digits printed, 1 to 15")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, like every other usage error
        self.exit(2, f"usage error: {message}\n")


@lru_cache(maxsize=1)  # parse_args leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="logsine",
        description="Exact and numeric evaluation of generalized log-sine integrals.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    parser.commands = subs.choices  # each subcommand's name -> its parser

    p = subs.add_parser(
        "closed-form", help="integral of x^n log^p(sin x) over (0, z), z in {pi/2, pi}"
    )
    p.add_argument("--z", required=True, choices=integrals.CLOSED_FORM_ANGLES["logsin"])
    p.add_argument("--n", type=int, required=True, help=_N_HELP)
    p.add_argument("--p", type=int, required=True, help=_P_HELP)
    _flags(p, tol=_TOL_UNREAD)

    p = subs.add_parser("numeric", help="quadrature of the defining integral at any z")
    p.add_argument("--z", required=True, help="angle: pi/2, pi, 2pi, or radians")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--form", choices=integrals.FORMS, default="logsin")
    _flags(p, tol=_TOL_HELP)

    p = subs.add_parser("ls", help="log-sine integral at theta in {pi, 2pi}")
    p.add_argument("--p", type=int, required=True, help=_P_HELP)
    p.add_argument("--n", type=int, required=True, help=_N_HELP)
    p.add_argument("--theta", required=True, choices=integrals.CLOSED_FORM_ANGLES["ls"])
    _flags(p, tol=_TOL_UNREAD)

    p = subs.add_parser(
        "binom-deriv", help="d^p/dm^p of binom(2m, m+k) (optionally 4^-m scaled) at m=0"
    )
    p.add_argument("--p", type=int, required=True,
                   help=f"derivative order, at most {MAX_BINOM_DERIV_P}")
    p.add_argument("--k", type=int, required=True,
                   help=f"shift, at most {MAX_BINOM_DERIV_K}")
    p.add_argument("--scaled", action="store_true")
    _flags(p)

    p = subs.add_parser("bell", help="complete Bell polynomial of a rational sequence")
    p.add_argument("--seq", required=True,
                   help=f"comma-separated rationals, e.g. 1,1/2,3; at most {MAX_BELL_TERMS} terms; "
                        "write --seq=-1/2,3 when the first is negative")
    _flags(p, digits=False)

    p = subs.add_parser("constant", help="numeric value of a basis constant")
    p.add_argument("--name", required=True, help="pi, log2, zeta<n>, or zb1_<n>")
    _flags(p)

    p = subs.add_parser(
        "verify-paper", help="run the built-in reference identity suite"
    )
    p.add_argument("--filter", default=None, help="restrict to a group or id substring")
    _flags(p, tol=_TOL_HELP)

    return parser


def _parse_args(argv) -> argparse.Namespace:
    """The namespace that ``build_parser().parse_args(argv)`` gives, in one argparse pass where
    argv starts with a known subcommand: that subcommand's own parser reads the rest, as the
    full parser would hand it on after scanning every flag itself.  Help, and a missing or
    unknown command, go to the full parser."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    return sub.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


def _at_most(args, flag: str, limit: int) -> None:
    value = getattr(args, flag)
    if value > limit:
        raise ValueError(f"{args.command} takes --{flag} up to {limit}, got {value}")


def _fmt(value: float, digits: int) -> str:
    return f"{value:.{digits}g}"


def _emit(args, ident: str, numeric=None, exact=None, error=None, reason=None) -> None:
    """Print a result: under --json its id, status and each field that is set;
    as text a fallback (reason set), an exact text with its value, or one field."""
    if args.json:
        fields = {"numeric": numeric, "exact": exact, "abs_err": error, "reason": reason}
        obj = {key: value for key, value in fields.items() if value is not None}
        print(json.dumps({"id": ident, "status": "ok", **obj}, sort_keys=True))
    elif reason is not None:
        print(f"numeric: {_fmt(numeric, args.digits)}  (error estimate {error:.1e})")
        print(f"note:    no exact form: {reason}")
    elif exact is not None and numeric is not None:
        print(f"exact:   {exact}")
        print(f"numeric: {_fmt(numeric, args.digits)}")
    else:
        print(exact if numeric is None else _fmt(numeric, args.digits))


def _cmd_closed_form(args) -> int:
    """closed-form and ls: an exact text with its value, or a fallback with its reason."""
    _at_most(args, "p", MAX_BINOM_DERIV_P)  # an exact hit builds binom-deriv --k 0 at this p
    _at_most(args, "n", MAX_N)
    NumericConfig(args.tol)  # validated only: ROADMAP item 5 compares the claimed error with it
    if args.command == "ls":
        res = integrals.log_sine_integral(args.p, args.n, args.theta)
        ident = f"ls:theta={args.theta}:p={args.p}:n={args.n}"
    else:
        res = integrals.log_sin_power_integral(integrals.IntegralSpec(args.n, args.p, args.z))
        ident = f"closed-form:z={args.z}:n={args.n}:p={args.p}"
    _emit(args, ident, res.numeric, res.value.text() if res.exact else None, res.error, res.reason)
    return 0


def _cmd_numeric(args) -> int:
    spec = integrals.IntegralSpec(args.n, args.p, args.z, form=args.form)
    value = integrals.quadrature_value(spec, NumericConfig(args.tol))
    _emit(args, f"numeric:{args.form}:z={args.z}:n={args.n}:p={args.p}", value)
    return 0


def _cmd_binom_deriv(args) -> int:
    _at_most(args, "p", MAX_BINOM_DERIV_P)
    _at_most(args, "k", MAX_BINOM_DERIV_K)
    spec = binomderiv.DerivSpec(args.p, args.k, args.scaled)
    sym = binomderiv.binom_deriv(spec)
    _emit(args, f"binom-deriv:p={args.p}:k={args.k}:scaled={args.scaled}",
          eval_numeric(sym), sym.text())
    return 0


def _digit_limit() -> float:
    # the interpreter's int-from-str limit in force, 0 for none; before 3.10.7, which has none, 4,300
    return getattr(sys, "get_int_max_str_digits", lambda: MAX_BELL_TERM_DIGITS)() or math.inf


def _cmd_bell(args) -> int:
    parts = args.seq.split(",") if args.seq.strip() else []  # --seq= is B_0
    if not all(part.strip() for part in parts):
        raise ValueError(f"--seq has an empty term: {args.seq!r}")
    limit = _digit_limit()
    for i, part in enumerate(parts, 1):
        # each number of a term, with the PEP 515 underscores that Fraction reads; a decimal
        # exponent, the last number, adds its value to the others' digits: 1e9 has 10 digits.
        # Fraction builds that power whole, so a scaled number takes at most
        # MAX_BELL_TERM_DIGITS whatever the interpreter reads
        sizes = [len(run.replace("_", "")) for run in re.findall(r"\d[\d_]*", part)]
        exponent = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*$", part)
        cap = min(limit, MAX_BELL_TERM_DIGITS) if exponent else limit
        if exponent and sizes[-1] <= cap:  # a longer one is refused as it is
            sizes = [size + abs(int(exponent[1])) for size in sizes[:-1]] + sizes[-1:]
        if max(sizes, default=0) > cap:
            rule = ("a numerator, denominator or decimal part" if cap == limit
                    else "a number an exponent scales")
            raise ValueError(f"--seq term {i} has a number of {max(sizes)} digits; {rule} takes "
                             f"at most {cap}")
    try:
        seq = [Fraction(part) for part in parts]
    except ZeroDivisionError:
        raise ValueError(f"--seq has a zero denominator: {args.seq!r}") from None
    if len(seq) > MAX_BELL_TERMS:
        raise ValueError(f"bell takes --seq up to {MAX_BELL_TERMS} terms, got {len(seq)}")
    value = SymbolicValue.rational(complete_bell(seq, one=Fraction(1)))
    _emit(args, f"bell:n={len(seq)}", exact=value.text())
    return 0


# the four-character name prefixes of the constants indexed by n: their values,
# the n each takes, and the rule that names them
_INDEXED_CONSTANTS = {
    "zeta": (zeta_numeric, lambda n: n >= 2, "zeta<n> takes n >= 2"),
    "zb1_": (zeta_bar1_numeric, lambda n: n >= 3 and n % 2 == 1, "zb1_<n> takes odd n >= 3"),
}


def _cmd_constant(args) -> int:
    name = args.name
    digits = name[4:]
    if name == "pi":
        value = math.pi
    elif name == "log2":
        value = math.log(2.0)
    elif name[:4] in _INDEXED_CONSTANTS and digits.isascii() and digits.isdigit():
        numeric, takes, rule = _INDEXED_CONSTANTS[name[:4]]
        limit = _digit_limit()
        if len(digits) > limit:  # int() would refuse it in the interpreter's words
            rule = f"an index has at most {limit} digits"
        if len(digits) > limit or not takes(int(digits)):
            raise ValueError(f"no constant {name!r}: {rule}")
        value = numeric(int(digits))
    else:
        raise ValueError(f"unknown constant {name!r}")
    _emit(args, f"constant:{name}", value)
    return 0


def _cmd_verify(args) -> int:
    from . import verify  # the suite loads for verify-paper alone

    results = verify.run_verification(args.filter, NumericConfig(args.tol))
    if not results:  # a mistyped filter must not pass as 0/0
        raise ValueError(f"--filter {args.filter!r} matches no identity")
    if args.json:
        print(json.dumps([r.to_json_obj() for r in results], sort_keys=True))
    else:
        for r in results:
            mark = "PASS" if r.status == "pass" else "FAIL"
            exact = f"  exact={r.exact}" if r.exact else ""
            print(
                f"[{mark}] {r.id}  value={_fmt(r.numeric, args.digits)} "
                f"|delta|={r.abs_err:.2e} tol={r.tol:.1e}{exact}"
            )
        passed = sum(1 for r in results if r.status == "pass")
        print(f"{passed}/{len(results)} identities passed")
    return 0 if verify.all_passed(results) else 1


_COMMANDS = {
    "closed-form": _cmd_closed_form,
    "numeric": _cmd_numeric,
    "ls": _cmd_closed_form,
    "binom-deriv": _cmd_binom_deriv,
    "bell": _cmd_bell,
    "constant": _cmd_constant,
    "verify-paper": _cmd_verify,
}


def main(argv=None) -> int:
    """Run one command line, ``sys.argv[1:]`` by default, and return its exit code: 0 success,
    1 a computation or its output failed, 2 a usage error.  argparse's own usage errors and
    help exit by SystemExit, 2 and 0.  A known subcommand's argv is parsed by that
    subcommand's parser alone (:func:`_parse_args`)."""
    args = _parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed reader fails here, not at interpreter exit
        return code
    except BrokenPipeError as exc:  # what is left to flush, at exit too, goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: the output could not be written: {exc}", file=sys.stderr)
        return 1
    except QuadratureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:  # a float ** raises with the pair (34, 'Numerical result out of range')
        print(f"error: the result overflows binary64 floats: {exc.args[-1]}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
