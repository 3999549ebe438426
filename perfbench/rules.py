"""The failure rule: when a request's output counts as failed.

A request fails if it raises, or if |value - ref| > max(claimed, 1e-14 |ref|),
where ``claimed`` is the error a fallback returns and the target absolute
tolerance otherwise.  A ``verify`` check also fails on status ``fail``; a CLI
command also fails on a nonzero exit or any output on stderr.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

REL_FLOOR = 1e-14


def value_failure(value, ref: float, claimed: float) -> str | None:
    """Why ``value`` misses ``ref``, or None when it lies within the rule."""
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        return f"non-finite value {value!r}"
    err = abs(value - ref)
    allowed = max(claimed, REL_FLOOR * abs(ref))
    if err <= allowed:
        return None
    return f"|value - ref| = {err:.3g} > {allowed:.3g} (value {value!r}, ref {ref!r})"


def exception_failure(exc: BaseException) -> str:
    return f"raised {type(exc).__name__}: {str(exc).splitlines()[0] if str(exc) else ''}"


def cli_failure(returncode: int, stdout: str, stderr: str, ref: str, tol: float,
                exact_ref: bool) -> str | None:
    """Judge one ``logsine ... --json`` command against its reference.

    ``exact_ref`` marks a rational reference (Bell polynomials), compared
    exactly with the printed ``exact`` field; otherwise the printed
    ``numeric`` is compared, with the printed ``abs_err`` as the claimed error
    when the result is a fallback.
    """
    if returncode != 0:
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        return f"exit code {returncode}: {last}"
    if stderr.strip():
        return f"output on stderr: {stderr.strip().splitlines()[0]}"
    try:
        obj = json.loads(stdout)
        if exact_ref:
            got = Fraction(obj["exact"])
            return None if got == Fraction(ref) else f"exact {got} != ref {ref}"
        return value_failure(obj["numeric"], float(ref), obj.get("abs_err", tol))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output {stdout[:80]!r}: {exc}"
