"""One benchmark process: set up a workload, run its timed pass, judge outputs.

Usage:  python3 perfbench/worker.py --workload W --seed N --limit T --mode M

Modes: ``run`` times the pass untraced, ``traced`` times it under the span
recorder.  The pass stops early once it has taken ``--limit`` seconds.
Set-up is ``import logsine``, building the requests, loading the references
and the warm-up; the worker prints ``READY`` when it is done, so its parent
can time set-up from a fresh interpreter.  It then prints ``SYNC`` and
waits for a line on stdin before its first timed request, every
SYNC_EVERY_S seconds between requests, and after its last one, so the
parent can measure the host's speed between the chunks of the pass; each
request's chunk is in the record.  After the pass the last stdout line is a
JSON record.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import grids  # noqa: E402
import rules  # noqa: E402
import spans  # noqa: E402

STARTUP_TIMEOUT_S = 60
STARTUP_SAMPLES = 11
SYNC_EVERY_S = 0.1


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing source, references or checks)."""


def import_logsine():
    if not os.path.isfile(os.path.join(SRC, "logsine", "__init__.py")):
        raise BenchError(f"no logsine source under {SRC}")
    sys.path.insert(0, SRC)
    logsine = importlib.import_module("logsine")
    if os.path.dirname(os.path.abspath(logsine.__file__)) != os.path.join(SRC, "logsine"):
        raise BenchError(f"imported logsine from {logsine.__file__}, not from {SRC}")
    return logsine


def load_references(requests) -> dict[str, str]:
    path = os.path.join(HERE, "references.json")
    try:
        with open(path) as fh:
            refs = json.load(fh)["refs"]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None
    missing = sorted({r.ref for r in requests if r.ref and r.ref not in refs})
    if missing:
        raise BenchError(f"{len(missing)} references missing, e.g. {missing[0]}")
    return refs


class Runner:
    """Executes requests against the imported package."""

    def __init__(self, logsine, requests: list[grids.Request], tracer: spans.Tracer | None = None):
        self.ls = logsine
        self.cli = importlib.import_module("logsine.cli")
        check_ids = [r.args[0] for r in requests if r.kind == "verify_check"]
        self.checks = {}
        if check_ids:
            self.checks = {c.id: c for c in importlib.import_module("logsine.verify").build_registry()}
            missing = [c for c in check_ids if c not in self.checks]
            if missing:
                raise BenchError(f"verify checks not in the registry: {missing}")
        self.run_check = lambda check, cfg: check.run(cfg)
        if tracer is not None:
            self.run_check = tracer.wrap("verify.check", self.run_check, on_result=count_fails(tracer))

    def __call__(self, req: grids.Request):
        ls, kind, a = self.ls, req.kind, req.args
        if kind == "log_sin_power_integral":
            return ls.log_sin_power_integral(ls.IntegralSpec(a[0], a[1], a[2]))
        if kind == "log_sine_integral":
            return ls.log_sine_integral(*a)
        if kind == "shifted_binom_deriv":
            return ls.shifted_binom_deriv(ls.DerivSpec(*a))
        if kind == "sine_power_moment_exact":
            return ls.sine_power_moment_exact(*a)
        if kind == "log_sine_any_angle":
            return ls.log_sine_any_angle(a[0], grids.angle_value(a[1]))
        if kind == "quadrature_value":
            n, p, z, form = a
            z = z if z in ("pi/2", "pi", "2pi") else float(z)
            return ls.quadrature_value(ls.IntegralSpec(n, p, z, form=form))
        if kind == "verify_check":
            return self.run_check(self.checks[a[0]], ls.NumericConfig())
        if kind == "cli_main":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.cli.main(list(a))
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
            return code, out.getvalue(), err.getvalue()
        raise BenchError(f"unknown request kind {kind!r}")


def count_fails(tracer: spans.Tracer):
    def on_result(result):
        tracer.counts["verify.check.fails"] += result.status == "fail"

    return on_result


def judge(ls, req: grids.Request, output, exc, refs) -> str | None:
    """Apply the failure rule of ``rules`` to one request's outcome."""
    if exc is not None:
        return rules.exception_failure(exc)
    tol = ls.NumericConfig().target_abs_tol  # the claimed error of exact results
    ref = refs.get(req.ref) if req.ref else None
    kind = req.kind
    if kind == "cli_main":
        return rules.cli_failure(*output, ref, tol, exact_ref=req.ref.startswith("bell:"))
    if kind == "verify_check":
        if output.status != "pass":
            return f"verify status {output.status}: |delta| {output.abs_err:.3g} > tol {output.tol:.3g}"
        return rules.value_failure(output.numeric, float(ref), tol) if ref else None
    if kind in ("log_sin_power_integral", "log_sine_integral"):
        if output.exact:
            return rules.value_failure(ls.eval_numeric(output.value), float(ref), tol)
        return rules.value_failure(output.numeric, float(ref), output.error)
    if kind in ("shifted_binom_deriv", "sine_power_moment_exact"):
        return rules.value_failure(ls.eval_numeric(output), float(ref), tol)
    if kind == "log_sine_any_angle":
        return rules.value_failure(output[0], float(ref), tol)
    return rules.value_failure(output, float(ref), tol)


class KSeriesLog:
    """Which k-series (same p, form and weight) each series request sums.

    Wraps the private ``integrals._k_series_numeric`` of the fallbacks; an
    any-angle request sums the sine-weighted series of its p.
    """

    def __init__(self, logsine):
        self.current: list[tuple] = []
        integrals = importlib.import_module("logsine.integrals")
        inner = integrals._k_series_numeric

        def recorded(p, scaled, weight_alt, weight_pow, cfg):
            self.current.append(("k", p, scaled, weight_alt, weight_pow))
            return inner(p, scaled, weight_alt, weight_pow, cfg)

        integrals._k_series_numeric = recorded

    def take(self, req: grids.Request) -> list[tuple]:
        keys, self.current = self.current, []
        if req.kind == "log_sine_any_angle":
            keys.append(("sine", req.args[0]))
        return keys


def startup_ms() -> dict[str, float]:
    """Medians over fresh interpreters: bare start-up, and ``import logsine.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    bare, imports = [], []
    probe = "import time; t = time.perf_counter(); import logsine.cli; print(time.perf_counter() - t)"
    for _ in range(STARTUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=STARTUP_TIMEOUT_S)
        bare.append((time.perf_counter() - t0) * 1e3)
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True, cwd=ROOT,
                             capture_output=True, text=True, timeout=STARTUP_TIMEOUT_S).stdout
        imports.append(float(out) * 1e3)
    return {"cli.interpreter_ms": statistics.median(bare), "cli.import_ms": statistics.median(imports)}


def handshake() -> None:
    print("SYNC", flush=True)
    if not sys.stdin.readline():
        raise BenchError("the parent closed stdin during the pass")


def run(args) -> dict:
    logsine = import_logsine()
    requests = grids.build(args.workload)
    refs = load_references(requests)
    warm, timed = grids.plan(requests, args.seed)
    traced = args.mode == "traced"
    tracer = spans.Tracer() if traced else None
    kseries = KSeriesLog(logsine) if traced and args.workload == "series" else None
    runner = Runner(logsine, requests, tracer)
    seen: set[tuple] = set()
    for req in warm:
        try:
            runner(req)
        except Exception:  # warm-up outcomes are not judged
            pass
        if kseries:
            seen.update(kseries.take(req))
    print("READY", flush=True)

    if tracer is not None:
        tracer.install(logsine)
        tracer.enabled = True
    records, repeated, chunks, chunk = [], 0, [], -1
    start = synced = time.perf_counter()
    for i, req in enumerate(timed):
        if time.perf_counter() - start >= args.limit:
            break
        if i == 0 or time.perf_counter() - synced >= SYNC_EVERY_S:
            handshake()
            synced, chunk = time.perf_counter(), chunk + 1
        chunks.append(chunk)
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        try:
            output, exc = runner(req), None
        except Exception as err:  # a raised request is a failed request
            output, exc = None, err
        records.append((req, time.perf_counter() - t0, output, exc))
        if kseries:
            keys = kseries.take(req)
            repeated += any(k in seen for k in keys)
            seen.update(keys)
    handshake()
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.enabled = False

    failures = {}
    for req, _, output, exc in records:
        reason = judge(logsine, req, output, exc, refs)
        if reason is not None:
            failures[req.id] = reason
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "planned": len(timed),
        "warmup": len(warm),
        "attempted": len(records),
        "wall_s": wall,
        "latencies_ms": [dt * 1e3 for _, dt, _, _ in records],
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # chunk k of the pass lies between the parent's k-th and (k+1)-th SYNC
        "chunks": chunks,
    }
    if traced:
        layers = spans.layer_metrics(tracer.summary())
        layers.update(startup_ms())
        layers["workload.kseries_repeat_share"] = repeated / len(records) if kseries else 0.0
        layers["workload.irrational_share"] = sum(
            1 for r in records if r[0].kind == "log_sine_any_angle" and grids.is_irrational(r[0])
        ) / len(records)
        result["layers"] = layers
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description="one logsine benchmark process")
    parser.add_argument("--workload", required=True, choices=grids.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--limit", type=float, required=True)
    parser.add_argument("--mode", choices=("run", "traced"), default="run")
    args = parser.parse_args()
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
