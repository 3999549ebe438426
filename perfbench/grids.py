"""Request grids of the four benchmark workloads and the seeded plan over them.

Each workload is a fixed, finite grid of distinct requests.  The warm-up set
is the first request (in grid order) of every warm-up stratum (request type
and log power p), so constant caches fill before the timed pass while no
timed request is computed in advance; every other request is timed.  The
seed only shuffles the order of both sets, so every seed sets up and times
exactly the same work.  Requests whose stratum is ``None`` are always timed.
Where costs within a stratum differ widely, only requests of similar cost
get the stratum; the slow far-endpoint quadratures, the irrational angles
and the ``verify`` checks are always timed.

Every request names a reference key.  The keys describe the mathematics, not
the call, so one reference serves the library call and the CLI alike:

    lsp:z=<angle>:n=<n>:p=<p>     integral of x^n log^p(sin x) over (0, z)
    ls:theta=<angle>:n=<n>:p=<p>  minus integral of x^n log^p|2 sin(x/2)| over (0, theta)
    sbd:p=<p>:k=<k>:scaled=<0|1>  d^p/dm^p of 4^(-m*scaled) binom(2m, m+k) at m = 0
    spm:z=<angle>:n=<n>:m=<m>     integral of x^n sin^(2m)(x) over (0, z)
    bell:<seq>                    complete Bell polynomial of a rational sequence

An angle is ``pi/2``, ``pi``, ``2pi``, ``<a>/<b>*pi`` or a float literal.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("exact", "series", "oracle")


@dataclass(frozen=True)
class Request:
    id: str  # unique within its workload
    kind: str  # request type, for the workload record's shares
    args: tuple  # what the executor passes to the program
    ref: str | None  # reference key; None for status-only verify checks
    stratum: str | None  # warm-up stratum; None keeps the request timed


def angle_value(angle: str) -> float:
    """The float the program receives for an angle string."""
    tokens = {"pi/2": math.pi / 2, "pi": math.pi, "2pi": 2 * math.pi}
    if angle in tokens:
        return tokens[angle]
    if angle.endswith("*pi"):
        num, den = angle[:-3].split("/")
        return int(num) * math.pi / int(den)
    return float(angle)


def _lsp(z: str, n: int, p: int, warm: bool = True) -> Request:
    key = f"lsp:z={z}:n={n}:p={p}"
    kind = "log_sin_power_integral"
    return Request(key, kind, (n, p, z), key, f"{kind}:p={p}" if warm else None)


def _ls(theta: str, n: int, p: int, warm: bool = True) -> Request:
    key = f"ls:theta={theta}:n={n}:p={p}"
    kind = "log_sine_integral"
    return Request(key, kind, (p, n, theta), key, f"{kind}:p={p}" if warm else None)


def _any_angle(angle: str, p: int, warm: bool) -> Request:
    kind = "log_sine_any_angle"
    return Request(f"{kind}:z={angle}:p={p}", kind, (p, angle), f"ls:theta={angle}:n=0:p={p}",
                   f"{kind}:p={p}" if warm else None)


def _quadrature(form: str, z: str, n: int, p: int) -> Request:
    key = f"lsp:z={z}:n={n}:p={p}" if form == "logsin" else f"ls:theta={z}:n={n}:p={p}"
    kind = "quadrature_value"
    # the far endpoint pi (logsin) or 2pi (ls) is log-singular and up to 500
    # times slower; those requests are always timed
    far_end = z == ("pi" if form == "logsin" else "2pi")
    stratum = None if far_end else f"{kind}:{form}:p={p}"
    return Request(f"quad:{form}:{key}", kind, (n, p, z, form), key, stratum)


def exact_grid() -> list[Request]:
    reqs = []
    for z in ("pi", "pi/2"):
        for p in range(3):
            reqs.extend(_lsp(z, n, p) for n in range(31))
    # n = 0 (and n = 1 at pi) need no k-sum, so they stay exact for any p
    for z, n in (("pi", 0), ("pi", 1), ("pi/2", 0)):
        reqs.extend(_lsp(z, n, p) for p in range(3, 13))
    for theta in ("pi", "2pi"):
        for p in range(3):
            reqs.extend(_ls(theta, n, p) for n in range(21))
    for p in range(1, 11):
        for k in range(1, 31):
            for scaled in (0, 1):
                key = f"sbd:p={p}:k={k}:scaled={scaled}"
                kind = "shifted_binom_deriv"
                reqs.append(Request(key, kind, (p, k, bool(scaled)), key, f"{kind}:p={p}"))
    for z in ("pi", "pi/2"):
        for n in range(11):
            for m in range(11):
                key = f"spm:z={z}:n={n}:m={m}"
                kind = "sine_power_moment_exact"
                reqs.append(Request(key, kind, (n, m, z), key, kind))
    # the CLI front end called in-process: argument parsing and output on top
    # of the same exact closed forms
    reqs.extend(cli_requests())
    return reqs


# angles that are not rational multiples of pi: the direct sine series
# cannot certify them, so each raises AccelerationError at the seed commit
IRRATIONAL_ANGLES = ("1.0", "2.5")


def is_irrational(req: Request) -> bool:
    """Whether an any-angle request's angle is not a rational multiple of pi."""
    return req.args[1] in IRRATIONAL_ANGLES


def series_grid() -> list[Request]:
    reqs = []
    # fallback costs range from 2 ms to 170 ms; warm-up draws only from the
    # even n at pi/2 (logsin) and pi (ls), which take 2 to 11 ms
    for p in range(3, 7):
        reqs.extend(_lsp("pi", n, p, warm=False) for n in range(2, 6))
        reqs.extend(_lsp("pi/2", n, p, warm=n % 2 == 0) for n in range(1, 6))
        reqs.extend(_ls("pi", n, p, warm=n % 2 == 0) for n in range(1, 6))
        reqs.extend(_ls("2pi", n, p, warm=False) for n in range(2, 6))
    # the smallest and largest multiple a*pi/b in (0, 2pi] for each b <= 12;
    # the cost grows with b, so warm-up draws only from b <= 2
    angles = ["1/1*pi", "2/1*pi"]
    for b in range(2, 13):
        angles += [f"1/{b}*pi", f"{2 * b - 1}/{b}*pi"]
    for p in range(1, 4):
        reqs.extend(_any_angle(a, p, a.endswith(("/1*pi", "/2*pi"))) for a in angles)
    # p = 4 costs up to 0.7 s per angle, so it runs on the four coarsest ones
    reqs.extend(_any_angle(a, 4, a in ("1/1*pi", "1/2*pi"))
                for a in ("1/1*pi", "1/2*pi", "1/3*pi", "1/4*pi"))
    reqs.extend(_any_angle(a, 1, False) for a in IRRATIONAL_ANGLES)
    return reqs


# ids of the verify.build_registry() checks; those comparing a closed form
# with quadrature of its integral also get that integral's reference
VERIFY_CHECKS = (
    "int:pi:n1p2", "int:pi:n2p2", "int:pi:n3p2", "int:pi:n4p2", "int:pi:n1p3",
    "ls:2pi:order4-index1", "ls:2pi:order5-index1", "ls:2pi:order5-index2",
    "ls:2pi:order6-index3", "ls:2pi:order7-index4", "ls:2pi:order8-index5",
    "int:pi/2:n1p2", "int:pi/2:n2p2", "int:pi/2:n3p2",
    "ls:pi:order4-index1", "ls:pi:order5-index2", "ls:pi:order6-index3",
    "ls:pi:order7-index4",
    "lemma:delta-derivative", "lemma:cot-bell-closed-form", "lemma:rho-recursion",
    "deriv:shifted-p1", "deriv:shifted-p2", "deriv:shifted-p3", "deriv:shifted-p4",
    "deriv:shifted-p5", "deriv:central-p0..6",
    "moment:pi-vs-quadrature", "moment:pi/2-vs-quadrature", "moment:closed-vs-series",
    "clausen:pi/2-p1", "clausen:pi/2-p2", "clausen:pi/2-p3",
)


def verify_ref(check_id: str) -> str | None:
    head, _, rest = check_id.partition(":")
    if head == "int":
        z, _, np = rest.rpartition(":")
        n, p = np[1:].split("p")
        return f"lsp:z={z}:n={n}:p={p}"
    if head == "ls":
        theta, _, order = rest.partition(":")
        total, index = order[len("order"):].split("-index")
        return f"ls:theta={theta}:n={index}:p={int(total) - int(index) - 1}"
    if head == "clausen":
        return f"ls:theta=pi/2:n=0:p={rest.rpartition('-p')[2]}"
    return None


def oracle_grid() -> list[Request]:
    reqs = []
    for form, angles in (
        ("logsin", ("pi/2", "pi", "1.1")),
        ("ls", ("pi", "2pi", "3.0")),
    ):
        for z in angles:
            for n in range(6):
                reqs.extend(_quadrature(form, z, n, p) for p in range(1, 7))
    for check_id in VERIFY_CHECKS:
        reqs.append(Request(f"verify:{check_id}", "verify_check", (check_id,),
                            verify_ref(check_id), None))
    return reqs


def _cli_main(argv: list[str], ref: str) -> Request:
    kind = "cli_main"
    argv = argv + ["--json"]
    return Request("cli_main:" + " ".join(argv), kind, tuple(argv), ref, f"{kind}:{argv[0]}")


BELL_SEQUENCES = (
    "1", "1,1", "1,1,1,1,1", "0,1,0,1,0,1", "1/2,1/3,1/4", "2,-1,3/5,7",
    "-1,2,-3,4,-5", "1/7,0,5/3,-2", "3,3,3,3,3,3,3,3", "1/2,-1/4,1/8,-1/16,1/32",
)


def cli_requests() -> list[Request]:
    """CLI commands whose work is exact, for ``logsine.cli.main`` in-process."""
    reqs = [_cli_main(["bell", f"--seq={seq}"], f"bell:{seq}") for seq in BELL_SEQUENCES]
    for p in range(1, 6):
        for k in (0, 1, 3):
            for scaled in (0, 1):
                argv = ["binom-deriv", "--p", str(p), "--k", str(k)] + ["--scaled"] * scaled
                reqs.append(_cli_main(argv, f"sbd:p={p}:k={k}:scaled={scaled}"))
    for z in ("pi", "pi/2"):
        for n in range(5):
            for p in (1, 2):
                argv = ["closed-form", "--z", z, "--n", str(n), "--p", str(p)]
                reqs.append(_cli_main(argv, f"lsp:z={z}:n={n}:p={p}"))
    for theta in ("pi", "2pi"):
        for n in range(5):
            for p in (1, 2):
                argv = ["ls", "--p", str(p), "--n", str(n), "--theta", theta]
                reqs.append(_cli_main(argv, f"ls:theta={theta}:n={n}:p={p}"))
    return reqs


GRIDS = {"exact": exact_grid, "series": series_grid, "oracle": oracle_grid}


def build(workload: str) -> list[Request]:
    if workload not in GRIDS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return GRIDS[workload]()


def plan(requests: list[Request], seed: int) -> tuple[list[Request], list[Request]]:
    """Split a grid into (warm-up, timed), both in the seed's shuffled order."""
    order = list(requests)
    random.Random(seed).shuffle(order)
    first: dict[str, str] = {}
    for req in requests:
        if req.stratum is not None:
            first.setdefault(req.stratum, req.id)
    warm_ids = set(first.values())
    warm = [r for r in order if r.id in warm_ids]
    timed = [r for r in order if r.id not in warm_ids]
    return warm, timed
