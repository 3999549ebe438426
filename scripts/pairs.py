#!/usr/bin/env python3
"""Paired benchmark runs of two revisions, the README's "Quoting a performance gain".

Usage:  scripts/pairs.py PARENT [CHANGE] --workload W --seeds A-B

PARENT and CHANGE are git revisions of this repository; CHANGE defaults to HEAD, and
``$(git stash create)`` names uncommitted changes to tracked files (``git add`` a new file
first, or it is left out).  Each is ``git archive``d into its own temporary directory, and
each seed s of A..B makes one pair: ``perfbench/run.py --workload W --seed s --seconds T
--trace 0`` once from each root, T being the parent's BENCHMARK.json ``run_seconds``, the
parent first in the first pair and the two sides taking turns after it.  The last stdout
line of a run is its JSON record.

For each end-to-end metric of the parent's BENCHMARK.json the summary prints both medians,
both sides' quartiles, the pairs in which the change is better, whether it gains by the
rule (better in at least 9 of 10 pairs, a median better than the parent's by more than
the parent's interquartile range, and no larger share of requests failed) and whether its
median stays within the metric's bound.  A median within the bound reads ``unresolved``
when the parent's interquartile range is wider than the bound, unless every change run is
better than every parent run.  It gates nothing: the exit status is 0 unless a run fails
to give a record.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_range(text: str) -> range:
    """The seeds A..B of the text "A-B", or the one seed of "A"."""
    low, _, high = text.partition("-")
    seeds = range(int(low), int(high or low) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def archive(rev: str, dest: Path) -> Path:
    """The files of ``rev`` extracted into ``dest``."""
    tar = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as files:
        files.extractall(dest)
    return dest


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON record of one untraced benchmark run from ``root``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"run in {root} at seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartiles, by the default (exclusive) method the baseline uses."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summary(metrics: list[dict], pairs: list[tuple[dict, dict]]) -> list[str]:
    """The summary lines of ``pairs`` of (parent, change) records, one line per end-to-end
    metric of ``metrics`` (BENCHMARK.json's entries: name, better, bound), then the
    correctness and failures of each side."""
    sides = list(zip(*pairs))
    (parent_failed, parent_attempted), (change_failed, change_attempted) = counts = [
        (sum(r["failed"] for r in side), sum(r["attempted"] for r in side)) for side in sides]
    fails_no_more = change_failed * parent_attempted <= parent_failed * change_attempted
    lines = [f"{'metric':<16} {'parent':>11} {'change':>11} {'delta':>7}  {'parent Q1..Q3':<23} "
             f"{'change Q1..Q3':<23} {'wins':>5}  gain  bound"]
    for metric in metrics:
        name, higher, bound = metric["name"], metric["better"] == "higher", metric["bound"]
        parent, change = ([record["metrics"][name]["value"] for record in side] for side in sides)
        parent_mid, change_mid = statistics.median(parent), statistics.median(change)
        (p1, p3), (c1, c3) = quartiles(parent), quartiles(change)
        gap = change_mid - parent_mid if higher else parent_mid - change_mid  # > 0: the change is better
        wins = sum(c > p if higher else c < p for p, c in zip(parent, change))
        gain = wins >= 0.9 * len(pairs) and gap > p3 - p1 and fails_no_more
        resolved = (p3 - p1 <= bound * abs(parent_mid)
                    or (min(change) > max(parent) if higher else max(change) < min(parent)))
        verdict = "WORSE" if -gap > bound * abs(parent_mid) else "ok" if resolved else "unresolved"
        lines.append(f"{name:<16} {parent_mid:11.5g} {change_mid:11.5g} {change_mid / parent_mid - 1:+7.1%}  "
                     f"{p1:<10.5g}..{p3:<11.5g} {c1:<10.5g}..{c3:<11.5g} "
                     f"{wins:>2}/{len(pairs):<2}  {'yes ' if gain else 'no  '}  {verdict}")
    for label, side, (failed, attempted) in zip(("parent", "change"), sides, counts):
        lines.append(f"{label}: correct in {sum(bool(r['correct']) for r in side)}/{len(side)} runs, "
                     f"{failed} of {attempted} requests failed")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?", default="HEAD")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        roots = [archive(rev, Path(tmp, side))
                 for rev, side in ((args.parent, "parent"), (args.change, "change"))]
        bench = json.loads((roots[0] / "BENCHMARK.json").read_text())
        seconds, pairs = bench["run_seconds"], []
        for i, seed in enumerate(args.seeds):
            order = roots if i % 2 == 0 else roots[::-1]
            records = {root: run_once(root, args.workload, seed, seconds) for root in order}
            pairs.append((records[roots[0]], records[roots[1]]))
            rps = [r["metrics"]["req_per_s"]["value"] for r in pairs[-1]]
            print(f"pair {i + 1}/{len(args.seeds)} seed {seed}: req_per_s {rps[0]:.5g} -> {rps[1]:.5g}",
                  flush=True)
    print(f"{args.workload}: {args.parent} -> {args.change}, {len(pairs)} pairs, "
          f"seeds {args.seeds.start}-{args.seeds.stop - 1}, {seconds:g} s each")
    print("\n".join(summary(bench["end_to_end"], pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
