#!/usr/bin/env python3
"""Interleaved A/B runner for the pdht benchmark.

Builds two versions of the program into separate target directories and
alternates untraced benchmark runs of the two, pair by pair, on one host:

    python3 perfbench/ab.py --base <rev> [--head <rev>]
                            [--workloads gossip_coded,latency_sharded]

`--base` and `--head` are git revisions of this repository; `--head`
defaults to the working tree as it is. Both sides run the benchmark code of
the working tree (only the program under test differs) for BENCHMARK.json's
`run_seconds`, in 10 pairs per workload, with the side that runs first
alternating. Every run uses seed 1, so the base's own spread is run-to-run
noise alone, not the difference between seeds' inputs. Every pair must
agree on the pinned prefix's message total and digest, or the runner stops:
a change only counts as faster if it computes the same thing.

For every end-to-end metric in BENCHMARK.json it prints each side's median
and quartiles, the share of pairs the head won, and a verdict:

- "unresolved" when the base's own spread (interquartile range over median)
  exceeds the metric's bound and the head does not beat every base run;
- "gain" when the head wins at least 9 pairs in 10 and the medians differ by
  more than the base's interquartile range;
- "regression" when the head's median is worse by more than the bound;
- "within bound" otherwise.

Work trees and target directories live under .bench_ab/ at the repository
root. Exit status: 0 when no metric regressed, 1 otherwise, 2 on bad usage.
"""

import argparse
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_ab")
PAIRS = 10
SEED = 1
PREFIX_RE = re.compile(r"^prefix: (\d+) rounds, (\d+) msgs, digest ([0-9a-f]+)")


def export(rev, label):
    """The tree of `rev` with the working tree's benchmark dropped in."""
    dest = os.path.join(WORK, label, "tree")
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", rev], check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    shutil.rmtree(os.path.join(dest, "perfbench"), ignore_errors=True)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        os.path.join(dest, "perfbench"),
        ignore=shutil.ignore_patterns("target"),
    )
    return dest


def build(tree, label):
    target = os.path.join(WORK, label, "target")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(tree, "perfbench", "Cargo.toml")
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        check=True,
        env=env,
    )
    return os.path.join(target, "release", "pdht-perfbench")


def run_once(binary, tree, workload, seed, seconds):
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{binary} {workload} seed {seed} failed ({proc.returncode}):\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    prefix = next((m.groups() for m in map(PREFIX_RE.match, lines) if m), None)
    return {k: v["value"] for k, v in result["metrics"].items()}, prefix


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, base, head):
    lower = metric["better"] == "lower"
    bound = metric.get("bound", 0.0)
    q1a, meda, q3a = quartiles(base)
    _, medb, _ = quartiles(head)
    better = (lambda b, a: b < a) if lower else (lambda b, a: b > a)
    wins = sum(better(b, a) for a, b in zip(base, head)) / len(base)
    worse = (medb - meda) / meda if lower else (meda - medb) / meda
    spread = (q3a - q1a) / meda if meda else 0.0
    beats_all = all(better(b, a) for b in head for a in base)
    if spread > bound and not beats_all:
        return wins, f"unresolved (base spread {spread:.3f} > bound {bound})"
    if wins >= 0.9 and better(medb, meda) and abs(medb - meda) > q3a - q1a:
        return wins, "gain"
    if worse > bound:
        return wins, f"regression ({worse:+.3f} > bound {bound})"
    return wins, "within bound"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision of the parent side")
    ap.add_argument("--head", help="git revision of the change (default: the working tree)")
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    unknown = [w for w in workloads if w not in names]
    if unknown:
        ap.error(f"unknown workloads {unknown}")
    seconds = bench["run_seconds"]

    base_tree = export(args.base, "base")
    head_tree = export(args.head, "head") if args.head else ROOT
    sides = {
        "base": (build(base_tree, "base"), base_tree),
        "head": (build(head_tree, "head"), head_tree),
    }
    regressed = False
    for workload in workloads:
        runs = {"base": [], "head": []}
        for i in range(PAIRS):
            order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
            prefixes = {}
            for side in order:
                binary, tree = sides[side]
                metrics, prefixes[side] = run_once(binary, tree, workload, SEED, seconds)
                runs[side].append(metrics)
            if prefixes["base"] != prefixes["head"]:
                sys.exit(
                    f"{workload} pair {i + 1}: the sides computed different prefixes "
                    f"(rounds, msgs, digest): base {prefixes['base']} vs head {prefixes['head']}"
                )
            print(f"{workload} pair {i + 1}/{PAIRS}: prefix {prefixes['base']} identical", flush=True)
        print(f"\n{workload} ({PAIRS} pairs, seed {SEED}, {seconds} s per run)")
        print(f"  {'metric':<18} {'base q1/median/q3':>36} {'head q1/median/q3':>36} {'head wins':>9}  verdict")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            base = [r[name] for r in runs["base"]]
            head = [r[name] for r in runs["head"]]
            wins, text = verdict(metric, base, head)
            regressed |= text.startswith("regression")
            fmt = lambda v: "/".join(f"{x:.4g}" for x in quartiles(v))
            print(f"  {name:<18} {fmt(base):>36} {fmt(head):>36} {wins:>9.0%}  {text}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
