#!/usr/bin/env python3
"""Smoke self-test of the benchmark: `python3 perfbench/smoke.py`.

Runs every workload of BENCHMARK.json at toy size through the same binary
the benchmark command runs, untraced and traced, and checks that

- each run exits 0 and its last stdout line is the result object with
  exactly the keys `correct`, `attempted`, `failed` and `metrics`;
- `--trace 0` emits exactly the `end_to_end` metrics and `--trace 1`
  exactly the `per_layer` ones, each with the unit BENCHMARK.json gives;
- the traced and untraced runs of a seed compute the same prefix (message
  total and `SimReport` digest), pinned or not;
- bad arguments exit with status 2 and a usage message, never a panic.

Takes about a minute; builds into $CARGO_TARGET_DIR (default perfbench/target).
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
PREFIX_RE = re.compile(r"^prefix: (\d+) rounds, (\d+) msgs, digest ([0-9a-f]+)")
failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL: {what}", flush=True)


def binary():
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        check=True,
    )
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, "perfbench", "target"))
    return os.path.join(os.path.abspath(target), "release", "pdht-perfbench")


def run(exe, args):
    return subprocess.run([exe] + args, cwd=ROOT, capture_output=True, text=True, timeout=300)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    exe = binary()
    expected = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for seed in ("1", "7"):
            prefixes = {}
            for trace in ("0", "1"):
                label = f"{workload} seed {seed} trace {trace}"
                p = run(exe, ["--workload", workload, "--seed", seed, "--seconds", "1",
                              "--trace", trace, "--scale", "toy"])
                lines = p.stdout.strip().splitlines()
                check(p.returncode == 0, f"{label}: exit {p.returncode}\n{p.stdout[-2000:]}{p.stderr[-2000:]}")
                if not lines:
                    continue
                try:
                    result = json.loads(lines[-1])
                except json.JSONDecodeError:
                    check(False, f"{label}: last line is not JSON: {lines[-1]!r}")
                    continue
                check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys {sorted(result)}")
                check(result.get("correct") is True, f"{label}: correct is {result.get('correct')}")
                check(isinstance(result.get("attempted"), int) and result["attempted"] >= 1, f"{label}: attempted")
                check(result.get("failed") == 0, f"{label}: failed is {result.get('failed')}")
                got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
                check(got == expected[trace], f"{label}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(expected[trace]) - set(got))}, "
                      f"extra {sorted(set(got) - set(expected[trace]))}, "
                      f"units {[(k, got[k], u) for k, u in expected[trace].items() if k in got and got[k] != u]}")
                prefixes[trace] = next((m.groups() for m in map(PREFIX_RE.match, lines) if m), None)
                check(prefixes[trace] is not None, f"{label}: no prefix line")
            check(prefixes.get("0") == prefixes.get("1"),
                  f"{workload} seed {seed}: traced and untraced prefixes differ: {prefixes}")
        print(f"{workload}: ok" if not failures else f"{workload}: checked", flush=True)

    bad_args = [
        [],
        ["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
        ["--workload", "gossip_coded", "--seed", "-1", "--seconds", "1", "--trace", "0"],
        ["--workload", "gossip_coded", "--seed", "1", "--seconds", "0", "--trace", "0"],
        ["--workload", "gossip_coded", "--seed", "1", "--seconds", "1", "--trace", "2"],
        ["--workload", "gossip_coded", "--seed", "1", "--seconds", "1"],
        ["--workload", "gossip_coded", "--seed", "1", "--seconds", "1", "--trace", "0", "--bogus", "x"],
        ["--workload", "gossip_coded", "--seed", "1", "--seconds", "1", "--trace"],
        ["record", "--workload", "gossip_coded", "--seeds", "3"],
    ]
    for args in bad_args:
        p = run(exe, args)
        check(p.returncode == 2 and "usage:" in p.stderr and "panicked" not in p.stderr,
              f"bad arguments {args}: exit {p.returncode}, stderr {p.stderr!r}")
    print("bad arguments: checked", flush=True)

    if failures:
        print(f"{len(failures)} smoke check(s) failed")
        return 1
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
