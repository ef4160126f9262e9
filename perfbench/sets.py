"""Run a set of seeds on one workload, and compare sets against the bounds.

    python3 perfbench/sets.py run --workload direct-charpoly --seeds 1-10 --out a.jsonl
    python3 perfbench/sets.py compare a.jsonl            # spreads of one set
    python3 perfbench/sets.py compare a.jsonl b.jsonl    # b against a

`run` starts one benchmark process per seed, one after another, with the
run length of BENCHMARK.json, and appends each result line, with the run's
uncalibrated figures, to the file.
`compare` reports, per end-to-end metric, the median and the spread (the
distance between the first and third quartiles over the median), and exits
1 if a spread exceeds its bound, if the second set's median is worse than
the first's by more than the bound, or if the two sets fail a different
share of their operations.  The uncalibrated figures are printed in
parentheses, for reference; they are not gated.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def run_set(args):
    with open(args.out, "a") as fh:
        for seed in seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
                   "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            if done.returncode != 0:
                sys.exit(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            raw = [line.split()[1:] for line in done.stderr.splitlines()
                   if line.startswith("uncalibrated:")]
            fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                 "result": result,
                                 "uncalibrated": {k: float(v) for k, v in
                                                  zip(raw[0][::2], raw[0][1::2])}})
                     + "\n")
            fh.flush()
            print(seed, json.dumps(result), flush=True)


def load(path):
    return [json.loads(line) for line in open(path) if line.strip()]


def median_spread(values):
    """The median, and the distance between the quartiles over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def summary(rows, name):
    return median_spread([r["result"]["metrics"][name]["value"] for r in rows])


def failed_share(rows):
    return Fraction(sum(r["result"]["failed"] for r in rows),
                    sum(r["result"]["attempted"] for r in rows))


def compare(args):
    sets = [load(p) for p in args.files]
    ok = True
    for rows in sets:
        if not all(r["result"]["correct"] for r in rows):
            print("a run reported incorrect output")
            ok = False
    for metric in SPEC["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        stats = [summary(rows, name) for rows in sets]
        line = f"{name:14}" + "".join(
            f"  median {m:12.6g} spread {s:6.2%}" for m, s in stats)
        for _, spread in stats:
            if spread > bound:
                line += f"  SPREAD > {bound:.0%}"
                ok = False
        if len(stats) == 2:
            (m1, _), (m2, _) = stats
            worse = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
            line += f"  change {worse:+.2%} (worse is +)"
            if worse > bound:
                line += f"  WORSE > {bound:.0%}"
                ok = False
        print(line)
    # for reference only: the same figures before calibration
    for name in sets[0][0].get("uncalibrated", {}):
        stats = [median_spread([r["uncalibrated"][name] for r in rows]) for rows in sets]
        print(f"({name:12}" + "".join(
            f"  median {m:12.6g} spread {s:6.2%}" for m, s in stats) + ")")
    shares = [failed_share(rows) for rows in sets]
    print("failed share:", ", ".join(f"{s} ({float(s):.4f})" for s in shares))
    if len(set(shares)) > 1:
        print("failed shares differ")
        ok = False
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--workload", required=True)
    p_run.add_argument("--seeds", required=True, help="first-last, e.g. 1-10")
    p_run.add_argument("--out", required=True)
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("files", nargs="+")
    args = parser.parse_args()
    if args.command == "run":
        run_set(args)
        return 0
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
