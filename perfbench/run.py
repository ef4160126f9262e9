"""Benchmark of alphapoly on one workload; prints one JSON line last.

    python3 perfbench/run.py --workload identity-batch --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from its
`src` directory, never from an installed copy.  One process runs one
workload single-threaded.  It sets up several times and times the imports
again in fresh interpreters, reporting the medians; runs one untimed warm-up
item; then times whole rounds until the items have taken about `--seconds`,
checking each round's outputs after the round.  A calibration chunk
(calibrate.py) runs before every item and after the last; the timed
metrics are item times divided by the chunk times around each item, in
cals, and the uncalibrated figures go to standard error.

With `--trace 1` it times one untraced round and then the next round
traced, prints the per-layer metrics and writes them, with per-item times
and the spans, to `.perfbench_out/`.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# setups per run; setup_s is the median
SETUP_REPS = 3
# fresh interpreters that time the imports too; with this process's own
# import time, the median is setup_s's import part
IMPORT_PROBES = 4
# one thread for every BLAS/OpenMP pool numpy may start
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_program():
    """The alphapoly package of this checkout; exits 1 if there is none."""
    if not (SRC / "alphapoly" / "__init__.py").is_file():
        sys.exit(f"no alphapoly package under {SRC}: run from a source checkout")
    sys.path.insert(0, str(SRC))
    import alphapoly
    import alphapoly.corpus  # noqa: F401  (the package does not import it)
    if Path(alphapoly.__file__).resolve().parent != SRC / "alphapoly":
        sys.exit(f"imported alphapoly from {alphapoly.__file__}, not {SRC}")
    return alphapoly


def probe_imports():
    """The import time of the benchmark and the program, measured in a fresh
    interpreter the way main measures its own."""
    code = ("import time; t = time.perf_counter(); import sys; "
            f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
            "import run, workloads, spans; run.import_program(); "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True)
    return float(done.stdout)


def program_caches():
    """Every functools cache in the package, looked up before any tracing."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "alphapoly" or name.startswith("alphapoly.")):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) and value not in found:
                found.append(value)
    return found


class Runner:
    def __init__(self, workload, caches, calibrator):
        self.workload = workload
        self.caches = caches
        self.calibrator = calibrator
        self.rounds = []  # per round: [(label, seconds, cal seconds)] of its items
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def clear_caches(self):
        for fn in self.caches:
            fn.cache_clear()

    def timed_round(self, r, tracer=None):
        """Run round r with cold caches, a calibration chunk before every
        item and after the last, then check its outputs.  Returns the sum
        of the item times."""
        wl = self.workload
        items = wl.round_items(r)
        self.clear_caches()
        outputs, spans = [], []
        clock = time.perf_counter
        cal = self.calibrator
        for k, item in enumerate(items):
            cal.chunk()
            if tracer is not None:
                tracer.item = k
            t0 = clock()
            try:
                out = wl.run(item)
            except Exception as exc:  # a raising item is a failed operation
                out = exc
            spans.append((t0, clock()))
            outputs.append(out)
        cal.chunk()
        if tracer is not None:
            tracer.uninstall()
        self.rounds.append([(item.label, t1 - t0, cal.around(t0, t1))
                            for item, (t0, t1) in zip(items, spans)])
        for item, out in zip(items, outputs):
            self.attempted += 1
            if isinstance(out, Exception):
                self.failed += 1
                self.problems.append(f"{item.label}: raised {out!r}")
                continue
            failed, problems = wl.check(item, out)
            self.failed += failed
            self.problems += [f"{item.label}: {p}" for p in problems]
        return sum(t for _, t, _ in self.rounds[-1])

    def item_times(self):
        return [t for rnd in self.rounds for _, t, _ in rnd]

    def item_cals(self):
        """Each item's time in cals: its seconds over the chunks around it."""
        return [t / c for rnd in self.rounds for _, t, c in rnd]


def main(argv=None):
    # before numpy is first imported, which starts its thread pools
    for var in THREAD_VARS:
        os.environ[var] = "1"
    from calibrate import Calibrator, hd_median
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ap = import_program()
    import spans
    imported = time.perf_counter()

    workload = WORKLOADS[args.workload](ap, args.seed)
    runner = Runner(workload, program_caches(), Calibrator(workload.CALIBRATION))
    setups, corpus_s = [], []
    for _ in range(SETUP_REPS):
        runner.clear_caches()
        tracer = spans.Tracer(ap) if args.trace else None
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()
            corpus_s.append(tracer.total_s["corpus.connected_regular_graphs"])
    imports = [imported - START] + [probe_imports() for _ in range(IMPORT_PROBES)]
    setup_s = statistics.median(imports) + statistics.median(setups)

    workload.warmup()

    if args.trace:
        untraced = runner.timed_round(0)
        tracer = spans.Tracer(ap)
        tracer.install()
        traced = runner.timed_round(1, tracer)
        layers = tracer.layer_metrics()
        layers["corpus.connected_regular_graphs_s"] = (statistics.median(corpus_s), "s")
        layers["trace.untraced_wall_s"] = (untraced, "s")
        layers["trace.overhead_s"] = (traced - untraced, "s")
        layers["trace.wrapper_cost_s"] = (spans.wrapper_cost(ap), "s")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layers.items())}
        write_trace(args, metrics, runner.rounds[-1], tracer)
    else:
        elapsed, r = 0.0, 0
        while True:
            elapsed += runner.timed_round(r)
            r += 1
            # stop where one more round would overshoot more than it adds
            if elapsed + elapsed / r / 2 >= args.seconds:
                break
        times, cals = runner.item_times(), runner.item_cals()
        print(f"uncalibrated: items_per_s {len(times) / elapsed:.6g} "
              f"item_p50_s {statistics.median(times):.6g} "
              f"cal_s {statistics.median(runner.calibrator.times):.6g}", file=sys.stderr)
        metrics = {
            "items_per_cal": {"value": len(cals) / sum(cals), "unit": "1/cal"},
            "item_p50_cal": {"value": hd_median(cals), "unit": "cal"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MiB"},
        }

    for line in runner.problems[:20]:
        print(f"CHECK {line}", file=sys.stderr)
    print(json.dumps({"correct": not runner.problems, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def write_trace(args, metrics, traced_items, tracer):
    """Per-layer metrics, per-item times and spans of the traced round."""
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"trace-{args.workload}-seed{args.seed}"
    doc = {"workload": args.workload, "seed": args.seed, "metrics": metrics,
           "items": [{"item": k, "label": label, "seconds": t, "cal_s": c}
                     for k, (label, t, c) in enumerate(traced_items)]}
    Path(f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")
    with open(f"{stem}.spans.jsonl", "w") as fh:
        for span in tracer.spans:
            if span is not None:
                sid, parent, name, item, start, end = span
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "item": item, "start": start, "end": end}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
