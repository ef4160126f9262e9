"""Reference timings quoted in perfbench/README.md, measured again on demand.

    python3 perfbench/reference.py

Each figure is one cold call (caches cleared first), single-threaded:

* charpoly_direct on random_connected_graph(n, Random(1), 0.2), n = 20/30/40;
* cf_pendant_many on K12 with s = 4 and 8 targets;
* the twelve regular-graph identities over the connected regular corpus,
  n <= 8 and r >= 2, as one batch;
* the tier-1 test suite, as a subprocess.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

REGULAR_IDENTITIES = (
    "line-regular-aalpha", "line-regular-a", "complement-regular",
    "subdivision-aalpha", "subdivision-a", "rgraph-aalpha", "rgraph-a",
    "qgraph-line", "qgraph-aalpha", "qgraph-a", "total-aalpha", "total-a")


def timed(label, fn):
    start = time.perf_counter()
    fn()
    print(f"{label:48} {time.perf_counter() - start:8.2f} s", flush=True)


def main():
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import program_caches
    import alphapoly as ap
    from alphapoly import corpus
    caches = program_caches()

    def cold(fn):
        for cached in caches:
            cached.cache_clear()
        return fn

    for n in (20, 30, 40):
        g = corpus.random_connected_graph(n, random.Random(1), 0.2)
        timed(f"charpoly_direct n={n}", cold(lambda: ap.charpoly_direct(g)))
    k12 = ap.family_generate(ap.FamilySpec.parse("complete:12"))
    for s in (4, 8):
        timed(f"cf_pendant_many K12 s={s}", cold(lambda: ap.cf_pendant_many(k12, range(s))))

    def batch():
        for _, g in corpus.regular_corpus(8, min_r=2):
            for identity in REGULAR_IDENTITIES:
                if not ap.verify_identity(identity, g).passed:
                    raise AssertionError(f"{identity} failed")

    timed("regular identities, corpus n<=8 r>=2", cold(batch))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    timed("tier-1 tests", lambda: subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"],
        cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL))


if __name__ == "__main__":
    main()
