"""ghtree benchmark: builder and query time, max-flow counts, set-up time.

Run from the repository root:

    python3 perfbench/run.py --workload er_degree --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

One workload runs in this process, which must be fresh: FLOW_CALLS and
peak memory are per process.  ``--workload all`` runs each workload in its
own child process, one at a time.  The last line of output is one JSON
object; with ``--trace 0`` it holds the end-to-end metrics, whose build
and query times are at reference speed (scaled by a reference workload
timed around each operation, see reference.py), with ``--trace 1`` the
per-layer metrics of a traced run (spans are written to ``.bench_out/``).
Workloads, metrics and the reasons for them are in perfbench/rationale.json.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# one thread: numpy/scipy are loaded lazily by the expander
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
try:
    import ghtree
except ImportError as exc:
    print(f"perfbench: cannot import ghtree from {ROOT / 'src'}: {exc}", file=sys.stderr)
    sys.exit(2)
if Path(ghtree.__file__).resolve().parent.parent != ROOT / "src":
    print(f"perfbench: imported ghtree from {ghtree.__file__}, not {ROOT / 'src'}", file=sys.stderr)
    sys.exit(2)

import measure  # noqa: E402
from workloads import CORPUS_SEED, WORKLOADS  # noqa: E402


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1,
                    help="picks the pairs checked against direct max-flows")
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="time for the timed build rounds (at least three rounds run)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corpus-seed", type=int, default=CORPUS_SEED,
                    help="seed of the graph recipes and of the randomized builder")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def result_line(tally, metrics) -> str:
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_one(args) -> int:
    wl = WORKLOADS[args.workload]
    if args.setup_only:
        measure.setup(wl, args.corpus_seed)
        return 0
    if args.trace:
        graphs = measure.setup(wl, args.corpus_seed)
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        spans = out / f"spans-{wl.name}-seed{args.seed}.tsv"
        tally, metrics = measure.traced(wl, graphs, args.corpus_seed, args.seed, spans)
        print(f"{wl.name}: {metrics['trace.spans'][0]} spans written to {spans}")
    else:
        graphs = measure.setup(wl, args.corpus_seed)
        tally, metrics = measure.end_to_end(
            wl, graphs, args.corpus_seed, args.seed, args.seconds,
            lambda: measure.setup_seconds(__file__, wl.name, args.corpus_seed))
    print(result_line(tally, metrics))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh child process, sequentially."""
    results = {}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--corpus-seed", str(args.corpus_seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        if not lines:
            continue
        results[name] = json.loads(lines[-1])
        for metric, m in results[name]["metrics"].items():
            print(f"  {name:17s} {metric:36s} {m['value']:>14.6g} {m['unit']}")
        r = results[name]
        print(f"  {name:17s} correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
    print(json.dumps({"workloads": results}))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
