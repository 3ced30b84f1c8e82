"""Run one benchmark workload, check its outputs and print its metrics.

Usage, from the repository root::

    python3 nocbench/run.py --workload lenet-flit --seed 0 --seconds 20 --trace 0

Workloads (each runs only its own path, in this one process, with BLAS
pinned to one thread):

* ``lenet-flit`` — LeNet-5 at flit level on the 4x4 mesh (``flit.py``);
* ``zoo-sweep``  — a Fig. 10-style txn grid through the sweep runtime
  (``sweep.py``);
* ``serve-hot`` / ``serve-evict`` — the served LeNet-5 proxy under
  open-loop load, decoded-weight cache hot or evicting (``serving.py``).

``--trace 0`` prints every end-to-end metric; ``--trace 1`` is a separate
traced run that records spans around the program's public calls, writes
``trace.json`` (Perfetto) and ``selftime.txt`` under
``.bench_out/<workload>-seed<n>/`` and prints every per-layer metric.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any failed
output check exits with code 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = {
    "lenet-flit": "flit",
    "zoo-sweep": "sweep",
    "serve-hot": "serving",
    "serve-evict": "serving",
}
OUT_DIR = ".bench_out"
#: set-up samples taken in fresh processes, besides this process's own
SETUP_CHILDREN = 4
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(MODULES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: import and set up once, print the seconds each took, exit
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _setup_in_child(args) -> tuple[float, float, float]:
    """``(import_s, build_s, spin_ms)`` of one set-up in a fresh interpreter."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-only",
    ]
    done = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    import_s, build_s, spin = json.loads(done.stdout.strip().splitlines()[-1])
    return import_s, build_s, spin


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"nocbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    # the package root instead of this script's directory, then the program
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))

    from nocbench import metrics, stats
    from nocbench.spans import Tracer

    start = time.perf_counter()
    workload = importlib.import_module(f"nocbench.{MODULES[args.workload]}")
    import_s = time.perf_counter() - start
    start = time.perf_counter()
    state = workload.setup(args.workload, args.seed)
    build_s = time.perf_counter() - start
    setup = (import_s, build_s, stats.median(stats.spin_ms() for _ in range(3)))
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    # imports happen once per process, so the other set-up samples come
    # from fresh processes, run one at a time
    setups = [setup]
    if not args.trace:
        setups += [_setup_in_child(args) for _ in range(SETUP_CHILDREN)]

    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    outcome = workload.run(args.workload, state, args.seed, args.seconds, tracer)
    end = time.perf_counter()

    for line in outcome.lines:
        print(line)
    if tracer is None:
        values = {
            "setup_s": stats.median(stats.calibrated(i + b, [c]) for i, b, c in setups),
            "peak_rss_mb": stats.peak_rss_mb(),
            **outcome.e2e,
        }
        table = metrics.END_TO_END
        print("setup (imports + build, spin) s: "
              + ", ".join(f"{i:.4f} + {b:.4f} ({c:.1f} ms)" for i, b, c in setups))
    else:
        values = {
            **dict.fromkeys(metrics.PER_LAYER, 0.0),
            **outcome.layers,
            "trace.coverage": tracer.coverage(start, end),
        }
        table = metrics.PER_LAYER
        out_dir = ROOT / OUT_DIR / f"{args.workload}-seed{args.seed}"
        for path in tracer.write(out_dir):
            print(f"wrote {path.relative_to(ROOT)}")
        rows = sorted(tracer.self_times().items(), key=lambda kv: -kv[1]["self_s"])
        for (layer, name), row in rows[:8]:
            print(f"self time {layer:<8} {name:<36} {row['self_s']:9.4f} s  x{row['count']}")

    bad = sorted(k for k, v in values.items() if not math.isfinite(v))
    if bad or set(values) != set(table):
        print(f"nocbench: unknown metrics {sorted(set(values) - set(table))}, "
              f"non-finite {bad}", file=sys.stderr)
        return 1
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": table[name][0]} for name in table},
    }
    print(json.dumps(result))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
