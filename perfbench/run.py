"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. With ``--trace 0`` it times the set-up of a
few fresh processes, then runs the workload in one more fresh process for
``--seconds`` and prints the end-to-end metrics. With ``--trace 1`` it runs
the workload with spans around each layer, prints the per-layer metrics and
writes the spans to ``perfbench/_out/trace-<workload>-seed<N>.json``. The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Processes run one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import worker

HERE = Path(__file__).resolve().parent
OUT = HERE / "_out"
SETUP_PROBES = 2      # fresh-process set-ups timed before and again after the run
DEADLINE_S = 170.0    # the whole run, set-up probes included

# numpy's BLAS pools would start one thread per core; the program's arrays
# are tiny, so pin them to one and keep the run to a single busy thread. A
# fixed hash seed keeps set and dict layouts, and so timings, alike across
# processes.
ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
           MKL_NUM_THREADS="1", PYTHONHASHSEED="0")


def _worker_cmd(mode, args, run_dir):
    return [sys.executable, str(HERE / "worker.py"), mode,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--run-dir", str(run_dir)]


def _remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("benchmark ran past its deadline")
    return left


def setup_seconds(args, run_dir, deadline) -> list[float]:
    """From starting a fresh process until it has imported the package and
    loaded the configuration (budget-sweep: and simulated its sequence)."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(_worker_cmd("setup", args, run_dir),
                                stdout=subprocess.PIPE, env=ENV, text=True)
        watchdog = threading.Timer(_remaining(deadline), proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        finally:
            watchdog.cancel()
            proc.stdout.close()
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        samples.append(t1 - t0)
    return samples


def run_worker(args, run_dir, deadline) -> dict:
    proc = subprocess.run(_worker_cmd("run", args, run_dir),
                          stdout=subprocess.PIPE, env=ENV, text=True,
                          timeout=_remaining(deadline))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(worker.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (worker.SRC / "autolabel3d" / "__init__.py").is_file():
        print(f"error: no autolabel3d sources under {worker.SRC}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    run_dir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        for name, text in worker.config_files(args.workload).items():
            (run_dir / name).write_text(text, encoding="utf-8")
        setup = [] if args.trace else setup_seconds(args, run_dir, deadline)
        res = run_worker(args, run_dir, deadline)
        if not args.trace:  # probes on both sides sample the load of the whole run
            setup += setup_seconds(args, run_dir, deadline)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"{args.workload} seed {args.seed}: {res['rounds']} rounds, "
          f"median round {res['run_s']:.4f} s wall, {res['cpu_s']:.4f} s "
          "user+sys; rounds " + " ".join(f"{t:.3f}" for t in res["round_s"]),
          file=sys.stderr)
    if args.trace:
        metrics = res["layers"]
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "rounds": res["rounds"], "traced_run_s": res["run_s"],
            "traced_cpu_s": res["cpu_s"], "self_shares": res["self_shares"],
            "layers": metrics,
            "span_fields": ["name", "start", "end", "parent"],
            "spans": res["spans"]}), encoding="utf-8")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_s": {"value": res["run_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "out_bytes": {"value": res["out_bytes"], "unit": "bytes"},
        }
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
