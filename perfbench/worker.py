"""One benchmark run of one workload, in a fresh process.

``run.py`` starts this file twice over: as ``setup`` to time a fresh
process's set-up, and as ``run`` to repeat the workload's rounds for the
requested seconds, check the outputs of the first round against independent
computations, and report one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Scene make-up per workload. "grid" places the objects in a fixed diagonal
# formation driving with the ego, so the number of objects in view does not
# depend on the seed. Vehicle sizes come from narrower ranges than the
# simulator's defaults, so which objects occlude which, and with it the work
# of a round, varies little between seeds; the seed still draws the sizes and
# all oracle noise.
VEHICLES = dict(length_range=[4.0, 5.0], width_range=[1.7, 1.9],
                height_range=[1.5, 1.7])
WORKLOADS = {
    # two CLI calls per round, one on each scene below, ~7 s in all. One
    # workload per scene would leave too little time per run for steady
    # medians (README, Noise).
    "e2e": dict(kind="e2e", scenes={
        # dozens of objects seen from a turning ego: relative depth changes
        # every frame, so nearly every pseudolabel has its own confidence
        # and AMOTA runs one CLEAR-MOT pass per confidence
        "crowded": dict(
            noise="medium",
            sim=dict(duration=36, object_count=28, layout="grid",
                     ego_motion="arc", ego_arc_radius=40.0,
                     spawn_x=[-12.0, 36.0], spawn_z=[12.0, 66.0], **VEHICLES)),
        # few objects over a long scene with the exact oracle: one
        # confidence value, so the call is weight maps and text I/O
        "long-noiseless": dict(
            noise="noiseless",
            sim=dict(duration=120, object_count=6, layout="grid", **VEHICLES)),
    }),
    # the annotation-budget experiment through the library API; half of the
    # matches drop and confidence is constant, so propagation dominates
    "budget-sweep": dict(kind="sweep", budgets=(1, 2, 4, 8, 16, 32), scenes={
        "budget": dict(
            noise="heavy_dropout",
            sim=dict(duration=120, object_count=12, layout="grid",
                     **VEHICLES)),
    }),
}

SWEEP_TABLE = "budget_sweep.csv"


def config_files(workload: str) -> dict[str, str]:
    """The YAML run configuration of each scene of a workload, by file name
    (JSON is valid YAML)."""
    return {f"{name}.yaml": json.dumps({"sim": sc["sim"], "noise": sc["noise"]},
                                       indent=1) + "\n"
            for name, sc in WORKLOADS[workload]["scenes"].items()}


def import_program():
    """Import the whole package, as the CLI does, from this checkout."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import autolabel3d.cli
    if Path(autolabel3d.cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"autolabel3d imported from {autolabel3d.cli.__file__}, "
                         f"not from {SRC}")


# ---------------------------------------------------------------------------
# Workloads

class E2E:
    """One ``autolabel3d e2e`` CLI call per scene and round, each scene
    writing to its own subdirectory of the round's output."""

    def __init__(self, workload, seed, run_dir: Path):
        from autolabel3d import config
        self.scenes = []  # (name, noise, config path, config)
        for name, sc in WORKLOADS[workload]["scenes"].items():
            path = run_dir / f"{name}.yaml"
            self.scenes.append((name, sc["noise"], path,
                                config.load_run_config(str(path))))
        self.seed = seed
        self.ops_per_round = len(self.scenes)

    def round(self, out: Path) -> int:
        from autolabel3d import cli
        failed = 0
        for name, noise, cfg_path, _ in self.scenes:
            argv = ["--config", str(cfg_path), "--out", str(out / name), "e2e",
                    "--seed", str(self.seed), "--noise", noise]
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                failed += int(cli.main(argv) != 0)
        return failed

    def check(self, out: Path) -> list[str]:
        errors = []
        for name, noise, _, cfg in self.scenes:
            errors += [f"{name}: {e}" for e in
                       self._check_scene(out / name, noise, cfg)]
        return errors

    @staticmethod
    def _check_scene(out: Path, noise: str, cfg) -> list[str]:
        import checks
        from autolabel3d import formats
        read = lambda name: (out / name).read_text(encoding="utf-8")  # noqa: E731
        seq = formats.parse_sequence(read("sequence.txt"))
        sparse = formats.parse_sparse_labels(read("sparse_labels.txt"))
        preds = formats.parse_pseudolabels(read("pseudolabels.txt"))
        report = formats.parse_metric_report(read("metric_report.txt"))
        weights = checks.read_weight_maps(read("weight_maps.txt"))
        errors = []
        if report.dist_threshold != cfg.metrics.dist_threshold or \
                tuple(report.recall_grid) != tuple(cfg.metrics.recall_grid):
            errors.append("metric report does not echo the configuration")
        errors += checks.check_report(
            seq, preds, report, checks.read_recall_csv(read("per_recall.csv")))
        errors += checks.check_weight_maps(seq, preds, weights,
                                           cfg.heatmap_stride,
                                           cfg.pipeline.fncomp_floor)
        errors += checks.check_sparse_labels(seq, sparse.selected,
                                             cfg.sampling.max_per_track, preds)
        if noise == "noiseless":
            errors += checks.check_noiseless(seq, preds, weights)
        return errors


class BudgetSweep:
    """Set-up simulates one sequence; a round runs sample -> pipeline ->
    coverage -> evaluate for every budget and writes one table."""

    def __init__(self, workload, seed, run_dir: Path):
        from autolabel3d import config, simulator
        (scene,) = WORKLOADS[workload]["scenes"]
        cfg = config.load_run_config(str(run_dir / f"{scene}.yaml"))
        self.cfg = dataclasses.replace(
            cfg, sim=dataclasses.replace(cfg.sim, seed=seed),
            noise=dataclasses.replace(cfg.noise, seed=seed),
            sampling=dataclasses.replace(cfg.sampling, seed=seed))
        self.budgets = WORKLOADS[workload]["budgets"]
        self.ops_per_round = len(self.budgets)
        self.seq = simulator.simulate(self.cfg.sim)
        self.kept = None  # per-budget (selected, pseudolabels) of round one

    def round(self, out: Path) -> int:
        from autolabel3d import metrics, pipeline, providers, sampling
        cfg, seq = self.cfg, self.seq
        rows, kept, failed = [], [], 0
        for k in self.budgets:
            try:
                sparse = sampling.sample_sparse(seq, k, cfg.sampling.seed)
                prov = providers.OracleProviderSet(
                    seq, cfg.noise, heatmap_stride=cfg.heatmap_stride)
                merged, _, _ = pipeline.run_pipeline(seq, sparse, prov,
                                                     cfg.pipeline)
                cov = pipeline.coverage_report(seq, merged).overall_fraction
                rep = metrics.evaluate(seq, merged, cfg.metrics.dist_threshold,
                                       cfg.metrics.recall_grid)
            except Exception as e:  # an operation failure is counted, not fatal
                print(f"budget {k} failed: {e!r}", file=sys.stderr)
                failed += 1
                continue
            # fixed-point, so the table's size does not depend on the digits
            rows.append([k] + [f"{v:.17f}" for v in
                               (cov, rep.mota, rep.idf1, rep.amota)])
            kept.append((k, sparse.selected, merged))
        out.mkdir(parents=True, exist_ok=True)
        with open(out / SWEEP_TABLE, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["max_per_track", "coverage", "mota", "idf1", "amota"])
            w.writerows(rows)
        if self.kept is None:
            self.kept = kept
        return failed

    def check(self, out: Path) -> list[str]:
        import checks
        with open(out / SWEEP_TABLE, newline="", encoding="utf-8") as fh:
            table = {int(r["max_per_track"]): {k: float(v) for k, v in r.items()}
                     for r in csv.DictReader(fh)}
        errors = []
        for k, selected, merged in self.kept:
            if k not in table:
                errors.append(f"budget {k} missing from the table")
                continue
            errors += checks.check_budget_row(
                self.seq, k, selected, merged, table[k],
                self.cfg.metrics.dist_threshold)
        return errors


def make_workload(workload, seed, run_dir):
    kind = WORKLOADS[workload]["kind"]
    return (E2E if kind == "e2e" else BudgetSweep)(workload, seed, run_dir)


# ---------------------------------------------------------------------------
# Run

def _files(out: Path) -> list[Path]:
    return sorted(p for p in out.rglob("*") if p.is_file())


def _digest(out: Path) -> dict[str, str]:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in _files(out)}


def _bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in _files(out))


def run(args) -> dict:
    run_dir = Path(args.run_dir)
    import_program()
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        uninstall = tracer.install()
        phase = tracer.begin("setup")
    work = make_workload(args.workload, args.seed, run_dir)
    if tracer:
        tracer.end(phase)

    first = run_dir / "round-1"
    scratch = run_dir / "round"
    times, cpu, failed, rounds = [], [], 0, 0
    digest = None
    nondeterministic = 0
    start = time.perf_counter()
    while True:
        out = first if rounds == 0 else scratch
        shutil.rmtree(out, ignore_errors=True)
        if tracer:
            phase = tracer.begin("round")
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        failed += work.round(out)
        t1 = time.perf_counter()
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        if tracer:
            tracer.end(phase)
        times.append(t1 - t0)
        cpu.append(r1.ru_utime - r0.ru_utime + r1.ru_stime - r0.ru_stime)
        rounds += 1
        d = _digest(out)
        if digest is None:
            digest, out_bytes = d, _bytes(out)
        elif d != digest:
            nondeterministic += 1
        if t1 - start >= args.seconds:
            break
    shutil.rmtree(scratch, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        uninstall()

    errors = work.check(first)
    if nondeterministic:
        errors.append(f"{nondeterministic} rounds wrote outputs that differ "
                      "from the first round's")
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)

    result = {
        "correct": not errors,
        "attempted": rounds * work.ops_per_round,
        "failed": failed,
        "rounds": rounds,
        "run_s": statistics.median(times),
        "round_s": times,
        "cpu_s": statistics.median(cpu),
        "peak_rss_mb": peak_rss_mb,
        "out_bytes": out_bytes,
    }
    if tracer:
        result["layers"] = tracer.layer_metrics(rounds)
        result["self_shares"] = tracer.self_shares()
        result["spans"] = tracer.spans
    shutil.rmtree(first, ignore_errors=True)
    return result


def setup_probe(args):
    """Import the package and load the configuration (for budget-sweep also
    simulate the sequence), then tell the parent."""
    import_program()
    make_workload(args.workload, args.seed, Path(args.run_dir))
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def main():
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "run"))
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--run-dir", required=True)
    args = p.parse_args()
    if args.mode == "setup":
        setup_probe(args)
        return
    result = run(args)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
