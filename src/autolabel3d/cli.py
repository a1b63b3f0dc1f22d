"""Command-line entry point wiring all modules into reproducible runs."""

from __future__ import annotations

import argparse
import csv
import io
import logging
import os
import sys
from pathlib import Path

from . import formats, metrics
from .config import NOISE_PROFILES, RunConfig, load_run_config, read_yaml
from .core import CameraIntrinsics, InvalidArgument
from .pipeline import coverage_report, iter_fncomp_weights, run_pipeline
from .providers import OracleProviderSet
from .sampling import mine_pairs, sample_sparse
from .simulator import DEFAULT_INTRINSICS, simulate

log = logging.getLogger("autolabel3d")

SEQUENCE_FILE = "sequence.txt"
SPARSE_FILE = "sparse_labels.txt"
PAIRS_FILE = "mining_pairs.txt"
PSEUDO_FILE = "pseudolabels.txt"
PSEUDO_FWD_FILE = "pseudolabels_forward.txt"
PSEUDO_BWD_FILE = "pseudolabels_backward.txt"
WEIGHTS_FILE = "weight_maps.txt"
REPORT_FILE = "metric_report.txt"
RECALL_CSV = "per_recall.csv"
COVERAGE_FILE = "coverage.txt"
SWEEP_CSV = "sweep.csv"


class ArtifactStore:
    """The ``--out`` directory of one invocation: ``put`` writes an artifact
    and keeps its object for the later stages; ``get`` parses a file only
    when this invocation did not write it. Every artifact is written by
    ``write``, so none is ever left half written."""

    def __init__(self, root: Path):
        self.root = root
        self._objects: dict[str, object] = {}

    def put(self, name: str, obj, serialize) -> Path:
        path = self.write(name, [serialize(obj)])
        self._objects[name] = obj
        return path

    def write(self, name: str, chunks) -> Path:
        """Write the text ``chunks`` to a temporary file in the directory,
        then move it onto ``name``; on any exception the temporary file goes
        and an earlier ``name`` stays as it was."""
        path = self.root / name
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = self.root / f".{name}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                for chunk in chunks:
                    fh.write(chunk)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        log.info("wrote %s", path)
        return path

    def get(self, name: str, parse):
        if name not in self._objects:
            path = self.root / name
            if not path.exists():
                raise InvalidArgument(
                    f"missing input file {path}; run the producing "
                    "command first or pass --out consistently")
            self._objects[name] = _parse_file(path, parse)
        return self._objects[name]


def _parse_file(path: Path, parse):
    """``parse`` the text of ``path``; a ``ParseError`` or a byte that is
    not UTF-8 names the file."""
    try:
        return parse(path.read_text(encoding="utf-8"))
    except (formats.ParseError, UnicodeDecodeError) as e:
        raise formats.ParseError(f"{path}: {e}") from None


def _setup_logging():
    level = os.environ.get("LOGLEVEL", "warn").lower()
    mapping = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=mapping.get(level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _load_config(args, extra=()) -> RunConfig:
    """The ``--config`` YAML, each flag given set as the key it names, and
    then each key of ``extra``."""
    overrides = {k: v for k, v in vars(args).items()
                 if v is not None and (k == "noise" or "." in k)}
    if args.seed is not None:
        overrides.update(dict.fromkeys(
            ("sim.seed", "noise.seed", "sampling.seed"), args.seed))
    overrides.update(extra)
    return load_run_config(args.config, overrides)


def _providers(seq, cfg: RunConfig) -> OracleProviderSet:
    return OracleProviderSet(seq, cfg.noise, heatmap_stride=cfg.heatmap_stride)


def cmd_simulate(args, cfg: RunConfig, store: ArtifactStore):
    seq = simulate(cfg.sim)
    path = store.put(SEQUENCE_FILE, seq, formats.serialize_sequence)
    print(f"simulated {len(seq.frames)} frames, "
          f"{len(seq.track_ids())} tracks -> {path}")


def cmd_sample(args, cfg: RunConfig, store: ArtifactStore):
    seq = store.get(SEQUENCE_FILE, formats.parse_sequence)
    sparse = sample_sparse(seq, cfg.sampling.max_per_track, cfg.sampling.seed)
    store.put(SPARSE_FILE, sparse, formats.serialize_sparse_labels)
    n = sum(len(v) for v in sparse.selected.values())
    print(f"selected {n} sparse labels across {len(sparse.selected)} tracks "
          f"(reduction {sparse.reduction_ratio:.4f})")


def cmd_mine_pairs(args, cfg: RunConfig, store: ArtifactStore):
    seq = store.get(SEQUENCE_FILE, formats.parse_sequence)
    sparse = store.get(SPARSE_FILE, formats.parse_sparse_labels)
    pairs = mine_pairs(seq, sparse, cfg.sampling.window)
    store.put(PAIRS_FILE, pairs, formats.serialize_mining_pairs)
    by_strategy: dict[str, int] = {}
    for p in pairs:
        by_strategy[p.strategy] = by_strategy.get(p.strategy, 0) + 1
    print(f"mined {len(pairs)} pairs: {by_strategy}")


def cmd_pseudolabel(args, cfg: RunConfig, store: ArtifactStore):
    seq = store.get(SEQUENCE_FILE, formats.parse_sequence)
    sparse = store.get(SPARSE_FILE, formats.parse_sparse_labels)
    merged, fwd, bwd = run_pipeline(seq, sparse, _providers(seq, cfg),
                                    cfg.pipeline)
    store.put(PSEUDO_FWD_FILE, [p for h in fwd for p in h.pseudolabels],
              formats.serialize_pseudolabels)
    store.put(PSEUDO_BWD_FILE, [p for h in bwd for p in h.pseudolabels],
              formats.serialize_pseudolabels)
    store.put(PSEUDO_FILE, merged, formats.serialize_pseudolabels)
    report = coverage_report(seq, merged, fwd + bwd)
    store.put(COVERAGE_FILE, report, _coverage_text)
    print(f"emitted {len(merged)} merged pseudolabels "
          f"(coverage {report.overall_fraction:.4f})")


def _coverage_text(report) -> str:
    lines = ["track covered total fraction mean_confidence"]
    for t in report.per_track:
        lines.append(f"{t.track_id} {t.covered} {t.total} "
                     f"{formats.fmt_float(t.fraction)} "
                     f"{formats.fmt_float(t.mean_confidence)}")
    for tid, direction, frame in report.terminations:
        lines.append(f"terminated {tid} {direction} {frame}")
    return "\n".join(lines) + "\n"


def cmd_fn_weights(args, cfg: RunConfig, store: ArtifactStore):
    seq = store.get(SEQUENCE_FILE, formats.parse_sequence)
    pseudo = store.get(PSEUDO_FILE, formats.parse_pseudolabels)
    # streamed, not put: a frame's map is dropped once its rows are written,
    # so memory does not grow with the length of the sequence
    weights = iter_fncomp_weights(seq, pseudo, _providers(seq, cfg),
                                  cfg.pipeline)
    store.write(WEIGHTS_FILE, formats.iter_weight_maps_text(weights))
    print(f"emitted weight maps for {len(seq.frames)} frames")


def cmd_evaluate(args, cfg: RunConfig, store: ArtifactStore):
    seq = store.get(SEQUENCE_FILE, formats.parse_sequence)
    pseudo = store.get(PSEUDO_FILE, formats.parse_pseudolabels)
    report = metrics.evaluate(seq, pseudo, cfg.metrics.dist_threshold,
                              cfg.metrics.recall_grid)
    store.put(REPORT_FILE, report, formats.serialize_metric_report)
    store.put(RECALL_CSV, report, _recall_csv)
    print(f"MOTA={report.mota:.6f} MOTP={report.motp:.6f} "
          f"IDF1={report.idf1:.6f} AMOTA={report.amota:.6f} "
          f"AMOTP={report.amotp:.6f}")
    print(f"counts: tp={report.counts.tp} fp={report.counts.fp} "
          f"fn={report.counts.fn} idsw={report.counts.idsw} "
          f"gt={report.counts.gt_total}")


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _recall_csv(report) -> str:
    return _csv_text(
        [["recall", "motar", "motp", "tp", "fp", "fn", "idsw", "achievable"]]
        + [[p.recall, p.motar, "" if p.motp is None else p.motp,
            p.tp, p.fp, p.fn, p.idsw, int(p.achievable)]
           for p in report.per_recall])


def cmd_parse_kitti(args, cfg: RunConfig, store: ArtifactStore):
    if args.calib:
        calib = _parse_file(Path(args.calib), formats.parse_kitti_calib)
        intrinsics = calib.intrinsics
        if calib.translation_ignored:
            log.warning("P2 carries a nonzero translation column; ignored")
    else:
        intrinsics = CameraIntrinsics(**DEFAULT_INTRINSICS)
    seq, stats = _parse_file(Path(args.labels),
                             lambda text: formats.parse_kitti(text, intrinsics))
    store.put(SEQUENCE_FILE, seq, formats.serialize_sequence)
    print(f"parsed {stats.kept} annotations "
          f"(dropped {stats.dropped_dontcare} DontCare, "
          f"{stats.dropped_category} non-vehicle)")


def cmd_losses_check(args, cfg: RunConfig, store: ArtifactStore):
    from .gradcheck import run_gradient_checks
    results = run_gradient_checks(seed=cfg.sampling.seed)
    print(f"{'loss':<14} {'max rel err':>12} {'points':>7} status")
    ok = True
    for name, err, n, passed in results:
        print(f"{name:<14} {err:12.3e} {n:7d} {'pass' if passed else 'FAIL'}")
        ok = ok and passed
    if not ok:
        raise InvalidArgument("gradient check failed")


def cmd_e2e(args, cfg: RunConfig, store: ArtifactStore):
    # --sweep KEY=V1,V2,...: each value read as YAML and set as KEY, the
    # way a flag sets the key it names; every value is checked up front
    name, _, values = (args.sweep or "").partition("=")
    key = "sampling.max_per_track" if name == "max_per_track" else name
    cells = []
    for v in values.split(",") if args.sweep else []:
        where = f"--sweep value {v!r} in {args.sweep!r}"
        value = read_yaml(v, where)
        try:
            cells.append((v, _load_config(args, {key: value})))
        except InvalidArgument as e:
            raise InvalidArgument(f"{where}: {e}") from None
    cmd_simulate(args, cfg, store)
    cmd_sample(args, cfg, store)
    cmd_pseudolabel(args, cfg, store)
    cmd_fn_weights(args, cfg, store)
    cmd_evaluate(args, cfg, store)
    if not cells:
        return

    shared = store.get(SEQUENCE_FILE, formats.parse_sequence)
    rows = []
    for v, c in cells:
        seq = shared if c.sim == cfg.sim else simulate(c.sim)
        sparse = sample_sparse(seq, c.sampling.max_per_track, c.sampling.seed)
        merged, _, _ = run_pipeline(seq, sparse, _providers(seq, c),
                                    c.pipeline)
        cov = coverage_report(seq, merged).overall_fraction
        rep = metrics.evaluate(seq, merged, c.metrics.dist_threshold,
                               c.metrics.recall_grid)
        rows.append((v, cov, rep.mota, rep.idf1))
    store.put(SWEEP_CSV, [(name, "coverage", "mota", "idf1")] + rows,
              _csv_text)
    print("sweep: " + "; ".join(
        f"{name}={v}: coverage={c:.4f} MOTA={m:.4f}" for v, c, m, _ in rows))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autolabel3d",
        description="Sparse-to-dense 3D track auto-labeling: simulate a "
                    "scene, sample sparse labels, propagate pseudolabels, "
                    "and evaluate them.")
    parser.add_argument("--config", help="YAML run configuration")
    parser.add_argument("--out", default="out", help="artifact directory")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        p.add_argument("--seed", type=int, help="override all seeds")
        p.add_argument("--max-per-track", dest="sampling.max_per_track",
                       type=int)
        p.add_argument("--window", dest="sampling.window", type=int)
        p.add_argument("--dist-threshold", dest="metrics.dist_threshold",
                       type=float)
        p.add_argument("--noise", help="named noise profile "
                       f"({', '.join(sorted(NOISE_PROFILES))})")
        return p

    add("simulate", cmd_simulate, "generate a synthetic sequence")
    add("sample", cmd_sample, "select the sparse label subset")
    add("mine-pairs", cmd_mine_pairs, "enumerate training mining pairs")
    add("pseudolabel", cmd_pseudolabel, "propagate and merge pseudolabels")
    add("fn-weights", cmd_fn_weights, "emit FN-compensation weight maps")
    add("evaluate", cmd_evaluate, "score pseudolabels against ground truth")
    kitti = add("parse-kitti", cmd_parse_kitti, "convert KITTI label files")
    kitti.add_argument("--labels", required=True)
    kitti.add_argument("--calib")
    add("losses-check", cmd_losses_check, "gradient-check every loss")
    e2e = add("e2e", cmd_e2e, "simulate, sample, pseudolabel, weight, evaluate")
    e2e.add_argument(
        "--sweep", metavar="KEY=V1,V2,...",
        help="after the run, score one row of sweep.csv per value: KEY is "
             "noise, a section.field config key or max_per_track "
             "(sampling.max_per_track), and each value is read as YAML and "
             "checked like the config file, e.g. max_per_track=2,4,8,16 or "
             "pipeline.discard_threshold=0,0.5")

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse has printed why; --help exits 0
        return 1 if e.code else 0
    try:
        cfg = _load_config(args)
        args.fn(args, cfg, ArtifactStore(Path(args.out)))
    except (InvalidArgument, formats.ParseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # internal failure
        log.exception("internal error")
        print(f"internal error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
