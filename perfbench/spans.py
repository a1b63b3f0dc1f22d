"""Spans and counters around the program's public functions.

The tracer replaces each traced function, in its own module and in every
``autolabel3d`` module that imported it by name, with a wrapper that records
a span (name, start, end, parent) and updates counters from the result.
Nothing under ``src/`` changes. Spans are held in memory; the caller writes
them out when the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

SPAN_SETUP = "setup"
SPAN_ROUND = "round"


def _annotations(c, result):
    c["simulator.annotations"] += sum(len(f.annotations) for f in result.frames)


def _parse_calls(c, result):
    c["formats.parse_sequence_calls"] += 1


def _weight_bytes(c, result):
    c["formats.weight_maps_bytes"] += len(result.encode("utf-8"))


def _seeds(c, result):
    c["sampling.seeds"] += sum(len(v) for v in result.selected.values())


def _match(c, result):
    c["providers.match_calls"] += 1
    c["providers.match_hits"] += result is not None


def _estimate(c, result):
    c["providers.estimate_calls"] += 1


def _accepted(c, result):
    # every hypothesis starts from its seed label
    c["pipeline.accepted"] += sum(len(h.pseudolabels) - 1 for h in result)


def _merged(c, result):
    c["pipeline.merged"] += len(result)


def _cells(c, result):
    c["pipeline.weight_cells"] += sum(h.values.size for h in result.values())


def _clear_mot_calls(c, result):
    c["metrics.clear_mot_calls"] += 1


# (module, attribute, span name, counter); "Class.method" patches a method
TRACED = (
    ("simulator", "simulate", "simulator.simulate", _annotations),
    ("formats", "parse_sequence", "formats.parse_sequence", _parse_calls),
    ("formats", "serialize_sequence", "formats.serialize_sequence", None),
    ("formats", "serialize_weight_maps", "formats.serialize_weight_maps",
     _weight_bytes),
    ("formats", "serialize_pseudolabels", "formats.serialize_pseudolabels",
     None),
    ("formats", "parse_pseudolabels", "formats.parse_pseudolabels", None),
    ("sampling", "sample_sparse", "sampling.sample_sparse", _seeds),
    ("providers", "OracleProviderSet.match", "providers.match", _match),
    ("providers", "OracleProviderSet.estimate", "providers.estimate",
     _estimate),
    ("providers", "OracleProviderSet.objectness", "providers.objectness",
     None),
    ("pipeline", "propagate", "pipeline.propagate", _accepted),
    ("pipeline", "merge_bidirectional", "pipeline.merge", _merged),
    ("pipeline", "emit_fncomp_weights", "pipeline.fn_weights", _cells),
    ("metrics", "amota_amotp", "metrics.amota", None),
    ("metrics", "clear_mot", "metrics.clear_mot", _clear_mot_calls),
    ("metrics", "idf1", "metrics.idf1", None),
    ("cli", "cmd_simulate", "cli.simulate", None),
    ("cli", "cmd_sample", "cli.sample", None),
    ("cli", "cmd_pseudolabel", "cli.pseudolabel", None),
    ("cli", "cmd_fn_weights", "cli.fn_weights", None),
    ("cli", "cmd_evaluate", "cli.evaluate", None),
)

# per-layer metric -> (kind, span or counter); "self" excludes child spans
LAYER_METRICS = {
    "simulator.simulate_s": ("busy", "simulator.simulate"),
    "simulator.annotations": ("count", "simulator.annotations"),
    "formats.parse_sequence_s": ("busy", "formats.parse_sequence"),
    "formats.parse_sequence_calls": ("count", "formats.parse_sequence_calls"),
    "formats.serialize_sequence_s": ("busy", "formats.serialize_sequence"),
    "formats.serialize_weight_maps_s": ("busy", "formats.serialize_weight_maps"),
    "formats.weight_maps_bytes": ("count", "formats.weight_maps_bytes"),
    "formats.serialize_pseudolabels_s": ("busy", "formats.serialize_pseudolabels"),
    "formats.parse_pseudolabels_s": ("busy", "formats.parse_pseudolabels"),
    "sampling.sample_sparse_s": ("busy", "sampling.sample_sparse"),
    "sampling.seeds": ("count", "sampling.seeds"),
    "providers.match_s": ("busy", "providers.match"),
    "providers.match_calls": ("count", "providers.match_calls"),
    "providers.match_hit_ratio": ("ratio", ("providers.match_hits",
                                            "providers.match_calls")),
    "providers.estimate_s": ("busy", "providers.estimate"),
    "providers.estimate_calls": ("count", "providers.estimate_calls"),
    "providers.objectness_s": ("busy", "providers.objectness"),
    "pipeline.propagate_self_s": ("self", "pipeline.propagate"),
    "pipeline.accepted": ("count", "pipeline.accepted"),
    "pipeline.merge_s": ("busy", "pipeline.merge"),
    "pipeline.merged": ("count", "pipeline.merged"),
    "pipeline.fn_weights_self_s": ("self", "pipeline.fn_weights"),
    "pipeline.weight_cells": ("count", "pipeline.weight_cells"),
    "metrics.amota_s": ("busy", "metrics.amota"),
    "metrics.clear_mot_calls": ("count", "metrics.clear_mot_calls"),
    "metrics.clear_mot_s": ("busy", "metrics.clear_mot"),
    "metrics.idf1_s": ("busy", "metrics.idf1"),
    "cli.simulate_s": ("busy", "cli.simulate"),
    "cli.sample_s": ("busy", "cli.sample"),
    "cli.pseudolabel_s": ("busy", "cli.pseudolabel"),
    "cli.fn_weights_s": ("busy", "cli.fn_weights"),
    "cli.evaluate_s": ("busy", "cli.evaluate"),
}

UNITS = {"busy": "s", "self": "s", "count": "count", "ratio": "ratio"}
BYTE_COUNTERS = {"formats.weight_maps_bytes"}


class Tracer:
    """Spans are ``[name, start, end, parent index]``; phases are the
    benchmark's own spans (set-up and one per round) that parent them."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts = {SPAN_SETUP: Counter(), SPAN_ROUND: Counter()}
        self._stack: list[int] = []
        self._phase = SPAN_SETUP

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        if name in self.counts:
            self._phase = name
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if count is not None:
                count(self.counts[self._phase], result)
            return result
        return traced

    def install(self):
        """Wrap every traced function; returns a callable that undoes it."""
        undo = []
        modules = [m for n, m in list(sys.modules.items())
                   if n.startswith("autolabel3d.") and m is not None]
        for mod_name, attr, span, count in TRACED:
            owner = sys.modules[f"autolabel3d.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(span, orig, count))
                undo.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap(span, orig, count)
            for m in modules:
                if getattr(m, attr, None) is orig:
                    setattr(m, attr, wrapped)
                    undo.append((m, attr, orig))

        def uninstall():
            for target, name, orig in reversed(undo):
                setattr(target, name, orig)
        return uninstall

    # -- aggregation ---------------------------------------------------------

    def busy_and_self(self):
        """Busy and self seconds per phase (set-up or round) and span name."""
        child = [0.0] * len(self.spans)
        phase = []
        for name, t0, t1, parent in self.spans:
            phase.append(name if parent < 0 else phase[parent])
            if parent >= 0:
                child[parent] += t1 - t0
        busy = {SPAN_SETUP: Counter(), SPAN_ROUND: Counter()}
        own = {SPAN_SETUP: Counter(), SPAN_ROUND: Counter()}
        for i, (name, t0, t1, _) in enumerate(self.spans):
            busy[phase[i]][name] += t1 - t0
            own[phase[i]][name] += t1 - t0 - child[i]
        return busy, own

    def layer_metrics(self, rounds: int) -> dict:
        """Each metric as its set-up share once plus the mean of a round."""
        busy, own = self.busy_and_self()
        tables = {"busy": busy, "self": own, "count": self.counts}

        def per_round(table, key):
            return table[SPAN_SETUP][key] + table[SPAN_ROUND][key] / rounds

        metrics = {}
        for metric, (kind, key) in LAYER_METRICS.items():
            if kind == "ratio":
                hits, calls = (per_round(self.counts, k) for k in key)
                value = hits / calls if calls else 0.0
            else:
                value = per_round(tables[kind], key)
            unit = "bytes" if key in BYTE_COUNTERS else UNITS[kind]
            metrics[metric] = {"value": value, "unit": unit}
        return metrics

    def self_shares(self) -> dict:
        """Share of the rounds' wall time spent in each span's own code;
        the benchmark's code between traced calls is listed as 'round'."""
        busy, own = self.busy_and_self()
        total = busy[SPAN_ROUND][SPAN_ROUND]
        return {name: t / total for name, t in own[SPAN_ROUND].most_common()}
