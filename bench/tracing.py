"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions and methods of eigendetect's modules
from the outside, so nothing under ``src/`` changes.  Calls the library
makes through module globals or methods (``roc`` calling
``threshold_from_pfa``, ``run_trials`` calling ``gen_noise``) pass
through the wrappers too.  Each span records a name, start, end, parent
span and request id; spans stay in memory until :meth:`Tracer.save`.
Counts (calls, points, words) are taken at the same boundaries.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

import numpy as np


class Stat:
    """Aggregates for one span name."""

    __slots__ = ("calls", "total", "self_time", "points", "clamped")

    def __init__(self):
        self.calls = 0
        self.total = 0.0       # inclusive seconds
        self.self_time = 0.0   # seconds not covered by child spans
        self.points = 0
        self.clamped = 0


def _tw_points(stat, args, out):
    table, x = args[0], np.asarray(args[1])
    stat.points += x.size
    stat.clamped += int(np.count_nonzero((x < table.grid[0]) | (x > table.grid[-1])))


def _arg1_points(stat, args, out):
    stat.points += np.size(args[1])


def _words(stat, args, out):
    stat.points += int(args[1])


def _trials(stat, args, out):
    stat.points += out.trials


class Tracer:
    """Span recorder; :meth:`installed` patches the library for its duration."""

    def __init__(self, modules):
        self._targets = self._targets_for(modules)
        self.stats: dict[str, Stat] = {}
        self.layer_outer: Counter = Counter()   # outermost-span seconds per layer
        self.thresholds: list = []               # (target, design, gamma) per inversion
        self.threshold_cdf_evals = 0
        self.request = -1
        self.enabled = True
        self._open_names: dict[str, int] = {"simulate.run_trials": 0,
                                            "performance.threshold": 0}
        self._open_layers: dict[str, int] = {}
        self._stack: list = []                   # [span id, child seconds]
        self._next_id = 0
        self._name_ids: dict[str, int] = {}
        self._spans: list = []                   # (id, name, parent, request, start, end)

    def _targets_for(self, m):
        tw, perf, sim, rng, spiked = (m[k] for k in ("tracy_widom", "performance",
                                                      "simulate", "rng", "spiked"))
        table, law, stream = tw.TracyWidomTable, perf.RatioLaw, rng.SeededStream
        return [
            (table, "cdf", "tracy_widom.cdf", "tracy_widom", _tw_points),
            (table, "pdf", "tracy_widom.pdf", "tracy_widom", _tw_points),
            (law, "cdf", "performance.ratio_cdf", "performance", _arg1_points),
            (law, "pdf", "performance.ratio_pdf", "performance", _arg1_points),
            (perf, "threshold_from_pfa", "performance.threshold", "performance",
             self._record_threshold),
            (perf, "pmd", "performance.pmd", "performance", None),
            (perf, "roc", "performance.roc", "performance", None),
            (sim, "run_trials", "simulate.run_trials", "simulate", _trials),
            (sim, "gen_noise", "simulate.gen_noise", "simulate", None),
            (sim, "gen_signal", "simulate.gen_signal", "simulate", None),
            (sim, "ks_distance", "simulate.ks_distance", "simulate", None),
            (np.linalg, "eigvalsh", "simulate.eig", "simulate", None),
            (stream, "uniform_open", "rng.uniform_open", "rng", _words),
            (stream, "standard_normal", "rng.standard_normal", "rng", None),
            (stream, "standard_complex_normal", "rng.standard_complex_normal", "rng", None),
            (spiked, "spike_spectrum", "spiked.spike_spectrum", "spiked", None),
            (spiked, "spike_from_snr", "spiked.spike_from_snr", "spiked", None),
            (sim, "scenario_from_snr", "spiked.scenario", "spiked", None),
            (sim, "scenario_from_component_snrs", "spiked.scenario", "spiked", None),
        ]

    def _record_threshold(self, stat, args, out):
        self.thresholds.append((args[0], args[1], out))

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    @property
    def spans(self) -> int:
        return len(self._spans)

    def _wrap(self, fn, name, layer, extra):
        stat = self.stat(name)
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        open_names, open_layers, stack, spans = (
            self._open_names, self._open_layers, self._stack, self._spans)
        open_names.setdefault(name, 0)
        open_layers.setdefault(layer, 0)
        clock = time.perf_counter
        # eigvalsh is shared with spike_spectrum; only trial eigensolves count
        only_in_trials = name == "simulate.eig"
        counts_for_threshold = name == "performance.ratio_cdf"

        def traced(*args, **kwargs):
            if not self.enabled or (only_in_trials and not open_names["simulate.run_trials"]):
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            outermost = not open_layers[layer]
            if counts_for_threshold and open_names["performance.threshold"]:
                self.threshold_cdf_evals += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            open_names[name] += 1
            open_layers[layer] += 1
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                open_names[name] -= 1
                open_layers[layer] -= 1
                dur = end - start
                stat.calls += 1
                stat.total += dur
                stat.self_time += dur - frame[1]
                if outermost:
                    self.layer_outer[layer] += dur
                if stack:
                    stack[-1][1] += dur
                spans.append((span_id, name_id, parent, self.request, start, end))
            if extra is not None:
                extra(stat, args, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, name, layer, extra in self._targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, layer, extra))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def paused(self):
        """Run benchmark-side work (checks, input generation) untraced."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def save(self, path) -> None:
        """Write the spans as columns; ``name`` indexes into ``names``."""
        names = sorted(self._name_ids, key=self._name_ids.get)
        ids, name, parent, request, start, end = (
            zip(*self._spans) if self._spans else ((),) * 6)
        np.savez_compressed(
            path, names=np.array(names), id=np.array(ids, dtype=np.int64),
            name=np.array(name, dtype=np.int64), parent=np.array(parent, dtype=np.int64),
            request=np.array(request, dtype=np.int64), start=np.array(start, dtype=float),
            end=np.array(end, dtype=float))
