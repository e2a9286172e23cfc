"""Spans around the calls into each wordctc module, recorded from outside it.

While a Tracer is installed, every name listed in TARGETS is replaced, in
every wordctc module that holds it, by a wrapper that records a span: name,
parent, start, end and the work done (frames, lattice cells).  Installing
replaces module attributes and uninstalling puts the originals back, so the
library itself carries no timers.  Spans stay in memory until the run ends.

A span's self time is its duration minus the time its child spans cover.
The run is single-threaded, so spans nest and self times sum to the root
spans' durations.  The host clock's probes (hostclock.py) interrupt the
run inside spans; their time is taken out of every span open at the time,
and per_layer() scales the times by the host speed the probes measured.
"""

import importlib
import json
import time
from contextlib import contextmanager


def _rows(arg):
    def work(args, result):
        return {"frames": int(args[arg].shape[0])}

    return work


def _lstm(frames_arg):
    def work(args, result):
        layer = args[0]
        return {
            "frames": int(args[frames_arg].shape[0]),
            "D": layer.input_dim,
            "H": layer.hidden_dim,
        }

    return work


def _loaded_frames(args, result):
    return {"frames": sum(int(u.features.shape[0]) for u in result)}


def _backward_frames(args, result):
    # the returned input gradient has one row per input frame
    return {"frames": int(result[1].shape[0])}


def _cells(args, result):
    return {"cells": int(args[0].shape[0]) * (2 * len(args[1]) + 1)}


# (defining module, function name, span name, work recorder)
TARGETS = [
    ("data", "generate_synthetic", "data.generate_synthetic", None),
    ("data", "save_synth_corpus", "data.save_synth_corpus", None),
    ("data", "save_corpus", "data.save_corpus", None),
    ("data", "load_corpus", "data.load_corpus", _loaded_frames),
    ("network", "network_forward", "network.network_forward", _rows(1)),
    ("network", "lstm_forward", "network.lstm_forward", _lstm(1)),
    ("network", "network_backward", "network.network_backward", _backward_frames),
    ("network", "lstm_backward", "network.lstm_backward", _lstm(2)),
    ("network", "sgd_update", "network.sgd_update", None),
    ("numerics", "clip_global_norm", "numerics.clip_global_norm", None),
    ("ctc", "ctc_loss_and_gradient", "ctc.ctc_loss_and_gradient", _cells),
    ("ctc", "greedy_decode", "ctc.greedy_decode", _rows(0)),
    ("training", "_evaluate_prepared", "training.dev_eval", None),
    ("metrics", "edit_distance", "metrics.edit_distance", None),
    ("analysis", "overlap_histograms", "analysis.overlap_histograms", None),
    ("analysis", "permutation_pvalue", "analysis.permutation_pvalue", None),
    ("analysis", "blank_distance_report", "analysis.blank_distance_report", None),
    ("analysis", "frequency_margin_table", "analysis.frequency_margin_table", None),
]

MODULES = ("data", "network", "numerics", "ctc", "training", "metrics", "analysis", "cli")

# record fields
NAME, PARENT, START, END, WORK, PROBED, PROBED_SELF = range(7)


class Tracer:
    def __init__(self):
        # one record per span: [name, parent index, start, end, work dict,
        # probe time inside it, probe time while it was the innermost span]
        self.spans = []
        self._stack = []
        self.installed_now = False
        self.wall = 0.0  # installed time, probes excluded
        self.speeds = []  # host speed of each probe while installed

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        record = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), None, None,
                  0.0, 0.0]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    def on_probe(self, seconds, speed):
        """Called by the host clock after each probe."""
        if not self.installed_now:
            return
        self.wall -= seconds
        self.speeds.append(speed)
        for idx in self._stack:
            self.spans[idx][PROBED] += seconds
        if self._stack:
            self.spans[self._stack[-1]][PROBED_SELF] += seconds

    def _wrap(self, fn, name, work):
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if work is not None:
                record[WORK] = work(args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Swap every target for its wrapper in all wordctc modules."""
        modules = [importlib.import_module("wordctc")]
        modules += [importlib.import_module("wordctc." + m) for m in MODULES]
        swapped = []
        for home, fname, name, work in TARGETS:
            original = getattr(importlib.import_module("wordctc." + home), fname)
            wrapper = self._wrap(original, name, work)
            for mod in modules:
                if vars(mod).get(fname) is original:
                    setattr(mod, fname, wrapper)
                    swapped.append((mod, fname, original))
        started = time.perf_counter()
        self.installed_now = True
        try:
            yield self
        finally:
            self.installed_now = False
            self.wall += time.perf_counter() - started
            for mod, fname, original in swapped:
                setattr(mod, fname, original)

    def self_times(self):
        """Per span: (name, duration, self time, work), probes excluded."""
        child_time = [0.0] * len(self.spans)
        for r in self.spans:
            if r[PARENT] >= 0:
                child_time[r[PARENT]] += r[END] - r[START]
        return [
            (r[NAME], r[END] - r[START] - r[PROBED],
             r[END] - r[START] - child_time[k] - r[PROBED_SELF], r[WORK] or {})
            for k, r in enumerate(self.spans)
        ]

    def layer_index(self):
        """LSTM layer of each lstm_forward/lstm_backward span.

        network_forward calls the layers bottom-up and network_backward
        top-down, so a span's layer is its place among its siblings.
        """
        children = {}
        for k, r in enumerate(self.spans):
            if r[NAME] in ("network.lstm_forward", "network.lstm_backward"):
                children.setdefault(r[PARENT], []).append(k)
        index = {}
        for kids in children.values():
            if self.spans[kids[0]][NAME] == "network.lstm_backward":
                kids = kids[::-1]
            for layer, k in enumerate(kids):
                index[k] = layer
        return index

    def shares(self, first=0, wall=None):
        """Share of `wall` (default: all traced time) spent in each span
        name's self time, over spans[first:]; LSTM spans also per layer."""
        wall = self.wall if wall is None else wall
        layer_of = self.layer_index()
        out = {}
        for k, (name, _, own, _) in enumerate(self.self_times()):
            if k < first:
                continue
            out[name] = out.get(name, 0.0) + own / wall
            if k in layer_of:
                key = "%s.l%d" % (name, layer_of[k])
                out[key] = out.get(key, 0.0) + own / wall
        return out

    def span_cost(self, n=2000):
        """Seconds a wrapper adds to one call, timed on a no-op function."""

        def noop():
            return None

        wrapped = self._wrap(noop, "trace.calibration", None)
        started = time.perf_counter()
        for _ in range(n):
            noop()
        plain = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(n):
            wrapped()
        cost = (time.perf_counter() - started - plain) / n
        del self.spans[-n:]
        return cost

    def write(self, path):
        with open(path, "w") as fh:
            for k, r in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "parent": r[PARENT], "name": r[NAME],
                                     "start": r[START], "end": r[END], "probed": r[PROBED],
                                     "work": r[WORK] or {}}) + "\n")


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def per_layer(tracer):
    """Per-layer metrics from the recorded spans: name -> (value, unit).

    Times are scaled by the mean host speed the probes measured while the
    tracer was installed, as the end-to-end times are.  Rates divide by the
    work the spans recorded; `_s` metrics are seconds per call.  A layer
    the workload never calls reads 0.
    """
    speed = sum(tracer.speeds) / len(tracer.speeds) if tracer.speeds else 1.0
    rows = tracer.self_times()
    layer_of = tracer.layer_index()
    calls, dur, own, work = {}, {}, {}, {}
    lstm = {}  # (span name, layer) -> [self time, frames, flops]
    for k, (name, d, s, w) in enumerate(rows):
        d *= speed
        s *= speed
        calls[name] = calls.get(name, 0) + 1
        dur[name] = dur.get(name, 0.0) + d
        own[name] = own.get(name, 0.0) + s
        for key, v in w.items():
            work[name, key] = work.get((name, key), 0) + v
        if k in layer_of and w:
            # forward 4H(D+H) multiply-adds per frame; backward twice that
            macs = 4 * w["H"] * (w["D"] + w["H"]) * w["frames"]
            if name == "network.lstm_backward":
                macs *= 2
            acc = lstm.setdefault((name, layer_of[k]), [0.0, 0, 0])
            acc[0] += s
            acc[1] += w["frames"]
            acc[2] += 2 * macs

    def per_call(name):
        return _ratio(dur.get(name, 0.0), calls.get(name, 0))

    m = {}
    n_synth = calls.get("data.generate_synthetic", 0)
    m["data.synth_s"] = (
        _ratio(dur.get("data.generate_synthetic", 0.0) + dur.get("data.save_synth_corpus", 0.0), n_synth), "s")
    m["data.load_frames_per_s"] = (
        _ratio(work.get(("data.load_corpus", "frames"), 0), dur.get("data.load_corpus", 0.0)), "frames/s")
    for direction in ("forward", "backward"):
        for layer in range(3):
            s, frames, _ = lstm.get(("network.lstm_" + direction, layer), (0.0, 0, 0))
            m["network.lstm_%s.l%d.us_per_frame" % (direction, layer)] = (_ratio(s, frames, 1e6), "us")
    for layer in range(3):
        m["network.lstm.l%d.frames" % layer] = (lstm.get(("network.lstm_forward", layer), (0, 0, 0))[1], "count")
    lstm_time = sum(v[0] for v in lstm.values())
    m["network.lstm.gflop_per_s"] = (_ratio(sum(v[2] for v in lstm.values()), lstm_time, 1e-9), "GFLOP/s")
    for key, name in (("forward", "network.network_forward"), ("backward", "network.network_backward")):
        m["network.%s_self.us_per_frame" % key] = (
            _ratio(own.get(name, 0.0), work.get((name, "frames"), 0), 1e6), "us")
    m["network.sgd_update.us_per_step"] = (per_call("network.sgd_update") * 1e6, "us")
    m["numerics.clip_global_norm.us_per_step"] = (per_call("numerics.clip_global_norm") * 1e6, "us")
    cells = work.get(("ctc.ctc_loss_and_gradient", "cells"), 0)
    m["ctc.loss_grad.ns_per_cell"] = (_ratio(dur.get("ctc.ctc_loss_and_gradient", 0.0), cells, 1e9), "ns")
    m["ctc.cells"] = (cells, "count")
    m["ctc.greedy_decode.us_per_frame"] = (
        _ratio(dur.get("ctc.greedy_decode", 0.0), work.get(("ctc.greedy_decode", "frames"), 0), 1e6), "us")
    m["training.dev_eval_s"] = (per_call("training.dev_eval"), "s")
    m["training.updates"] = (calls.get("network.sgd_update", 0), "count")
    m["metrics.edit_distance_s"] = (per_call("metrics.edit_distance"), "s")
    for fn in ("overlap_histograms", "permutation_pvalue", "blank_distance_report", "frequency_margin_table"):
        m["analysis.%s_s" % fn] = (per_call("analysis." + fn), "s")
    for command in ("train", "decode", "score", "analyze"):
        name = "cli." + command
        m[name + ".self_s"] = (_ratio(own.get(name, 0.0), calls.get(name, 0)), "s")
    for _, _, name, _ in TARGETS:
        m[name + ".calls"] = (calls.get(name, 0), "count")
    for command in ("synth", "train", "decode", "score", "analyze"):
        m["cli.%s.calls" % command] = (calls.get("cli." + command, 0), "count")
    m["trace.accounted_pct"] = (_ratio(sum(own.values()), tracer.wall * speed, 100.0), "%")
    m["trace.span_cost_pct"] = (_ratio(len(rows) * tracer.span_cost(), tracer.wall, 100.0), "%")
    return m
