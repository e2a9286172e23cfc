"""Tests for the host clock and the tracer.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import signal
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hostclock  # noqa: E402
import spans  # noqa: E402
import wordctc as w  # noqa: E402
import wordctc.network  # noqa: E402


def test_corrected_seconds_arithmetic():
    clock = hostclock.HostClock()
    assert clock.seconds(0.0, 2.0) == 2.0  # no probes: plain wall time
    ref = hostclock.REF_S
    # one probe inside [0.5, 2.0]: 4 ms in all, its timed part at half speed
    clock.samples = [(1.0, 0.004, 2 * ref)]
    assert abs(clock.seconds(0.5, 2.0) - (1.5 - 0.004) * 0.5) < 1e-12
    # no probe inside: the nearest one sets the speed, no time is taken out
    assert abs(clock.seconds(3.0, 3.01) - 0.01 * 0.5) < 1e-12
    clock.samples.append((1.5, 0.004, ref))
    assert abs(clock.seconds(0.5, 2.0) - (1.5 - 0.008) * 0.75) < 1e-12


def test_clock_probes_and_restores_the_handler():
    heard = []
    previous = signal.getsignal(signal.SIGALRM)
    with hostclock.HostClock(listener=lambda s, v: heard.append((s, v))) as clock:
        deadline = time.perf_counter() + 0.4
        while time.perf_counter() < deadline:
            sum(range(1000))
    assert len(clock.samples) >= 3 and len(heard) == len(clock.samples)
    assert all(s > 0 and v > 0 for s, v in heard)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_self_times_exclude_probes():
    tracer = spans.Tracer()
    with tracer.installed():
        with tracer.span("outer"):
            time.sleep(0.01)
            with tracer.span("inner"):
                time.sleep(0.02)
                tracer.on_probe(0.005, 0.5)
    tracer.on_probe(1.0, 0.5)  # not installed: ignored
    (_, d_outer, s_outer, _), (_, d_inner, s_inner, _) = tracer.self_times()
    raw_outer = tracer.spans[0][spans.END] - tracer.spans[0][spans.START]
    raw_inner = tracer.spans[1][spans.END] - tracer.spans[1][spans.START]
    assert abs(d_outer - (raw_outer - 0.005)) < 1e-12
    assert abs(d_inner - (raw_inner - 0.005)) < 1e-12
    assert abs(s_outer - (raw_outer - raw_inner)) < 1e-12
    assert abs(s_inner - (raw_inner - 0.005)) < 1e-12
    assert abs(s_outer + s_inner - d_outer) < 1e-12
    assert tracer.speeds == [0.5]


def test_wrappers_record_layers_and_are_removed():
    original = wordctc.network.lstm_forward
    vocab = w.Vocabulary(("a", "b"))
    net = w.Network.random(4, [5, 6, 7], vocab, "word-ctc", downsample=(0, 1, 1), seed=0)
    x = np.random.default_rng(0).normal(size=(20, 4))
    lattice, _ = w.network_forward(net, x)
    tracer = spans.Tracer()
    with tracer.installed():
        assert wordctc.network.lstm_forward is not original
        traced_lattice, tape = w.network_forward(net, x)
        w.network_backward(net, tape, np.ones_like(traced_lattice))
    assert wordctc.network.lstm_forward is original
    np.testing.assert_array_equal(lattice, traced_lattice)
    names = [r[spans.NAME] for r in tracer.spans]
    assert names.count("network.lstm_forward") == 3 and names.count("network.lstm_backward") == 3
    layers = tracer.layer_index()
    by_layer = {layers[k]: tracer.spans[k][spans.WORK] for k in layers
                if tracer.spans[k][spans.NAME] == "network.lstm_backward"}
    assert [by_layer[i]["H"] for i in range(3)] == [5, 6, 7]
    assert [by_layer[i]["frames"] for i in range(3)] == [20, 10, 5]


def test_per_layer_names_match_the_benchmark_file():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    metrics = spans.per_layer(spans.Tracer())
    # run.py adds the two that need the run's own records
    assert set(metrics) | {"training.skipped", "trace.overhead_pct"} == set(declared)
    assert all(declared[k] == unit for k, (_, unit) in metrics.items())
