"""wordctc benchmark: training and evaluation throughput on synthetic corpora.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload drives the `wordctc` commands
in this one process, through `wordctc.cli.main`.  It repeats one sweep
(train, then decode, score and analyze) until S seconds have passed, checks
the outputs (checks.py), and prints one JSON line with the keys correct,
attempted, failed and metrics.

With --trace 0 the metrics are the end-to-end ones, each the median over
the run's sweeps of a time corrected for the host's speed (hostclock.py).
With --trace 1 untraced and traced sweeps alternate, and the metrics are
per-layer ones from spans recorded around the calls into each module
(spans.py).

Scratch files go to .perfbench/work (removed at exit) and traces to
.perfbench/traces, both under the current directory.  See README.md.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BLAS_THREADS = 1
SETUP_REPS = 5  # set-ups per run; setup_s is their median
LAYERS = 3
HIDDEN = 48
TRAIN_SEED = 1  # the train command's --seed: init, shuffle and subset streams
SPLITS = ("train", "dev", "test")
CHECK_SAMPLE = 4  # utterances per split in each seeded correctness sample
FD_PER_ARRAY = 1  # finite-difference entries per parameter array

# The corpora are fixed: the default synthetic corpus for the training
# workloads and the acceptance 64-word corpus for eval-64w.  --seed picks
# which 200 of the default corpus's 800 training utterances the training
# workloads train on, and the shuffling seed of the eval-64w checkpoint.
# Letting it pick the corpus instead would change the lexicon, and with it
# the amount of work: total frames vary by 12-17% (IQR) across corpus seeds.
WORKLOADS = {
    "train-word-ds4": {"mode": "word-ctc", "downsample": 4, "synth": ["--seed", "0"],
                       "subset": 200, "timed_train": True, "epochs": 1, "lr": 0.05,
                       "decode": ("dev", "test"), "analyze": ["--margin"]},
    "train-phone-ds1": {"mode": "phoneme-ctc", "downsample": 1, "synth": ["--seed", "0"],
                        "subset": 200, "timed_train": True, "epochs": 1, "lr": 0.05,
                        "decode": ("dev", "test"), "analyze": ["--margin"]},
    # The checkpoint is trained in set-up, one epoch per train() call so
    # that each epoch is timed, from Network.random(seed=1) for 3 epochs at
    # step size 0.1.  At the recipe's 0.05 the model still emits no word
    # after 3 epochs (dev WER 100).
    "eval-64w": {"mode": "word-ctc", "downsample": 4,
                 "synth": ["--seed", "11", "--vocab-size", "64", "--n-train", "500"],
                 "subset": None, "timed_train": False, "epochs": 3, "lr": 0.1,
                 "decode": SPLITS, "analyze": []},
}
CKPT_INIT_SEED = 1
UNITS = {"train_frames_per_s": "frames/s", "decode_frames_per_s": "frames/s", "eval_s": "s"}


class SetupError(RuntimeError):
    """A command the timed part depends on failed; no result is printed."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Bench:
    """One run: its scratch directory, clock, tracer and operation counts."""

    def __init__(self, work, seed, clock, tracer):
        self.work = work
        self.seed = seed
        self.clock = clock
        self.tracer = tracer
        self.tracing = False
        self.attempted = 0
        self.failed = 0
        self.skipped_traced = 0
        self.problems = []

    def seconds(self, start, end):
        """Host-corrected duration between two perf_counter readings."""
        return self.clock.seconds(start, end)

    def command(self, *argv):
        """Run one wordctc command; returns (exit code, stdout)."""
        from wordctc import cli

        argv = [str(a) for a in argv]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if self.tracing:
                with self.tracer.span("cli." + argv[0]):
                    code = cli.main(argv)
            else:
                code = cli.main(argv)
        return code, buf.getvalue().strip()

    def counted(self, n_ops, *argv):
        """A timed command of n_ops operations; all fail if it exits nonzero."""
        code, out = self.command(*argv)
        self.attempted += n_ops
        if code != 0:
            self.failed += n_ops
            self.problems.append("wordctc %s exited %d" % (argv[0], code))
        return code, out

    @contextlib.contextmanager
    def traced(self, on):
        if not on:
            yield
            return
        with self.tracer.installed():
            self.tracing = True
            try:
                yield
            finally:
                self.tracing = False


def setup(bench, spec, base):
    """Synthesize and load the corpus, write reference files in the model's
    label space, and build the initial model, all under the new directory
    base."""
    import numpy as np
    from wordctc import data, network
    from wordctc.cli import _vocab_for_mode
    from wordctc.training import convert_transcripts_to_phonemes

    synth = base / "synth"
    code, _ = bench.command("synth", "--out-dir", synth, *spec["synth"])
    if code != 0:
        raise SetupError("wordctc synth exited %d" % code)
    corpus = synth
    lexicon = data.load_lexicon(synth / "lexicon.tsv")
    splits = {s: data.load_corpus(synth / s) for s in SPLITS}
    if spec["subset"]:
        rng = np.random.default_rng(bench.seed)
        keep = sorted(rng.choice(len(splits["train"]), size=spec["subset"], replace=False))
        splits["train"] = [splits["train"][int(i)] for i in keep]
        corpus = base / "corpus"
        link_corpus(synth, corpus, {u.utt_id for u in splits["train"]})
    refs = {s: corpus / s / "corpus.tsv" for s in SPLITS}
    if spec["mode"] == "phoneme-ctc":
        labels = base / "phones"
        labels.mkdir()
        for s in SPLITS:
            splits[s] = convert_transcripts_to_phonemes(splits[s], lexicon)
            refs[s] = labels / (s + ".tsv")
            refs[s].write_text("".join("%s\t%s\n" % (u.utt_id, " ".join(u.transcript))
                                       for u in splits[s]))
    if spec["timed_train"]:
        # the same init stream the train command draws from its --seed
        init_seed = np.random.SeedSequence(TRAIN_SEED).spawn(3)[0]
    else:
        init_seed = CKPT_INIT_SEED
    initial = network.Network.random(
        splits["train"][0].features.shape[1], [HIDDEN] * LAYERS,
        _vocab_for_mode(spec["mode"], lexicon), spec["mode"],
        downsample=network.downsample_schedule(spec["downsample"], LAYERS), seed=init_seed)
    return {"synth": synth, "corpus": corpus, "splits": splits, "refs": refs, "initial": initial,
            "train_frames": sum(u.n_frames for u in splits["train"]),
            "decode_frames": sum(u.n_frames for s in spec["decode"] for u in splits[s])}


def link_corpus(synth, corpus, train_ids):
    """A corpus directory whose manifests point at the feature files under
    synth, its training split cut to train_ids.  Writing manifests only
    keeps set-up from timing a second copy of the features."""
    corpus.mkdir()
    shutil.copyfile(synth / "lexicon.tsv", corpus / "lexicon.tsv")
    for split in SPLITS:
        (corpus / split).mkdir()
        for name in ("corpus.tsv", "align.tsv"):
            rows = [line.split("\t") for line in (synth / split / name).read_text().splitlines()]
            if split == "train":
                rows = [r for r in rows if r[0] in train_ids]
            if name == "corpus.tsv":
                # feature paths are relative to the manifest's directory
                rows = [[r[0], "../../%s/%s/%s" % (synth.name, split, r[1])] + r[2:] for r in rows]
            (corpus / split / name).write_text("".join("\t".join(r) + "\n" for r in rows))


def train_checkpoint(bench, spec, state, path):
    """Train and save the eval-64w checkpoint; returns each epoch's seconds."""
    from wordctc import network, training

    model, splits = state["initial"], state["splits"]
    cfg = training.TrainConfig(phase1_epochs=1, phase1_lr=spec["lr"], phase2_epochs=0,
                               seed=bench.seed, mode=spec["mode"])
    epochs = []
    for _ in range(spec["epochs"]):
        started = time.perf_counter()
        model = training.train(model, splits["train"], splits["dev"], cfg).model
        epochs.append(bench.seconds(started, time.perf_counter()))
    network.save_network(model, path)
    return epochs


def sweep(bench, spec, state):
    """One train command (training workloads), then decode, score, analyze.

    Returns the sweep's corrected time and its end-to-end values."""
    from checks import parse_trainlog

    work = bench.work
    measured = {}
    started = time.perf_counter()
    if spec["timed_train"]:
        n = len(state["splits"]["train"])
        code, _ = bench.counted(
            n, "train", "--data", state["corpus"], "--out-dir", work / "model",
            "--mode", spec["mode"], "--downsample", spec["downsample"], "--layers", LAYERS,
            "--hidden", HIDDEN, "--phase1-epochs", spec["epochs"], "--phase1-lr", spec["lr"],
            "--phase2-epochs", 0, "--seed", TRAIN_SEED)
        trained = time.perf_counter()
        if code == 0:
            skipped, problems = parse_trainlog(
                (work / "model" / "trainlog.tsv").read_text(), spec["epochs"])
            bench.failed += skipped
            bench.problems += problems
            if skipped:
                bench.problems.append("train skipped %d utterances" % skipped)
            bench.skipped_traced += skipped if bench.tracing else 0
            measured["train_frames_per_s"] = state["train_frames"] / bench.seconds(started, trained)
    evaluating = time.perf_counter()
    for split in spec["decode"]:
        bench.counted(len(state["splits"][split]), "decode", "--model", state["model"],
                      "--data", state["corpus"] / split, "--out-dir", work / "dec" / split)
    decoded = time.perf_counter()
    state["score"] = {}
    for split in spec["decode"]:
        _, state["score"][split] = bench.counted(
            1, "score", "--ref", state["refs"][split], "--hyp", work / "dec" / split / "hypotheses.tsv",
            "--out-dir", work / "score" / split)
    bench.counted(1, "analyze", "--model", state["model"], "--lexicon", state["corpus"] / "lexicon.tsv",
                  "--transcripts", state["refs"]["train"], "--out-dir", work / "ana", *spec["analyze"])
    finished = time.perf_counter()
    measured["decode_frames_per_s"] = state["decode_frames"] / bench.seconds(evaluating, decoded)
    measured["eval_s"] = bench.seconds(evaluating, finished)
    return bench.seconds(started, finished), measured


# ---------------------------------------------------------------------------
# correctness checks on the last sweep's outputs


def check_training(bench, state):
    import numpy as np

    import checks
    from wordctc import ctc, network, training

    model = network.load_network(state["model"])
    rng = np.random.default_rng(bench.seed)
    prepared = training._prepare(state["splits"]["train"], model)
    picks = rng.choice(len(prepared), size=CHECK_SAMPLE, replace=False)
    samples = []
    for i in picks:
        utt_id, features, target = prepared[int(i)]
        lattice, _ = network.network_forward(model, features)
        loss, grad = ctc.ctc_loss_and_gradient(lattice, target)
        samples.append((utt_id, lattice, target, loss, grad))
    problems = checks.check_ctc_against_reference(samples)

    # finite differences on the shortest sampled utterance
    _, features, target = min((prepared[int(i)] for i in picks), key=lambda p: p[1].shape[0])

    def loss_fn():
        lattice, _ = network.network_forward(model, features)
        return ctc.ctc_loss_and_gradient(lattice, target)[0]

    lattice, tape = network.network_forward(model, features)
    _, d_logits = ctc.ctc_loss_and_gradient(lattice, target)
    grads, _ = network.network_backward(model, tape, d_logits)
    params = model.params()
    entries = checks.sample_entries([p.shape for p in params], FD_PER_ARRAY, rng)
    problems += checks.check_finite_differences(loss_fn, params, grads.arrays(), entries)

    before = training.training_perplexity(state["initial"], state["splits"]["dev"])
    after = training.training_perplexity(model, state["splits"]["dev"])
    print("dev per-label loss %.3f -> %.3f" % (before, after), file=sys.stderr)
    return problems + checks.check_loss_falls(before, after)


def check_evaluation(bench, spec, state, require_words):
    import numpy as np

    import checks

    work = bench.work
    ckpt = checks.read_checkpoint(state["model"])
    labels = ckpt["header"]["labels"]
    rng = np.random.default_rng(bench.seed)
    problems = []
    samples = []
    for split in spec["decode"]:
        utts = state["splits"][split]
        rows = checks.parse_id_text((work / "dec" / split / "hypotheses.tsv").read_text())
        problems += checks.check_hypotheses([u.utt_id for u in utts], rows)
        hyps = dict(rows)
        problems += checks.check_score(
            {u.utt_id: u.transcript for u in utts}, hyps,
            (work / "score" / split / "report.tsv").read_text(), state["score"][split],
            require_words=require_words)
        print("%s: %s" % (split, state["score"][split]), file=sys.stderr)
        for i in rng.choice(len(utts), size=CHECK_SAMPLE, replace=False):
            u = utts[int(i)]
            feats = checks.read_features(state["synth"] / split / "feats" / (u.utt_id + ".feat"))
            samples.append((u.utt_id, checks.reference_lattice(ckpt, feats), labels, hyps.get(u.utt_id)))
    problems += checks.check_decode_against_reference(samples)

    ana = work / "ana"
    table = checks.parse_tsv((ana / "margin_table.tsv").read_text())
    summary = dict(checks.parse_tsv((ana / "summary.tsv").read_text()))
    transcripts = [u.transcript for u in state["splits"]["train"]]
    problems += checks.check_margins(ckpt["w_out"], labels, transcripts, table)
    problems += checks.check_spearman(table, summary["frequency_margin_spearman"])
    if (ana / "overlap_histogram.tsv").exists():
        problems += checks.check_overlap_and_pvalue(
            checks.parse_tsv((ana / "overlap_histogram.tsv").read_text()), summary, len(labels))
    return problems


# ---------------------------------------------------------------------------


def measure(bench, spec, args, trace):
    """Set-up, then sweeps until args.seconds have passed.

    Returns (state, setup seconds, per-metric sweep values, sweep times by
    whether traced, and the first sweep span and the traced time before it)."""
    setup_times = []
    # each set-up writes to a directory of its own, so none of them times
    # deleting the files of the one before
    for rep in range(SETUP_REPS):
        with bench.traced(trace):
            started = time.perf_counter()
            state = setup(bench, spec, bench.work / ("setup%d" % rep))
            setup_times.append(bench.seconds(started, time.perf_counter()))
    setup_s = statistics.median(setup_times)
    values = {}
    if spec["timed_train"]:
        state["model"] = bench.work / "model" / "model.net"
    else:
        state["model"] = bench.work / "model.net"
        with bench.traced(trace):
            epochs = train_checkpoint(bench, spec, state, state["model"])
        setup_s += sum(epochs)
        values["train_frames_per_s"] = [state["train_frames"] / e for e in epochs]

    walls = {False: [], True: []}
    sweeps_begin = (len(bench.tracer.spans), bench.tracer.wall)
    started = time.perf_counter()
    # with --trace 1, untraced and traced sweeps alternate so that the
    # overhead compares sweeps made under the same conditions
    while True:
        on = trace and len(walls[False]) > len(walls[True])
        with bench.traced(on):
            wall, measured = sweep(bench, spec, state)
        walls[on].append(wall)
        if not on:
            for key, v in measured.items():
                values.setdefault(key, []).append(v)
        if time.perf_counter() - started >= args.seconds and (not trace or walls[True]):
            return state, setup_s, values, walls, sweeps_begin


def run(args, root):
    import hostclock
    import spans

    name = args.workload
    spec = WORKLOADS[name]
    work = root / ".perfbench" / "work" / ("%s-%d-%d" % (name, args.seed, os.getpid()))
    work.mkdir(parents=True)
    trace = bool(args.trace)
    tracer = spans.Tracer()
    clock = hostclock.HostClock(listener=tracer.on_probe)
    bench = Bench(work, args.seed, clock, tracer)
    try:
        with clock:
            state, setup_s, values, walls, (first_span, setup_wall) = measure(
                bench, spec, args, trace)
        problems = bench.problems
        if not problems:
            problems = check_evaluation(bench, spec, state, require_words=not spec["timed_train"])
            if spec["timed_train"]:
                problems += check_training(bench, state)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        print("CHECK FAILED: %s" % p, file=sys.stderr)
    if trace:
        metrics = spans.per_layer(tracer)
        metrics["training.skipped"] = (bench.skipped_traced, "count")
        metrics["trace.overhead_pct"] = (
            100.0 * (statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0), "%")
        traces = root / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write(traces / ("%s-seed%d.jsonl" % (name, args.seed)))
        print_shares("whole traced run", tracer.wall, tracer.shares())
        sweeps_wall = tracer.wall - setup_wall
        print_shares("traced sweeps", sweeps_wall, tracer.shares(first_span, sweeps_wall))
    else:
        metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB")}
        for key, vals in values.items():
            metrics[key] = (statistics.median(vals), UNITS[key])
        print("%d sweeps; BLAS threads %d" % (len(walls[False]), BLAS_THREADS), file=sys.stderr)
        for key, vals in sorted(values.items()):
            print("  %s per sweep: %s" % (key, " ".join("%.6g" % v for v in vals)), file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }


def print_shares(title, wall, shares):
    print("self-time shares, %s (%.2f s), by module and by span:" % (title, wall), file=sys.stderr)
    modules = {}
    for span_name, share in shares.items():
        if span_name.count(".") == 1:
            module = span_name.split(".")[0]
            modules[module] = modules.get(module, 0.0) + share
    for table in (modules, shares):
        for key, share in sorted(table.items(), key=lambda kv: -kv[1]):
            print("  %-36s %6.2f%%" % (key, 100 * share), file=sys.stderr)


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "wordctc" / "__init__.py").is_file():
        print("perfbench: no src/wordctc under %s; run from the repository root" % root,
              file=sys.stderr)
        return 2
    # fixed before numpy loads, so every run uses the same BLAS thread count
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        result = run(args, root)
    except SetupError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
