"""Time one perfbench workload's kernel in two wordctc source trees, in one process, taking turns.

    python3 tools/interleave.py PARENT_SRC CHANGE_SRC WORKLOAD --pairs N

PARENT_SRC and CHANGE_SRC are directories that hold a `wordctc` package,
such as two checkouts' src/.  Both are imported into this one process as
two packages, so the sides share the interpreter, the heap and the host's
speed changes.  Each side builds its own inputs with its own code, which
are not timed; then each pair runs the workload once on both sides, the
parent first in pairs 1, 3, 5, ... and the change first in the others.

WORKLOAD is a perfbench/run.py workload name.  Its corpus, shapes and
recipe are read from perfbench/run.py, as its runs at --seed 1 build them,
and its corpus comes from `wordctc synth` with the workload's flags:
- a workload that times training (train-word-ds4, train-phone-ds1) is timed
  on its train command, one `training.run` of the workload's recipe on the
  training utterances --seed 1 picks, dev evaluation included.  The outputs
  are the trained parameters.
- the others (eval-64w) are timed on their decode.  The checkpoint is
  `Network.random` at CKPT_INIT_SEED trained as perfbench's set-up trains
  it.  The call runs `network.forward_batches` over each decoded split; the
  outputs are the lattices.

BLAS runs on one thread.  One JSON line is printed: each side's median and
quartiles (inclusive method) in seconds, the pairs the change ran faster,
the median over pairs of change time / parent time, whether the two sides'
outputs are byte-identical, and the largest absolute difference between
them.
"""

import argparse
import contextlib
import importlib.util
import io
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

BLAS_THREADS = 1
BENCH_SEED = 1  # the perfbench --seed whose set-up the inputs reproduce


def load(name, path):
    """The module at path, or the package whose __init__.py it is, imported as `name`."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_wordctc(name, src):
    """The wordctc package under the directory src, imported as `name`."""
    init = Path(src) / "wordctc" / "__init__.py"
    if not init.is_file():
        raise SystemExit("interleave: no wordctc package under %s" % src)
    for stale in [m for m in sys.modules if m.partition(".")[0] == name]:
        del sys.modules[stale]
    package = load(name, init)
    for module in ("cli", "data", "network", "training"):
        importlib.import_module("%s.%s" % (name, module))
    return package


bench = load("perfbench_run", Path(__file__).parents[1] / "perfbench" / "run.py")


def corpus(wc, spec, work):
    """The workload's lexicon and splits, synthesized under work as perfbench does."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = wc.cli.main(["synth", "--out-dir", str(work), *spec["synth"]])
    if code != 0:
        raise SystemExit("interleave: wordctc synth exited %d" % code)
    splits = {s: wc.data.load_corpus(work / s) for s in bench.SPLITS}
    return wc.data.load_lexicon(work / "lexicon.tsv"), splits


def decode_workload(wc, spec, work):
    """A call that decodes the workload's splits; it returns the lattices."""
    import numpy as np

    lexicon, splits = corpus(wc, spec, work)
    mode = spec["mode"]
    net = wc.network.Network.random(
        splits["train"][0].features.shape[1], [bench.HIDDEN] * bench.LAYERS,
        wc.training._vocab_for_mode(mode, lexicon), mode,
        downsample=wc.network.downsample_schedule(spec["downsample"], bench.LAYERS),
        seed=bench.CKPT_INIT_SEED)
    config = wc.training.TrainConfig(phase1_epochs=1, phase1_lr=spec["lr"], phase2_epochs=0,
                                     seed=BENCH_SEED, mode=mode)
    for _ in range(spec["epochs"]):
        net = wc.training.train(net, splits["train"], splits["dev"], config).model
    features = [[u.features for u in splits[s]] for s in spec["decode"]]

    def call():
        lattices = []
        for split in features:
            done = dict(wc.network.forward_batches(net, split))
            lattices += [done[i] for i in sorted(done)]
        return np.concatenate(lattices, axis=None)
    return call


def train_workload(wc, spec, work):
    """A call that runs the workload's train command; it returns the parameters."""
    import numpy as np

    lexicon, splits = corpus(wc, spec, work)
    train = splits["train"]
    if spec["subset"]:
        keep = np.random.default_rng(BENCH_SEED).choice(len(train), size=spec["subset"],
                                                        replace=False)
        train = [train[int(i)] for i in sorted(keep)]
    config = wc.training.TrainConfig(phase1_epochs=spec["epochs"], phase1_lr=spec["lr"],
                                     phase2_epochs=0, mode=spec["mode"])
    run = wc.training.TrainSpec(downsample=spec["downsample"], layers=bench.LAYERS,
                                hidden=bench.HIDDEN, seed=bench.TRAIN_SEED, config=config)

    def call():
        return wc.training.run(run, lexicon, train, splits["dev"]).model.flat
    return call


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def interleave(calls, pairs):
    """Seconds of each side's runs, pair by pair, and each side's first output."""
    seconds = {side: [] for side in calls}
    outputs = {}
    for k in range(pairs):
        for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
            started = time.perf_counter()
            out = calls[side]()
            seconds[side].append(time.perf_counter() - started)
            outputs.setdefault(side, out)
    return seconds, outputs


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent_src")
    p.add_argument("change_src")
    p.add_argument("workload", choices=sorted(bench.WORKLOADS))
    p.add_argument("--pairs", type=int, required=True)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    # fixed before numpy loads, so both sides use one BLAS thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    import numpy as np

    spec = bench.WORKLOADS[args.workload]
    build = train_workload if spec["timed_train"] else decode_workload
    with tempfile.TemporaryDirectory() as work:
        calls = {side: build(load_wordctc("%s_wordctc" % side, src), spec, Path(work) / side)
                 for side, src in (("parent", args.parent_src), ("change", args.change_src))}
    seconds, outputs = interleave(calls, args.pairs)
    ratios = [c / p for p, c in zip(seconds["parent"], seconds["change"])]
    parent, change = outputs["parent"], outputs["change"]
    same_shape = parent.shape == change.shape
    differ = (parent != change) if same_shape else None
    print(json.dumps({
        "workload": args.workload,
        "pairs": args.pairs,
        "parent_s": quartiles(seconds["parent"]),
        "change_s": quartiles(seconds["change"]),
        "change_faster_pairs": sum(r < 1 for r in ratios),
        "median_ratio_change_over_parent": statistics.median(ratios),
        "outputs_equal": same_shape and parent.tobytes() == change.tobytes(),
        "max_abs_diff": float(np.max(np.abs(parent[differ] - change[differ]), initial=0.0))
        if same_shape else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
