"""Command-line front end: synth, train, decode, score, analyze.

Flag values override config-file values, which override built-in defaults.
Config files are flat ``key = value`` lines keyed by the long flag names
(dashes and underscores are interchangeable).  Each command writes fixed
filenames into --out-dir and removes whatever it wrote if it fails, so exit
code 0 means every output landed.

Exit codes: 0 ok, 2 usage, 3 malformed data files, 4 bad configuration or
values, 5 training could not proceed, 1 unexpected error.
"""

import argparse
import dataclasses
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from .analysis import (
    BLANK_TOP,
    FAR_RANKS,
    blank_distance_report,
    embedding_matrix,
    frequency_margin_table,
    histogram_tsv,
    overlap_histograms,
    permutation_pvalue,
)
from .data import (
    DataFormatError,
    ManifestError,
    SynthConfig,
    generate_synthetic,
    load_corpus,
    load_lexicon,
    load_transcripts,
    read_lines,
    save_synth_corpus,
    save_transcripts,
    table_tsv,
)
from .metrics import edit_distance, error_rate, fer_report, frame_errors, pool, score_report
from .network import MODES, TransferError, load_network, save_network
from .training import (
    TrainConfig,
    TrainingError,
    TrainSpec,
    _vocab_for_mode,  # noqa: F401 (perfbench/run.py imports it from here)
    decode_utterances,
    format_train_log,
    run,
)

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CONFIG = 4
EXIT_TRAINING = 5


@dataclass(frozen=True)
class Opt:
    name: str
    type: object
    default: object
    help: str
    flag: bool = False
    required: bool = False


def _bool(text):
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError("not a boolean: %r" % text)


def _config_opts(config_cls, **helps):
    """Opts for the named fields of a config dataclass, which sets their
    types and defaults; only the help text lives here."""
    fields = {f.name: f for f in dataclasses.fields(config_cls)}
    return [Opt(name, fields[name].type, fields[name].default, text) for name, text in helps.items()]


def _config(config_cls, opts, **fixed):
    """config_cls from the resolved options named like its fields, except `fixed`."""
    names = [f.name for f in dataclasses.fields(config_cls) if f.name not in fixed]
    return config_cls(**{name: getattr(opts, name) for name in names}, **fixed)


_SYNTH = [
    Opt("out_dir", str, None, "output directory", required=True),
    *_config_opts(
        SynthConfig,
        seed="generator seed",
        vocab_size="number of words",
        n_phonemes="phoneme inventory size",
        feature_dim="feature dimension",
        phoneme_duration_mean="mean phoneme duration in frames",
        phoneme_duration_std="phoneme duration stddev in frames",
        min_pronunciation="shortest pronunciation",
        max_pronunciation="longest pronunciation",
        noise_scale="feature noise stddev",
        min_words="fewest words per utterance",
        max_words="most words per utterance",
        n_train="training utterances",
        n_dev="development utterances",
        n_test="test utterances",
        silence_prob="probability of silence between words",
        zipf_exponent="word frequency skew (0 = uniform)",
    ),
]

_TRAIN = [
    Opt("data", str, None, "corpus directory written by synth", required=True),
    Opt("out_dir", str, None, "output directory", required=True),
    *_config_opts(TrainConfig, mode=" | ".join(MODES)),
    *_config_opts(
        TrainSpec,
        downsample="total frame-rate reduction factor (power of two)",
        layers="number of LSTM layers",
        hidden="hidden units per layer",
    ),
    *_config_opts(
        TrainConfig,
        phase1_epochs="epochs at the constant step size",
        phase1_lr="phase-1 step size",
        phase2_epochs="epochs with the decayed step size",
        phase2_lr="phase-2 initial step size",
        phase2_decay="per-epoch decay in phase 2",
        clip_norm="global gradient-norm bound",
    ),
    Opt("init_from", str, "", "checkpoint to transfer bottom layers from"),
    *_config_opts(
        TrainSpec,
        init_layers="how many bottom layers to transfer",
        data_fraction="seeded fraction of the training set to use",
        seed="seed for init, shuffling, and subsetting",
    ),
]

_DECODE = [
    Opt("model", str, None, "trained checkpoint", required=True),
    Opt("data", str, None, "corpus directory to decode", required=True),
    Opt("out_dir", str, None, "output directory", required=True),
]

_SCORE = [
    Opt("ref", str, None, "reference transcripts (corpus.tsv or id<TAB>text)", required=True),
    Opt("hyp", str, None, "hypothesis transcripts (id<TAB>text)", required=True),
    Opt("out_dir", str, None, "output directory", required=True),
    Opt("fer", _bool, False, "score per-frame labels instead of sequences", flag=True),
]

_ANALYZE = [
    Opt("model", str, None, "trained checkpoint", required=True),
    Opt("lexicon", str, None, "lexicon.tsv for pronunciation overlap", required=True),
    Opt("out_dir", str, None, "output directory", required=True),
    Opt("transcripts", str, "", "training corpus.tsv for word counts"),
    Opt("overlap", _bool, False, "only the pronunciation-overlap histograms (needs %d or "
        "more words with pronunciations)" % (FAR_RANKS[1] + 1), flag=True),
    Opt("blank", _bool, False, "only the blank-distance report (needs %d or more words)"
        % (BLANK_TOP + 1), flag=True),
    Opt("margin", _bool, False, "only the margin/frequency table", flag=True),
    Opt("seed", int, 0, "seed for the permutation test"),
]

_SCHEMAS = {
    "synth": _SYNTH,
    "train": _TRAIN,
    "decode": _DECODE,
    "score": _SCORE,
    "analyze": _ANALYZE,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="wordctc",
        description="Acoustics-to-word CTC toolkit on synthetic or prepared corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, schema in _SCHEMAS.items():
        p = sub.add_parser(command, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="flat key=value config file")
        for opt in schema:
            flag = "--" + opt.name.replace("_", "-")
            if opt.flag:
                p.add_argument(flag, action="store_true", help=opt.help)
            else:
                p.add_argument(flag, type=opt.type, help=opt.help + " (default %r)" % (opt.default,))
    return parser


def _parse_config_file(path):
    values = {}
    for lineno, raw in read_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError("%s line %d: expected key=value" % (path, lineno))
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key in values:
            raise ValueError("%s line %d: %s: repeats line %d" % (path, lineno, key, values[key][0]))
        values[key] = (lineno, value.strip())
    return values


def _resolve(schema, ns):
    values = {opt.name: opt.default for opt in schema}
    by_name = {opt.name: opt for opt in schema}
    config_path = getattr(ns, "config", None)
    if config_path:
        for key, (lineno, raw) in _parse_config_file(config_path).items():
            where = "%s line %d: %s" % (config_path, lineno, key)
            if key not in by_name:
                raise ValueError("%s: unknown config key" % where)
            try:
                values[key] = by_name[key].type(raw)
            except ValueError as exc:
                raise ValueError("%s: %s" % (where, exc)) from None
    for opt in schema:
        if hasattr(ns, opt.name):
            values[opt.name] = getattr(ns, opt.name)
    # an empty path would name the current directory
    for opt in schema:
        if opt.required and values[opt.name] in (None, ""):
            raise ValueError("missing required option --%s" % opt.name.replace("_", "-"))
    return SimpleNamespace(**values)


class _Outputs:
    """Tracks files written by one command; cleanup removes them on failure."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.written = []

    def write_text(self, name, text):
        path = self.root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        self.written.append(path)
        return path

    def claim(self, name):
        path = self.root / name
        self.written.append(path)
        return path

    def cleanup(self):
        for path in self.written:
            if path.is_dir():
                shutil.rmtree(path)
            elif path.exists():
                path.unlink()


def _format_config(schema, opts):
    names = sorted(opt.name for opt in schema)
    return "".join("%s = %s\n" % (name, getattr(opts, name)) for name in names)


def cmd_synth(opts, out):
    corpus = generate_synthetic(_config(SynthConfig, opts))
    out.claim("lexicon.tsv")
    for split in corpus.splits:
        out.claim(split)
    save_synth_corpus(corpus, out.root)
    out.write_text("synth.config", _format_config(_SYNTH[1:], opts))
    n_frames = sum(u.n_frames for u in corpus.train)
    print(
        "wrote %d/%d/%d utterances (%.1f min of training speech) to %s"
        % (len(corpus.train), len(corpus.dev), len(corpus.test), n_frames / 6000.0, out.root)
    )
    return EXIT_OK


def cmd_train(opts, out):
    # --seed is the spec's: run() spawns the shuffle stream from it
    spec = _config(TrainSpec, opts, config=_config(TrainConfig, opts, seed=0))
    data = Path(opts.data)
    lexicon = load_lexicon(data / "lexicon.tsv")
    words = set(lexicon.words)
    train_utts = load_corpus(data / "train", known_words=words)
    dev_utts = load_corpus(data / "dev", known_words=words)
    # the CTC modes score dev against its words, as `score` does
    if opts.mode != "frame-classifier" and not any(u.transcript for u in dev_utts):
        raise ManifestError("%s: no word to score dev against" % (data / "dev" / "corpus.tsv"))
    # and the frame classifier trains and scores on the alignments
    for split, utts in (("train", train_utts), ("dev", dev_utts)):
        align = data / split / "align.tsv"
        unaligned = [u.utt_id for u in utts if u.alignment is None]
        if opts.mode == "frame-classifier" and unaligned:
            why = "no alignment for utterance %r" % unaligned[0] if align.exists() else "no such file"
            raise ManifestError("%s: %s" % (align, why))
    _check_feature_dim(train_utts[0].features.shape[1], data / "train", dev_utts, data / "dev")
    source = None
    if opts.init_from:
        source = load_network(opts.init_from)
        _check_feature_dim(source.input_dim, opts.init_from, train_utts, data / "train")
    try:
        result = run(spec, lexicon, train_utts, dev_utts, init_from=source)
    except TransferError as exc:
        raise ValueError("--init-from %s --init-layers %d: %s"
                         % (opts.init_from, opts.init_layers, exc)) from None
    save_network(result.model, out.claim("model.net"))
    out.write_text("trainlog.tsv", format_train_log(result.log))
    print("best dev metric %.4f at epoch %d (%d utterances, %d epochs)"
          % (result.best_metric, result.best_epoch, result.n_utterances, len(result.log)))
    return EXIT_OK


def _check_feature_dim(expected, source, utts, corpus):
    dim = utts[0].features.shape[1]
    if dim != expected:
        raise ValueError("feature dimension %d in %s does not match %d in %s"
                         % (dim, corpus, expected, source))


def cmd_decode(opts, out):
    model = load_network(opts.model)
    utts = load_corpus(opts.data)
    _check_feature_dim(model.input_dim, opts.model, utts, opts.data)
    hyps = {u.utt_id: model.vocab.decode(ids)
            for u, ids in zip(utts, decode_utterances(model, [u.features for u in utts]))}
    save_transcripts(hyps, out.claim("hypotheses.tsv"))
    print("decoded %d utterances" % len(utts))
    return EXIT_OK


def cmd_score(opts, out):
    refs = load_transcripts(opts.ref)
    hyps = load_transcripts(opts.hyp)
    missing = [utt_id for utt_id in hyps if utt_id not in refs]
    if missing:
        raise ManifestError("%s: no reference for %r" % (opts.hyp, missing[0]))
    # every reference is scored: one without a hypothesis against the empty one
    compare, report, rate, unit = (
        (frame_errors, fer_report, "FER", "frames") if opts.fer
        else (edit_distance, score_report, "WER", "reference words"))
    stats = []
    for utt_id in dict.fromkeys([*hyps, *refs]):
        ref, hyp = refs[utt_id], hyps.get(utt_id, ())
        if opts.fer and len(ref) != len(hyp):
            raise ManifestError(
                "%s: frame counts differ for %r: %d vs %d" % (opts.hyp, utt_id, len(ref), len(hyp))
            )
        stats.append((utt_id, compare(ref, hyp)))
    pooled = pool(st for _, st in stats)
    if not pooled.ref_len:
        raise ManifestError("%s: no %s to score against" % (opts.ref, unit))
    out.write_text("report.tsv", report(stats))
    print("%s%% %.4f over %d %s" % (rate, error_rate(pooled), pooled.ref_len, unit))
    return EXIT_OK


def cmd_analyze(opts, out):
    model = load_network(opts.model)
    lexicon = load_lexicon(opts.lexicon)
    emb = embedding_matrix(model)
    wanted = {"overlap": opts.overlap, "blank": opts.blank, "margin": opts.margin}
    if not any(wanted.values()):
        wanted = {k: True for k in wanted}
    summary = []
    if wanted["overlap"]:
        hist = overlap_histograms(emb, lexicon)
        out.write_text(
            "overlap_histogram.tsv",
            histogram_tsv(hist.bin_edges, hist.close_counts, hist.far_counts, names=("close", "far")),
        )
        pvalue = permutation_pvalue(hist.close_values, hist.far_values, seed=opts.seed)
        summary.append(("close_overlap_mean", hist.close_mean))
        summary.append(("far_overlap_mean", hist.far_mean))
        summary.append(("overlap_permutation_pvalue", pvalue))
    if wanted["blank"]:
        report = blank_distance_report(emb)
        out.write_text(
            "blank_histogram.tsv", histogram_tsv(report.bin_edges, report.counts)
        )
        summary.append(("blank_mean_distance", report.blank_mean))
        summary.append(("word_word_median_distance", report.word_word_median))
    if wanted["margin"]:
        transcripts = []
        if opts.transcripts:
            transcripts = list(load_transcripts(opts.transcripts).values())
        table = frequency_margin_table(emb, transcripts)
        rows = [
            (w, int(c), float(m))
            for w, c, m in zip(table.words, table.counts, table.margins)
        ]
        out.write_text("margin_table.tsv", table_tsv([("word", "count", "margin"), *rows]))
        corr = "undefined" if table.rank_correlation is None else table.rank_correlation
        summary.append(("frequency_margin_spearman", corr))
    out.write_text("summary.tsv", table_tsv([("metric", "value"), *summary]))
    print(table_tsv(summary), end="")
    return EXIT_OK


_COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "decode": cmd_decode,
    "score": cmd_score,
    "analyze": cmd_analyze,
}


def main(argv=None):
    ns = _build_parser().parse_args(argv)
    try:
        opts = _resolve(_SCHEMAS[ns.command], ns)
    except (ValueError, OSError) as exc:
        print("wordctc %s: %s" % (ns.command, exc), file=sys.stderr)
        return EXIT_CONFIG
    out = None
    try:
        out = _Outputs(opts.out_dir)
        return _COMMANDS[ns.command](opts, out)
    except Exception as exc:
        if out is not None:
            out.cleanup()
        if isinstance(exc, DataFormatError):
            code = EXIT_DATA
        elif isinstance(exc, TrainingError):
            code = EXIT_TRAINING
        elif isinstance(exc, (ValueError, KeyError, OSError)):
            code = EXIT_CONFIG
        else:
            raise
        print("wordctc %s: %s" % (ns.command, exc), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
