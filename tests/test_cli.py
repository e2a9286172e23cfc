import json
import math
import re
import shlex
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from wordctc import cli, training
from wordctc.cli import _Outputs, main
from wordctc.ctc import Vocabulary, greedy_decode
from wordctc.data import (
    Utterance,
    load_corpus,
    load_features,
    load_lexicon,
    save_corpus,
    save_features,
    save_transcripts,
    subset,
)
from wordctc.network import (
    Network,
    downsample_schedule,
    load_network,
    network_forward,
    save_network,
)
from wordctc.training import evaluate, training_perplexity

TINY_SYNTH = [
    "--vocab-size", "8", "--n-phonemes", "6", "--feature-dim", "4",
    "--n-train", "14", "--n-dev", "4", "--n-test", "4",
    "--min-words", "2", "--max-words", "3",
    "--phoneme-duration-mean", "5", "--phoneme-duration-std", "2",
]

TINY_TRAIN = [
    "--mode", "word-ctc", "--downsample", "2", "--layers", "2", "--hidden", "10",
    "--phase1-epochs", "2", "--phase2-epochs", "1", "--seed", "5",
]


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    assert run("synth", "--out-dir", root, "--seed", "3", *TINY_SYNTH) == 0
    return root


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory, data_dir):
    root = tmp_path_factory.mktemp("model")
    assert run("train", "--data", data_dir, "--out-dir", root, *TINY_TRAIN) == 0
    return root


class TestSynth:
    def test_outputs_exist(self, data_dir):
        assert (data_dir / "lexicon.tsv").exists()
        for split in ("train", "dev", "test"):
            assert (data_dir / split / "corpus.tsv").exists()
            assert (data_dir / split / "align.tsv").exists()
            assert list((data_dir / split / "feats").glob("*.feat"))
        assert (data_dir / "synth.config").exists()

    def test_reproducible(self, tmp_path, data_dir):
        again = tmp_path / "again"
        assert run("synth", "--out-dir", again, "--seed", "3", *TINY_SYNTH) == 0
        for rel in ("lexicon.tsv", "train/corpus.tsv", "train/align.tsv"):
            assert (again / rel).read_bytes() == (data_dir / rel).read_bytes()
        a = sorted((again / "train" / "feats").glob("*.feat"))
        b = sorted((data_dir / "train" / "feats").glob("*.feat"))
        assert [f.name for f in a] == [f.name for f in b]
        assert all(x.read_bytes() == y.read_bytes() for x, y in zip(a, b))

    def test_bad_config_value(self, tmp_path):
        assert run("synth", "--out-dir", tmp_path / "x", "--vocab-size", "0") == 4

    @pytest.mark.parametrize("flag, value", [
        ("--phoneme-duration-mean", "nan"), ("--phoneme-duration-std", "inf"),
        ("--phoneme-duration-mean", "inf"), ("--noise-scale", "nan"),
    ])
    def test_non_finite_value_fails_fast(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        assert run("synth", "--out-dir", out, *TINY_SYNTH, flag, value) == 4
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("args, message", [
        (["--phoneme-duration-std", "-1"], "phoneme_duration_std must be nonnegative"),
        (["--min-words", "3", "--max-words", "2"], "bad words-per-utterance range"),
        (["--n-dev", "0"], "every split needs at least one utterance"),
        (["--silence-prob", "1.5"], "silence_prob must be a probability"),
        (["--noise-scale", "-0.1"], "noise_scale must be nonnegative"),
    ], ids=["negative-duration-std", "words-range", "no-dev", "silence-prob", "negative-noise"])
    def test_out_of_range_value_fails_fast(self, tmp_path, capsys, args, message):
        out = tmp_path / "out"
        assert run("synth", "--out-dir", out, *TINY_SYNTH, *args) == 4
        assert message in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("mean", ["0.3", "0.5"])
    def test_duration_mean_at_most_half_a_frame(self, tmp_path, capsys, mean):
        # no duration draw would round to a frame: 0.3 has no draw to accept
        # at all, and 0.5 would write 0-frame phonemes
        out = tmp_path / "out"
        assert run("synth", "--out-dir", out, *TINY_SYNTH,
                   "--phoneme-duration-mean", mean, "--phoneme-duration-std", "0") == 4
        assert "phoneme_duration_mean" in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("mean, std", [("0.5001", "4.67"), ("0.51", "4.67")])
    def test_duration_window_too_narrow_for_std(self, tmp_path, capsys, mean, std):
        # under 1% of the draws land in (0.5, 2 * mean - 0.5]: about 1 in
        # 60,000 at mean 0.5001, where synth outran a 20 s timeout, and 1 in 600
        # at 0.51
        out = tmp_path / "out"
        assert run("synth", "--out-dir", out, *TINY_SYNTH,
                   "--phoneme-duration-mean", mean, "--phoneme-duration-std", std) == 4
        err = capsys.readouterr().err
        assert "phoneme_duration_mean" in err and "phoneme_duration_std" in err
        assert not list(out.iterdir())

    def test_short_duration_mean_loads(self, tmp_path):
        out = tmp_path / "out"
        assert run("synth", "--out-dir", out, *TINY_SYNTH,
                   "--phoneme-duration-mean", "0.7", "--phoneme-duration-std", "0") == 0
        lexicon = load_lexicon(out / "lexicon.tsv")
        for split in ("train", "dev", "test"):
            for u in load_corpus(out / split):
                # one frame per phoneme, plus any one-frame silences
                assert u.n_frames >= sum(len(lexicon.pronunciation(w)) for w in u.transcript)


class TestTrain:
    def test_outputs(self, model_dir):
        assert (model_dir / "model.net").exists()
        log = (model_dir / "trainlog.tsv").read_text().strip().split("\n")
        assert len(log) == 3
        fields = log[0].split("\t")
        assert len(fields) == 7
        assert fields[0] == "1" and fields[1] == "1"

    def test_deterministic_rerun(self, tmp_path, data_dir, model_dir):
        again = tmp_path / "again"
        assert run("train", "--data", data_dir, "--out-dir", again, *TINY_TRAIN) == 0
        assert (again / "model.net").read_bytes() == (model_dir / "model.net").read_bytes()
        assert (again / "trainlog.tsv").read_bytes() == (model_dir / "trainlog.tsv").read_bytes()

    def test_config_file_and_flag_precedence(self, tmp_path, data_dir):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(
            "mode = word-ctc\ndownsample = 2\nlayers = 2\nhidden = 10\n"
            "phase1-epochs = 9\nphase2-epochs = 0\nseed = 5\n"
        )
        out = tmp_path / "out"
        assert (
            run("train", "--config", cfg, "--data", data_dir, "--out-dir", out,
                "--phase1-epochs", "1") == 0
        )
        log = (out / "trainlog.tsv").read_text().strip().split("\n")
        assert len(log) == 1  # the flag beat the config file's 9

    def test_unknown_config_key(self, tmp_path, data_dir, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("seed = 1\n\nno-such-option = 1\n")
        assert run("train", "--config", cfg, "--data", data_dir,
                   "--out-dir", tmp_path / "o") == 4
        assert "%s line 3: no_such_option: unknown config key" % cfg in capsys.readouterr().err

    def test_repeated_config_key(self, tmp_path, capsys):
        # `-` and `_` name the same key, so n-dev and n_dev repeat one another
        for text, repeat in (("n_train = 5\nseed = 1\nn_train = 7\n", "n_train: repeats line 1"),
                             ("n-dev = 3\n\nn_dev = 3\n", "n_dev: repeats line 1")):
            cfg = tmp_path / "twice.cfg"
            cfg.write_text(text)
            out = tmp_path / "o"
            assert run("synth", "--config", cfg, "--out-dir", out) == 4
            assert "%s line 3: %s" % (cfg, repeat) in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("command, line, message", [
        ("train", "layers = abc", "layers: invalid literal for int() with base 10: 'abc'"),
        ("score", "fer = maybe", "fer: not a boolean: 'maybe'"),
        ("train", "layers 3", "expected key=value"),
    ], ids=["int", "bool", "no-equals"])
    def test_config_value_names_file_line_and_key(self, tmp_path, capsys, command, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# a comment\n%s\n" % line)
        assert run(command, "--config", cfg, "--out-dir", tmp_path / "o") == 4
        assert "%s line 2: %s" % (cfg, message) in capsys.readouterr().err

    def test_config_file_not_utf8(self, tmp_path, data_dir, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"mode = word-ctc\nseed = \xff5\n")
        out = tmp_path / "o"
        assert run("train", "--config", cfg, "--data", data_dir, "--out-dir", out) == 4
        assert "%s line 2: byte 0xff is not UTF-8" % cfg in capsys.readouterr().err
        assert not out.exists()

    def test_missing_data_dir(self, tmp_path):
        assert run("train", "--data", tmp_path / "nope", "--out-dir", tmp_path / "o",
                   *TINY_TRAIN) == 4

    def test_failure_leaves_no_outputs(self, tmp_path, data_dir):
        out = tmp_path / "out"
        code = run("train", "--data", data_dir, "--out-dir", out,
                   "--mode", "word-ctc", "--downsample", "3")
        assert code == 4
        assert not list(out.iterdir())

    def test_data_fraction(self, tmp_path, data_dir, capsys):
        out = tmp_path / "half"
        assert run("train", "--data", data_dir, "--out-dir", out,
                   "--data-fraction", "0.5", *TINY_TRAIN) == 0
        seed = int(TINY_TRAIN[TINY_TRAIN.index("--seed") + 1])
        subset_seed = np.random.SeedSequence(seed).spawn(3)[2]
        kept = subset(load_corpus(data_dir / "train"), 0.5, subset_seed)
        assert "(%d utterances," % len(kept) in capsys.readouterr().out

    def test_phoneme_mode(self, tmp_path, data_dir):
        out = tmp_path / "phone"
        assert run("train", "--data", data_dir, "--out-dir", out,
                   "--mode", "phoneme-ctc", "--downsample", "2", "--layers", "2",
                   "--hidden", "8", "--phase1-epochs", "1", "--phase2-epochs", "0",
                   "--seed", "2") == 0

    def test_frame_classifier_mode(self, tmp_path, data_dir):
        out = tmp_path / "frames"
        assert run("train", "--data", data_dir, "--out-dir", out,
                   "--mode", "frame-classifier", "--downsample", "1", "--layers", "2",
                   "--hidden", "8", "--phase1-epochs", "1", "--phase2-epochs", "0",
                   "--seed", "2") == 0

    def test_downsampled_frame_classifier_rejected_before_training(
        self, tmp_path, data_dir, capsys, monkeypatch
    ):
        monkeypatch.setattr(training, "train", lambda *args: pytest.fail("training started"))
        assert run("train", "--data", data_dir, "--out-dir", tmp_path / "frames",
                   *TINY_TRAIN, "--mode", "frame-classifier", "--downsample", "4") == 4
        assert "frame classification requires down-sampling factor 1" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["word-ctc", "phoneme-ctc"])
    def test_wordless_dev_rejected_before_training(self, tmp_path, data_dir, capsys, monkeypatch,
                                                   mode):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        (data / "dev" / "align.tsv").unlink()
        corpus = data / "dev" / "corpus.tsv"
        corpus.write_text("".join("%s\t%s\t\n" % tuple(line.split("\t")[:2])
                                  for line in corpus.read_text().splitlines()))
        monkeypatch.setattr(training, "train", lambda *args: pytest.fail("training started"))
        out = tmp_path / "out"
        assert run("train", "--data", data, "--out-dir", out, *TINY_TRAIN, "--mode", mode) == 3
        assert "%s: no word" % corpus in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("split, drop", [("dev", None), ("train", None), ("train", 1)],
                             ids=["dev-file-missing", "train-file-missing", "partial-file"])
    def test_frame_classifier_needs_every_alignment(self, tmp_path, data_dir, capsys, monkeypatch,
                                                    split, drop):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        align = data / split / "align.tsv"
        if drop is None:
            align.unlink()
            message = "%s: no such file" % align
        else:
            lines = align.read_text().splitlines(keepends=True)
            align.write_text("".join(lines[:drop] + lines[drop + 1 :]))
            message = "%s: no alignment for utterance %r" % (align, lines[drop].split("\t")[0])
        monkeypatch.setattr(training, "train", lambda *args: pytest.fail("training started"))
        out = tmp_path / "out"
        assert run("train", "--data", data, "--out-dir", out, *TINY_TRAIN,
                   "--mode", "frame-classifier", "--downsample", "1") == 3
        assert message in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_transfer_init(self, tmp_path, data_dir):
        phone = tmp_path / "phone"
        assert run("train", "--data", data_dir, "--out-dir", phone,
                   "--mode", "phoneme-ctc", "--downsample", "1", "--layers", "3",
                   "--hidden", "10", "--phase1-epochs", "1", "--phase2-epochs", "0",
                   "--seed", "2") == 0
        warm = tmp_path / "warm"
        assert run("train", "--data", data_dir, "--out-dir", warm,
                   "--mode", "word-ctc", "--downsample", "1", "--layers", "4",
                   "--hidden", "10", "--phase1-epochs", "1", "--phase2-epochs", "0",
                   "--init-from", phone / "model.net", "--init-layers", "3",
                   "--seed", "2") == 0
        # the bottom three layers really came over
        src = load_network(phone / "model.net")
        # a fresh run without transfer differs in the bottom layers
        cold = tmp_path / "cold"
        assert run("train", "--data", data_dir, "--out-dir", cold,
                   "--mode", "word-ctc", "--downsample", "1", "--layers", "4",
                   "--hidden", "10", "--phase1-epochs", "1", "--phase2-epochs", "0",
                   "--seed", "2") == 0
        warm_net = load_network(warm / "model.net")
        cold_net = load_network(cold / "model.net")
        assert not np.array_equal(warm_net.layers[0].w_i, cold_net.layers[0].w_i)


class TestRunIsTheTrainCommand:
    """training.run on the loaded corpus trains what `wordctc train` writes."""

    @pytest.fixture(scope="class")
    def phone_net(self, tmp_path_factory, data_dir):
        root = tmp_path_factory.mktemp("phone")
        assert run("train", "--data", data_dir, "--out-dir", root, *TINY_TRAIN,
                   "--mode", "phoneme-ctc") == 0
        return root / "model.net"

    @pytest.mark.parametrize("mode, argv, fields", [
        ("word-ctc", ["--init-layers", "1"], {"init_layers": 1}),
        ("phoneme-ctc", [], {}),
        ("frame-classifier", ["--downsample", "1", "--data-fraction", "0.5"],
         {"downsample": 1, "data_fraction": 0.5}),
    ], ids=["word-from-phone", "phone", "frame-half"])
    def test_same_model_and_log(self, tmp_path, data_dir, phone_net, mode, argv, fields):
        init = ["--init-from", phone_net] if mode == "word-ctc" else []
        out = tmp_path / "cli"
        assert run("train", "--data", data_dir, "--out-dir", out, *TINY_TRAIN,
                   "--mode", mode, *init, *argv) == 0
        # TINY_TRAIN's options, as a spec
        spec = training.TrainSpec(**{"downsample": 2, "layers": 2, "hidden": 10, "seed": 5,
                                     **fields},
                                  config=training.TrainConfig(phase1_epochs=2, phase2_epochs=1,
                                                              mode=mode))
        lexicon = load_lexicon(data_dir / "lexicon.tsv")
        train_utts, dev_utts = (load_corpus(data_dir / split, known_words=set(lexicon.words))
                                for split in ("train", "dev"))
        source = load_network(phone_net) if init else None
        result = training.run(spec, lexicon, train_utts, dev_utts, init_from=source)
        save_network(result.model, tmp_path / "run.net")
        assert (tmp_path / "run.net").read_bytes() == (out / "model.net").read_bytes()
        assert training.format_train_log(result.log) == (out / "trainlog.tsv").read_text()
        if fields.get("data_fraction"):
            assert result.n_utterances == len(train_utts) // 2


REQUIRED = [(command, opt.name) for command, schema in cli._SCHEMAS.items()
            for opt in schema if opt.required]


class TestRequiredOptions:
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command, name", REQUIRED, ids=["%s-%s" % r for r in REQUIRED])
    def test_empty_is_missing(self, tmp_path, monkeypatch, capsys, command, name, source):
        # an empty path is the current directory, which must stay untouched
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        given = {opt: tmp_path / opt for c, opt in REQUIRED if c == command}
        argv = [command]
        if source == "flag":
            given[name] = ""
        else:
            del given[name]
            cfg = tmp_path / "c.cfg"
            cfg.write_text("%s =\n" % name.replace("_", "-"))
            argv += ["--config", cfg]
        for opt, value in given.items():
            argv += ["--" + opt.replace("_", "-"), value]
        assert run(*argv) == 4
        assert "missing required option --%s" % name.replace("_", "-") in capsys.readouterr().err
        assert not any(cwd.iterdir())

    def test_empty_optional_path_means_none(self, tmp_path, data_dir, model_dir):
        assert run("train", "--data", data_dir, "--out-dir", tmp_path / "t", *TINY_TRAIN,
                   "--init-from", "") == 0
        assert run("analyze", "--model", model_dir / "model.net", "--lexicon",
                   data_dir / "lexicon.tsv", "--out-dir", tmp_path / "a", "--margin",
                   "--transcripts", "") == 0


class TestDecodeAndScore:
    def test_decode_score_round_trip(self, tmp_path, data_dir, model_dir):
        dec = tmp_path / "dec"
        assert run("decode", "--model", model_dir / "model.net",
                   "--data", data_dir / "dev", "--out-dir", dec) == 0
        hyp = dec / "hypotheses.tsv"
        assert hyp.exists()
        lines = hyp.read_text().strip().split("\n")
        assert len(lines) == 4
        score = tmp_path / "score"
        assert run("score", "--ref", data_dir / "dev" / "corpus.tsv",
                   "--hyp", hyp, "--out-dir", score) == 0
        report = (score / "report.tsv").read_text().strip().split("\n")
        assert report[0].startswith("id\t")
        assert report[-1].startswith("ALL\t")

    def test_decode_reproducible(self, tmp_path, data_dir, model_dir):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert run("decode", "--model", model_dir / "model.net",
                       "--data", data_dir / "dev", "--out-dir", out) == 0
        assert (a / "hypotheses.tsv").read_bytes() == (b / "hypotheses.tsv").read_bytes()

    def test_decode_matches_per_utterance_oracle(self, tmp_path, data_dir):
        # a random model with a sharpened head emits many words, so that
        # batched and one-at-a-time decoding have something to disagree about
        vocab = Vocabulary(tuple(sorted(load_lexicon(data_dir / "lexicon.tsv").words)))
        model = Network.random(4, [8] * 3, vocab, "word-ctc", downsample=(0, 1, 1), seed=3)
        model.w_out *= 200.0
        save_network(model, tmp_path / "sharp.net")
        assert run("decode", "--model", tmp_path / "sharp.net",
                   "--data", data_dir / "train", "--out-dir", tmp_path / "dec") == 0
        oracle = {u.utt_id: vocab.decode(greedy_decode(network_forward(model, u.features)[0]))
                  for u in load_corpus(data_dir / "train")}
        assert len(set(oracle.values())) > 3
        save_transcripts(oracle, tmp_path / "oracle.tsv")
        assert (tmp_path / "dec" / "hypotheses.tsv").read_bytes() == (tmp_path / "oracle.tsv").read_bytes()

    def test_score_fer(self, tmp_path, data_dir):
        # score alignments against themselves: 0 FER
        align = (data_dir / "dev" / "align.tsv")
        out = tmp_path / "fer"
        assert run("score", "--ref", align, "--hyp", align, "--out-dir", out,
                   "--fer") == 0
        assert (out / "report.tsv").read_text().strip().split("\n")[-1].endswith("0.0000")

    def test_score_fer_from_config(self, tmp_path, data_dir):
        align = data_dir / "dev" / "align.tsv"
        cfg = tmp_path / "fer.cfg"
        cfg.write_text("fer = yes\n")
        reports = []
        for name, extra in (("flag", ["--fer"]), ("config", ["--config", cfg]), ("wer", [])):
            assert run("score", "--ref", align, "--hyp", align, "--out-dir", tmp_path / name,
                       *extra) == 0
            reports.append((tmp_path / name / "report.tsv").read_bytes())
        assert reports[0] == reports[1] != reports[2]

    def test_score_missing_reference(self, tmp_path, data_dir):
        hyp = tmp_path / "hyp.tsv"
        hyp.write_text("ghost\tw00\n")
        assert run("score", "--ref", data_dir / "dev" / "corpus.tsv",
                   "--hyp", hyp, "--out-dir", tmp_path / "s") == 3

    def test_score_keeps_references_without_hypothesis(self, tmp_path, data_dir):
        refs = data_dir / "dev" / "corpus.tsv"
        first = refs.read_text().split("\n")[0].split("\t")
        hyp = tmp_path / "hyp.tsv"
        hyp.write_text("%s\t%s\n" % (first[0], first[2]))
        assert run("score", "--ref", refs, "--hyp", hyp, "--out-dir", tmp_path / "s") == 0
        report = (tmp_path / "s" / "report.tsv").read_text().strip().split("\n")
        words = [line.split("\t")[2].split() for line in refs.read_text().strip().split("\n")]
        assert len(report) == 1 + len(words) + 1
        pooled = report[-1].split("\t")
        assert int(pooled[4]) == sum(len(w) for w in words)
        # the unmatched references are full deletions
        assert int(pooled[2]) == sum(len(w) for w in words[1:])

    def test_score_fer_missing_hypothesis(self, tmp_path, data_dir, capsys):
        align = data_dir / "dev" / "align.tsv"
        lines = align.read_text().strip().split("\n")
        hyp = tmp_path / "hyp.tsv"
        hyp.write_text(lines[0] + "\n")
        assert run("score", "--ref", align, "--hyp", hyp, "--out-dir", tmp_path / "s",
                   "--fer") == 3
        assert lines[1].split("\t")[0] in capsys.readouterr().err

    def test_score_not_utf8(self, tmp_path, data_dir, capsys):
        hyp = tmp_path / "hyp.tsv"
        hyp.write_bytes(b"dev-0\tw00\ndev-1\tw\xff01\n")
        out = tmp_path / "s"
        assert run("score", "--ref", data_dir / "dev" / "corpus.tsv", "--hyp", hyp,
                   "--out-dir", out) == 3
        assert "%s line 2: byte 0xff is not UTF-8" % hyp in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("fer", [False, True], ids=["wer", "fer"])
    def test_score_empty_reference_set(self, tmp_path, capsys, fer):
        ref = tmp_path / "ref.tsv"
        ref.write_text("u1\t\nu2\t\n")
        out = tmp_path / "s"
        assert run("score", "--ref", ref, "--hyp", ref, "--out-dir", out,
                   *(["--fer"] if fer else [])) == 3
        assert str(ref) in capsys.readouterr().err
        assert not (out / "report.tsv").exists()

    @pytest.mark.parametrize("damage", ["half", "no-labels", "downsampled-classifier", "lookahead",
                                        "int-labels", "object-labels", "float-dims", "zero-hidden",
                                        "huge-hidden", "float-downsample", "bool-downsample",
                                        "bool-lookahead", "nan-layer", "inf-layer", "nan-w-out",
                                        "deep-header", "tab-label", "space-label", "empty-label",
                                        "newline-label", "space-reserved", "blank-classifier",
                                        "sil-ctc", "version-2", "short-header",
                                        "trailing-bytes", "list-mode"])
    def test_malformed_checkpoint(self, tmp_path, data_dir, model_dir, capsys, damage):
        blob = (model_dir / "model.net").read_bytes()
        reason = {"half": "truncated", "no-labels": "header has no key 'labels'",
                  "lookahead": "lookahead 2 does not fit mode 'word-ctc'",
                  "int-labels": "strings", "object-labels": "list of strings",
                  "float-dims": "integers", "zero-hidden": "hidden unit",
                  "huge-hidden": "truncated",
                  "float-downsample": "integers", "bool-downsample": "integers",
                  "bool-lookahead": "integers", "deep-header": "bad header",
                  "downsampled-classifier": "requires down-sampling factor 1",
                  "blank-classifier": "mode 'frame-classifier' reserves 'SIL', not '<blk>'",
                  "sil-ctc": "mode 'word-ctc' reserves '<blk>', not 'SIL'",
                  "version-2": "unsupported format version 2",
                  "trailing-bytes": "8 trailing bytes", "list-mode": "mode must be one of"}
        # labels that hypotheses.tsv could not write as one token
        relabel = {"tab-label": "w00\tXX", "space-label": "w00 XX", "empty-label": "",
                   "newline-label": "w00\nw01", "space-reserved": "<b lk>"}
        reason.update((d, "label %r is empty or holds whitespace" % label)
                      for d, label in relabel.items())
        (header_len,) = struct.unpack_from("<I", blob, 8)
        if damage == "half":
            blob = blob[: len(blob) // 2]
        elif damage == "version-2":
            blob = blob[:4] + struct.pack("<I", 2) + blob[8:]
        elif damage == "short-header":
            blob = blob[: 12 + header_len - 1]
            reason[damage] = "header truncated at byte %d" % len(blob)
        elif damage == "trailing-bytes":
            blob += bytes(8)
        elif damage == "deep-header":
            # nested past the JSON parser's recursion limit
            text = b"[" * 100_000 + b"]" * 100_000
            blob = b"WNET" + struct.pack("<II", 1, len(text)) + text
        elif damage in ("nan-layer", "inf-layer", "nan-w-out"):
            # the first float of the payload, or of the softmax weights
            net = load_network(model_dir / "model.net")
            at = len(blob) - 8 * (net.w_out.size + net.b_out.size if damage == "nan-w-out"
                                  else net.flat.size)
            bad = math.inf if damage == "inf-layer" else math.nan
            blob = blob[:at] + struct.pack("<d", bad) + blob[at + 8 :]
            reason[damage] = "non-finite parameter at byte %d" % at
        else:
            header = json.loads(blob[12 : 12 + header_len])
            if damage == "no-labels":
                del header["labels"]
            elif damage == "lookahead":
                header["lookahead"] = 2
            elif damage == "int-labels":
                header["labels"] = list(range(len(header["labels"])))
            elif damage == "object-labels":
                # its keys are the labels, in order
                header["labels"] = {w: i for i, w in enumerate(header["labels"])}
            elif damage == "float-dims":
                header["hidden_dims"] = [float(h) for h in header["hidden_dims"]]
            elif damage == "zero-hidden":
                header["hidden_dims"] = [0] * len(header["hidden_dims"])
            elif damage == "huge-hidden":
                # far more parameters than could be allocated, and a 64-byte payload
                header["hidden_dims"] = [200000] * len(header["hidden_dims"])
                blob = blob[: 12 + header_len + 64]
            elif damage == "float-downsample":
                header["downsample"] = [float(c) for c in header["downsample"]]
            elif damage == "bool-downsample":
                header["downsample"] = [bool(c) for c in header["downsample"]]
            elif damage == "bool-lookahead":
                header["lookahead"] = bool(header["lookahead"])
            elif damage == "space-reserved":
                header["reserved"] = relabel[damage]
            elif damage in relabel:
                header["labels"][0] = relabel[damage]
            elif damage == "list-mode":
                header["mode"] = [header["mode"]]
            elif damage == "sil-ctc":
                header["reserved"] = "SIL"
            elif damage == "blank-classifier":
                header["mode"] = "frame-classifier"
            else:
                # the model halves its frame rate, which a frame classifier cannot
                header["mode"], header["reserved"] = "frame-classifier", "SIL"
            text = json.dumps(header).encode()
            blob = blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + header_len :]
        broken = tmp_path / "broken.net"
        broken.write_bytes(blob)
        assert run("decode", "--model", broken, "--data", data_dir / "dev",
                   "--out-dir", tmp_path / "d") == 3
        err = capsys.readouterr().err
        assert str(broken) in err
        assert reason.get(damage, "") in err, err

    def test_checkpoint_feature_dimension_mismatch(self, tmp_path, data_dir, model_dir, capsys):
        narrow = tmp_path / "narrow"
        shutil.copytree(data_dir / "dev", narrow)
        for feat in (narrow / "feats").glob("*.feat"):
            save_features(feat, load_features(feat)[:, :3])
        assert run("decode", "--model", model_dir / "model.net",
                   "--data", narrow, "--out-dir", tmp_path / "d") == 4
        err = capsys.readouterr().err
        assert str(model_dir / "model.net") in err and str(narrow) in err
        assert re.search("dimension 3 .* 4", err), err

    def test_corrupt_feature_file(self, tmp_path, data_dir, model_dir):
        broken = tmp_path / "broken"
        shutil.copytree(data_dir / "dev", broken)
        feat = sorted((broken / "feats").glob("*.feat"))[0]
        feat.write_bytes(feat.read_bytes()[:10])
        assert run("decode", "--model", model_dir / "model.net",
                   "--data", broken, "--out-dir", tmp_path / "d") == 3


def _nan_frame(data):
    feat = sorted((data / "train" / "feats").glob("*.feat"))[0]
    feats = load_features(feat)
    feats[2] = np.nan
    save_features(feat, feats)
    return [], [re.escape(str(feat)), "frame 2"]


def _empty_train(data):
    (data / "train" / "corpus.tsv").write_text("")
    (data / "train" / "align.tsv").write_text("")
    return [], [re.escape(str(data / "train" / "corpus.tsv"))]


def _narrow_frame(data):
    feats = sorted((data / "train" / "feats").glob("*.feat"))
    save_features(feats[1], load_features(feats[1])[:, :3])
    return [], [re.escape(str(feats[1])), "dimension 3 .* 4"]


def _narrow_dev(data):
    for feat in (data / "dev" / "feats").glob("*.feat"):
        save_features(feat, load_features(feat)[:, :3])
    return [], [re.escape(str(data / "dev")), re.escape(str(data / "train")), "dimension 3 .* 4"]


def _wide_checkpoint(data):
    # a transfer source built for 5-dimensional features, against this 4-dimensional corpus
    source = data / "wide.net"
    save_network(Network.random(5, [10], Vocabulary(("a", "b")), "phoneme-ctc", seed=0), source)
    return (["--init-from", source, "--init-layers", "1"],
            [re.escape(str(source)), re.escape(str(data / "train")), "dimension 4 .* 5"])


def _narrow_checkpoint(data):
    # a 2x8 transfer source under a 3x12 word model: layer 0 is (32, 12) there, (48, 16) here
    source = data / "narrow.net"
    save_network(Network.random(4, [8, 8], Vocabulary(("a", "b")), "phoneme-ctc", seed=0), source)
    return (["--init-from", source, "--init-layers", "2", "--layers", "3", "--hidden", "12"],
            ["--init-from " + re.escape(str(source)), "layer 0 shape mismatch"])


def _all_layers_transferred(data):
    source = data / "source.net"
    save_network(Network.random(4, [10, 10], Vocabulary(("a", "b")), "phoneme-ctc", seed=0), source)
    return (["--init-from", source, "--init-layers", "2"],
            [re.escape(str(source)), "--init-layers 2: can replace 0 to 1 of the destination's 2"])


def _feat_version_2(data):
    feat = sorted((data / "train" / "feats").glob("*.feat"))[0]
    blob = feat.read_bytes()
    feat.write_bytes(blob[:4] + struct.pack("<I", 2) + blob[8:])
    return [], [re.escape("%s: unsupported feature version 2" % feat)]


def _no_train_corpus(data):
    (data / "train" / "corpus.tsv").unlink()
    return [], [re.escape("%s: no corpus.tsv" % (data / "train"))]


def _diverge(data):
    return ["--phase1-lr", "1e300", "--clip-norm", "1e300"], [r"epoch 1: utterance train-\d+"]


def _zero_probability(data):
    # logits overflow to -inf for the target's words before any update overflows
    return ["--phase1-lr", "1e307"], [r"^wordctc train: epoch 1: utterance train-\d+: "
                                      r"the \d+-frame lattice gives the target zero probability$"]


def _zero_dim_frame(data):
    feat = sorted((data / "train" / "feats").glob("*.feat"))[1]
    save_features(feat, np.zeros((5, 0), dtype=np.float32))
    return [], [re.escape(str(feat)), "feature dimension is 0"]


def _missing_dev_feat(data):
    feat = sorted((data / "dev" / "feats").glob("*.feat"))[0]
    feat.unlink()
    return [], [re.escape("%s line " % (data / "dev" / "corpus.tsv")), re.escape(str(feat))]


def _lexicon_entry(data, entry):
    """Append `entry` to the lexicon; the patterns of a message that names its line."""
    lexicon = data / "lexicon.tsv"
    line = lexicon.read_text().count("\n") + 1
    with lexicon.open("a") as fh:
        fh.write(entry + "\n")
    return [re.escape("%s line %d: " % (lexicon, line)), "reserved"]


def _sil_word(data):
    # the frame classifier's own label for silence
    return ["--mode", "frame-classifier"], _lexicon_entry(data, "SIL\tp01")


def _blank_phoneme(data):
    return ["--mode", "phoneme-ctc"], _lexicon_entry(data, "w99\tp01 <blk>")


def _blank_word(data):
    return [], _lexicon_entry(data, "<blk>\tp01")


def _overflow_update(data):
    # the step overflows a parameter; the next forward would meet infinite logits
    return ["--phase1-lr", "1e308"], [r"epoch 1: utterance train-\d+: update at step size"]


class TestTrainFailureModes:
    @pytest.mark.parametrize("damage, code", [
        (_nan_frame, 3), (_empty_train, 3), (_narrow_frame, 3), (_zero_dim_frame, 3),
        (_missing_dev_feat, 3), (_sil_word, 3), (_blank_phoneme, 3), (_blank_word, 3),
        (_feat_version_2, 3), (_no_train_corpus, 3),
        (_narrow_dev, 4), (_wide_checkpoint, 4), (_narrow_checkpoint, 4),
        (_all_layers_transferred, 4), (_diverge, 5), (_zero_probability, 5), (_overflow_update, 5),
    ])
    def test_exit_code_message_and_no_outputs(self, tmp_path, data_dir, capsys, recwarn,
                                              damage, code):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        extra, patterns = damage(data)
        out = tmp_path / "out"
        assert run("train", "--data", data, "--out-dir", out, *TINY_TRAIN, *extra) == code
        err = capsys.readouterr().err
        for pattern in patterns:
            assert re.search(pattern, err), (pattern, err)
        assert not list(out.iterdir())
        if code == 5:
            # the one message line, and no numpy warning ahead of it
            assert err.count("\n") == 1, err
            assert not [str(w.message) for w in recwarn]

    @pytest.mark.parametrize("extra, message", [
        (["--phase1-lr", "nan"], "phase1_lr"), (["--phase2-lr", "nan"], "phase2_lr"),
        (["--clip-norm", "nan"], "clip_norm"), (["--phase1-lr", "inf"], "phase1_lr"),
        (["--layers", "1", "--hidden", "0"], "hidden unit"),
        (["--phase1-epochs", "0", "--phase2-epochs", "0"], "phase1_epochs and phase2_epochs"),
        (["--mode", "bogus"], ", got 'bogus'"),
    ], ids=["phase1-lr-nan", "phase2-lr-nan", "clip-norm-nan", "phase1-lr-inf", "hidden-0",
            "empty-schedule", "mode-bogus"])
    def test_bad_value_rejected_before_training(self, tmp_path, data_dir, capsys, monkeypatch,
                                                extra, message):
        monkeypatch.setattr(training, "train", lambda *args: pytest.fail("train() was called"))
        out = tmp_path / "out"
        assert run("train", "--data", data_dir, "--out-dir", out, *TINY_TRAIN, *extra) == 4
        assert message in capsys.readouterr().err
        assert not list(out.iterdir())


def test_cleanup_removes_claimed_directory(tmp_path):
    out = _Outputs(tmp_path / "out")
    split = out.claim("train")
    (split / "feats").mkdir(parents=True)
    (split / "feats" / "u0.feat").write_bytes(b"FEAT")
    (split / "corpus.tsv").write_text("u0\tfeats/u0.feat\tw0\n")
    out.write_text("synth.config", "seed = 0\n")
    out.cleanup()
    assert not list(out.root.iterdir())


class TestTooShort:
    def test_one_policy_for_evaluate_decode_and_perplexity(self, tmp_path):
        # 3 frames halve to 1 before the second layer, which cannot halve again
        vocab = Vocabulary(("a", "b"))
        net = Network.random(4, [6, 6], vocab, "word-ctc",
                             downsample=downsample_schedule(4, 2), seed=0)
        utt = Utterance("short", np.zeros((3, 4), dtype=np.float32), ("a",))
        assert evaluate(net, [utt]) == 100.0
        assert training_perplexity(net, [utt]) == math.inf
        save_network(net, tmp_path / "model.net")
        save_corpus([utt], tmp_path / "data")
        assert run("decode", "--model", tmp_path / "model.net", "--data", tmp_path / "data",
                   "--out-dir", tmp_path / "dec") == 0
        assert (tmp_path / "dec" / "hypotheses.tsv").read_text() == "short\t\n"


class TestAnalyze:
    def test_analyze_small_model(self, tmp_path, data_dir, model_dir):
        # 8 words is too few for the 48-50 neighbor band, so restrict to
        # the blank and margin reports
        out = tmp_path / "ana"
        assert run("analyze", "--model", model_dir / "model.net",
                   "--lexicon", data_dir / "lexicon.tsv", "--out-dir", out,
                   "--margin", "--transcripts", data_dir / "train" / "corpus.tsv") == 0
        table = (out / "margin_table.tsv").read_text().strip().split("\n")
        assert table[0] == "word\tcount\tmargin"
        assert len(table) == 9
        summary = (out / "summary.tsv").read_text()
        assert "frequency_margin_spearman" in summary

    def test_readme_analyze_line_on_default_vocabulary(self, tmp_path, monkeypatch):
        # the toy experiment's last step, on a checkpoint over the default 50 words
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        lines = readme.split("### A full toy experiment")[1].splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("wordctc analyze"))
        command = lines[start]
        while command.endswith("\\"):
            start += 1
            command = command[:-1] + lines[start]
        monkeypatch.chdir(tmp_path)
        assert run("synth", "--out-dir", "data", "--n-train", "20", "--n-dev", "2",
                   "--n-test", "2") == 0
        vocab = Vocabulary(tuple(sorted(load_lexicon("data/lexicon.tsv").words)))
        assert len(vocab.labels) == 50
        Path("run").mkdir()
        save_network(Network.random(8, [6], vocab, "word-ctc", seed=0), "run/model.net")
        assert run(*shlex.split(command)[1:]) == 0
        assert (tmp_path / "ana" / "blank_histogram.tsv").exists()

    def test_no_report_flag_writes_every_report(self, tmp_path, monkeypatch):
        # 51 words: enough for the overlap report's far band
        monkeypatch.chdir(tmp_path)
        assert run("synth", "--out-dir", "data", "--vocab-size", "51", "--n-train", "20",
                   "--n-dev", "2", "--n-test", "2") == 0
        vocab = Vocabulary(tuple(sorted(load_lexicon("data/lexicon.tsv").words)))
        save_network(Network.random(8, [6], vocab, "word-ctc", seed=0), "model.net")
        common = ["analyze", "--model", "model.net", "--lexicon", "data/lexicon.tsv",
                  "--transcripts", "data/train/corpus.tsv"]
        assert run(*common, "--out-dir", "every") == 0
        assert run(*common, "--out-dir", "flagged", "--overlap", "--blank", "--margin") == 0
        names = ["overlap_histogram.tsv", "blank_histogram.tsv", "margin_table.tsv", "summary.tsv"]
        assert sorted(p.name for p in Path("every").iterdir()) == sorted(names)
        for name in names:
            assert (Path("every") / name).read_bytes() == (Path("flagged") / name).read_bytes()

    def test_overlap_needs_enough_words(self, tmp_path, data_dir, model_dir):
        out = tmp_path / "ana2"
        assert run("analyze", "--model", model_dir / "model.net",
                   "--lexicon", data_dir / "lexicon.tsv", "--out-dir", out,
                   "--overlap") == 4
        assert not list(out.iterdir())


class TestPipelineDeterminism:
    def test_two_full_runs_identical(self, tmp_path):
        outputs = []
        for name in ("one", "two"):
            base = tmp_path / name
            assert run("synth", "--out-dir", base / "data", "--seed", "11", *TINY_SYNTH) == 0
            assert run("train", "--data", base / "data", "--out-dir", base / "model",
                       *TINY_TRAIN) == 0
            assert run("decode", "--model", base / "model" / "model.net",
                       "--data", base / "data" / "test", "--out-dir", base / "dec") == 0
            outputs.append(base)
        one, two = outputs
        for rel in ("data/lexicon.tsv", "model/model.net", "model/trainlog.tsv",
                    "dec/hypotheses.tsv"):
            assert (one / rel).read_bytes() == (two / rel).read_bytes(), rel
