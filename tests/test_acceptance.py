"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines as they
go.  The tests that train (criteria 6-9) and the edit-distance oracle
(criterion 5) take nearly all of the suite's time and are marked `slow`, so
`pytest -m "not slow"` leaves them out of a quick run; everything else
finishes in seconds.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import wordctc as w
from wordctc.analysis import (
    blank_distance_report,
    embedding_matrix,
    frequency_margin_table,
    overlap_histograms,
    permutation_pvalue,
)
from wordctc.numerics import log_softmax


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %02d %-28s FAIL" % (num, name))
        raise
    print("ACCEPTANCE %02d %-28s PASS" % (num, name))


def random_lattice(rng, n_frames, n_labels):
    return log_softmax(rng.normal(0.0, 2.0, size=(n_frames, n_labels + 1)))


# -- shared trained models ---------------------------------------------------

TOY_NET = dict(hidden_dims=[48, 48, 48], downsample=w.downsample_schedule(4, 3))


def word_vocab(corpus):
    return w.Vocabulary(tuple(sorted(corpus.lexicon.words)))


@pytest.fixture(scope="module")
def default_corpus():
    return w.generate_synthetic(w.SynthConfig())


@pytest.fixture(scope="module")
def converged_word_model(default_corpus):
    """The full recipe (20 + 20 epochs) on the frozen default corpus."""
    vocab = word_vocab(default_corpus)
    net = w.Network.random(8, TOY_NET["hidden_dims"], vocab, "word-ctc",
                           downsample=TOY_NET["downsample"], seed=1)
    started = time.monotonic()
    result = w.train(net, default_corpus.train, default_corpus.dev, w.TrainConfig(seed=7))
    return result, time.monotonic() - started


@pytest.fixture(scope="module")
def analysis_model():
    """A 64-word corpus (enough words for the 48th-50th neighbor band) and a
    model trained long enough to expose the embedding structure."""
    corpus = w.generate_synthetic(w.SynthConfig(seed=11, vocab_size=64, n_train=500))
    vocab = word_vocab(corpus)
    net = w.Network.random(8, TOY_NET["hidden_dims"], vocab, "word-ctc",
                           downsample=TOY_NET["downsample"], seed=1)
    cfg = w.TrainConfig(phase1_epochs=10, phase2_epochs=4, seed=7)
    result = w.train(net, corpus.train, corpus.dev, cfg)
    return corpus, embedding_matrix(result.model)


# -- criteria ----------------------------------------------------------------


def test_01_ctc_oracle_equivalence():
    with criterion(1, "ctc oracle equivalence"):
        rng = np.random.default_rng(2024)
        started = time.monotonic()
        n_cases = 0
        while n_cases < 1000:
            n_labels = int(rng.integers(1, 5))
            n_frames = int(rng.integers(1, 9))
            k = int(rng.integers(0, 5))
            target = tuple(int(x) for x in rng.integers(0, n_labels, size=k))
            vocab = w.Vocabulary(tuple("abcd"[:n_labels]))
            lattice = random_lattice(rng, n_frames, n_labels)
            paths = w.enumerate_preimage(target, n_frames, vocab)
            brute = sum(math.exp(w.path_log_prob(lattice, p)) for p in paths)
            ours = math.exp(w.ctc_log_likelihood(lattice, target))
            assert abs(ours - brute) < 1e-10
            n_cases += 1
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, "took %.1fs" % elapsed


def test_02_normalization():
    with criterion(2, "sum over targets is one"):
        rng = np.random.default_rng(7)
        for n_labels in (1, 2, 3):
            vocab = w.Vocabulary(tuple("abc"[:n_labels]))
            for n_frames in range(1, 6):
                lattice = random_lattice(rng, n_frames, n_labels)
                targets = {
                    w.collapse(p, vocab.blank_id)
                    for p in itertools.product(range(vocab.size), repeat=n_frames)
                }
                total = sum(
                    math.exp(w.ctc_log_likelihood(lattice, y)) for y in targets
                )
                assert abs(total - 1.0) < 1e-9


def test_03_gradient_exactness():
    with criterion(3, "gradient exactness"):
        started = time.monotonic()
        rng = np.random.default_rng(5)
        eps = 1e-6

        # ctc gradient w.r.t. the logits on random instances
        for _ in range(3):
            n_labels = int(rng.integers(2, 4))
            n_frames = int(rng.integers(4, 8))
            target = tuple(int(x) for x in rng.integers(0, n_labels, size=2))
            logits = rng.normal(0, 1, size=(n_frames, n_labels + 1))
            grad = w.ctc_loss_and_gradient(log_softmax(logits), target)[1]
            for t in range(n_frames):
                for k in range(n_labels + 1):
                    up = logits.copy()
                    up[t, k] += eps
                    down = logits.copy()
                    down[t, k] -= eps
                    fd = (
                        -w.ctc_log_likelihood(log_softmax(up), target)
                        + w.ctc_log_likelihood(log_softmax(down), target)
                    ) / (2 * eps)
                    assert abs(grad[t, k] - fd) / max(abs(fd), 1e-2) < 1e-4

        # full network backprop: 2 layers, hidden 8, one halving, 7 frames
        vocab = w.Vocabulary(("a", "b", "c"))
        net = w.Network.random(4, [8, 8], vocab, "word-ctc", downsample=(0, 1), seed=11)
        x = rng.normal(size=(7, 4))
        target = (0, 2)

        def loss():
            lattice, _ = w.network_forward(net, x)
            return w.ctc_loss_and_gradient(lattice, target)[0]

        lattice, tape = w.network_forward(net, x)
        _, d_logits = w.ctc_loss_and_gradient(lattice, target)
        grads, d_x = w.network_backward(net, tape, d_logits)
        for param, grad in zip(net.params(), grads.arrays()):
            flat_p, flat_g = param.ravel(), grad.ravel()
            for i in range(flat_p.size):
                old = flat_p[i]
                flat_p[i] = old + eps
                up = loss()
                flat_p[i] = old - eps
                down = loss()
                flat_p[i] = old
                fd = (up - down) / (2 * eps)
                assert abs(flat_g[i] - fd) / max(abs(fd), 1e-2) < 1e-4
        elapsed = time.monotonic() - started
        assert elapsed < 120.0, "took %.1fs" % elapsed


def test_04_downsampling_law():
    with criterion(4, "down-sampling law"):
        for n in range(2, 65):
            kept = w.downsample(np.arange(n))
            assert len(kept) == n // 2
            # 1-based odd frames 1, 3, ..., 2*floor(T/2)-1
            np.testing.assert_array_equal(kept, np.arange(0, 2 * (n // 2), 2))


@pytest.mark.slow
def test_05_edit_distance_oracle():
    with criterion(5, "edit distance oracle"):

        def oracle(ref, hyp):
            prev = list(range(len(hyp) + 1))
            for i, r in enumerate(ref, 1):
                cur = [i] + [0] * len(hyp)
                for j, h in enumerate(hyp, 1):
                    cur[j] = min(prev[j - 1] + (r != h), cur[j - 1] + 1, prev[j] + 1)
                prev = cur
            return prev[-1]

        seqs = [
            p
            for n in range(7)
            for p in itertools.product((0, 1, 2), repeat=n)
        ]
        assert len(seqs) == 1093
        for ref in seqs:
            for hyp in seqs:
                stats = w.edit_distance(ref, hyp)
                assert stats.total == oracle(ref, hyp)
                assert stats.insertions - stats.deletions == len(hyp) - len(ref)


@pytest.mark.slow
def test_06_toy_convergence(converged_word_model):
    with criterion(6, "toy word-CTC convergence"):
        result, elapsed = converged_word_model
        print("  best dev WER %.2f%% at epoch %d, trained in %.0fs"
              % (result.best_metric, result.best_epoch, elapsed))
        assert len(result.log) == 40
        assert result.best_metric <= 20.0, "best dev WER %.2f" % result.best_metric
        assert elapsed < 30 * 60, "training took %.0fs" % elapsed


@pytest.mark.slow
def test_07_downsampling_trend(default_corpus):
    with criterion(7, "down-sampling factor 4 helps"):
        vocab = word_vocab(default_corpus)
        budget = w.TrainConfig(phase1_epochs=4, phase2_epochs=0, seed=7)
        wer = {}
        for factor in (1, 4):
            net = w.Network.random(8, TOY_NET["hidden_dims"], vocab, "word-ctc",
                                   downsample=w.downsample_schedule(factor, 3), seed=1)
            wer[factor] = w.train(net, default_corpus.train, default_corpus.dev,
                                  budget).best_metric
        print("  dev WER at 4-epoch budget: factor 2^2 %.2f%% vs 2^0 %.2f%%"
              % (wer[4], wer[1]))
        assert wer[4] < wer[1], "2^2 gave %.2f vs 2^0 %.2f" % (wer[4], wer[1])


@pytest.mark.slow
def test_08_overlap_separation(analysis_model):
    with criterion(8, "close neighbors sound alike"):
        corpus, emb = analysis_model
        hist = overlap_histograms(emb, corpus.lexicon)
        pvalue = permutation_pvalue(hist.close_values, hist.far_values,
                                    n_rounds=5000, seed=0)
        print("  mean overlap close %.3f vs far %.3f (p = %.5f)"
              % (hist.close_mean, hist.far_mean, pvalue))
        assert hist.close_mean > hist.far_mean
        assert pvalue < 0.01, "p = %.5f" % pvalue


@pytest.mark.slow
def test_09_blank_margin_and_frequency(analysis_model):
    with criterion(9, "blank far, margin frequency"):
        corpus, emb = analysis_model
        report = blank_distance_report(emb)
        table = frequency_margin_table(emb, [u.transcript for u in corpus.train])
        print("  blank mean %.3f vs word-word median %.3f; spearman %s"
              % (report.blank_mean, report.word_word_median, table.rank_correlation))
        assert report.blank_mean > report.word_word_median
        assert table.rank_correlation is not None
        assert table.rank_correlation > 0


def test_10_pipeline_determinism(parity_run, tmp_path, monkeypatch):
    # tools/parity.py runs every command and mode: both CTC modes, --init-from
    # transfer, the frame classifier with clipping and --data-fraction,
    # factor-16 skipping, both kinds of score, and analyze; the first run is
    # the one test_demos.py checks the contents of
    with criterion(10, "pipeline determinism"):
        parity, first, code = parity_run
        assert code == 0
        # run_all changes into its output directory; monkeypatch changes back
        monkeypatch.chdir(tmp_path)
        second = tmp_path / "two"
        assert parity["run_all"](second) == 0
        one, two = ({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
                    for out in (first, second))
        assert sorted(one) == sorted(two)
        assert [rel for rel in one if one[rel] != two[rel]] == []
        print("  %d files byte-identical across two runs" % len(one))
