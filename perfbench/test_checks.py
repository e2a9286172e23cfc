"""Tests for the benchmark's own references and checks.

    PYTHONPATH=src python -m pytest perfbench -q

Each reference is compared with brute-force enumeration or with the
library's acceptance oracles on tiny cases, and each check is fed a
deliberately perturbed output and must report a problem.
"""

import itertools
import math
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import wordctc as w  # noqa: E402
from wordctc.analysis import embedding_matrix, frequency_margin_table  # noqa: E402
from wordctc.numerics import log_softmax  # noqa: E402


def random_lattice(rng, n_frames, n_labels):
    return log_softmax(rng.normal(0.0, 2.0, size=(n_frames, n_labels + 1)))


def brute_ctc_nll(lattice, target):
    """Sum over every path of the lattice's length that collapses to target."""
    T, K = lattice.shape
    total = 0.0
    for path in itertools.product(range(K), repeat=T):
        merged = [s for i, s in enumerate(path) if i == 0 or s != path[i - 1]]
        if tuple(s for s in merged if s != K - 1) == tuple(target):
            total += math.exp(sum(lattice[t, s] for t, s in enumerate(path)))
    return -math.log(total) if total > 0 else math.inf


# -- references ----------------------------------------------------------------


def test_ctc_reference_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(60):
        n_labels = int(rng.integers(1, 4))
        n_frames = int(rng.integers(1, 6))
        target = tuple(int(x) for x in rng.integers(0, n_labels, size=int(rng.integers(0, 4))))
        lattice = random_lattice(rng, n_frames, n_labels)
        expected = brute_ctc_nll(lattice, target)
        got = checks.ctc_nll_reference(lattice, target)
        if math.isinf(expected):
            assert math.isinf(got)
        else:
            assert abs(got - expected) < 1e-10


def test_ctc_reference_rescales_long_lattices():
    rng = np.random.default_rng(1)
    lattice = random_lattice(rng, 2000, 5)
    target = tuple(int(x) for x in rng.integers(0, 5, size=300))
    ref = checks.ctc_nll_reference(lattice, target)
    assert math.isfinite(ref)
    assert abs(ref + w.ctc_log_likelihood(lattice, target)) < 1e-8 * ref


@lru_cache(maxsize=None)
def brute_edit(a, b):
    if not a or not b:
        return len(a) + len(b)
    return min(brute_edit(a[1:], b[1:]) + (a[0] != b[0]),
               brute_edit(a[1:], b) + 1, brute_edit(a, b[1:]) + 1)


def test_levenshtein_matches_brute_force_and_library():
    seqs = [p for n in range(5) for p in itertools.product((0, 1, 2), repeat=n)]
    for ref in seqs[::3]:
        for hyp in seqs[::2]:
            d = checks.levenshtein(ref, hyp)
            assert d == brute_edit(ref, hyp) == w.edit_distance(ref, hyp).total


def test_average_ranks_pearson_is_scipy_spearman():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.integers(0, 4, size=12).astype(float)  # plenty of ties
        b = rng.normal(size=12)
        expected = scipy_stats.spearmanr(a, b).statistic
        got = checks.pearson(checks.average_ranks(a), checks.average_ranks(b))
        assert abs(got - expected) < 1e-12
    assert checks.average_ranks([3, 1, 3, 2]) == [3.5, 1.0, 3.5, 2.0]


def tiny_net(seed=3, downsample=(1, 1)):
    vocab = w.Vocabulary(("a", "b", "c"))
    return w.Network.random(4, [6, 5], vocab, "word-ctc", downsample=downsample, seed=seed)


def test_checkpoint_reader_and_reference_forward(tmp_path):
    net = tiny_net()
    rng = np.random.default_rng(4)
    for p in net.params():  # move off the init so every block differs
        p += rng.normal(0, 0.5, size=p.shape)
    path = tmp_path / "model.net"
    w.save_network(net, path)
    ckpt = checks.read_checkpoint(path)
    np.testing.assert_array_equal(ckpt["w_out"], net.w_out)
    for (weights, bias), layer in zip(ckpt["layers"], net.layers):
        np.testing.assert_array_equal(weights, np.vstack([layer.w_i, layer.w_f, layer.w_o, layer.w_g]))
        np.testing.assert_array_equal(bias, np.concatenate([layer.b_i, layer.b_f, layer.b_o, layer.b_g]))
    for n_frames in (4, 9, 23):
        x = rng.normal(size=(n_frames, 4))
        lattice, _ = w.network_forward(net, x)
        np.testing.assert_allclose(checks.reference_lattice(ckpt, x), lattice, rtol=0, atol=1e-12)
        assert checks.argmax_collapse(lattice, ("a", "b", "c")) == net.vocab.decode(w.greedy_decode(lattice))


def test_read_features_round_trip(tmp_path):
    x = np.random.default_rng(5).normal(size=(7, 3)).astype(np.float32)
    w.save_features(tmp_path / "x.feat", x)
    np.testing.assert_array_equal(checks.read_features(tmp_path / "x.feat"), x)


# -- training checks -------------------------------------------------------------


def ctc_samples(rng, n=3):
    out = []
    for k in range(n):
        lattice = random_lattice(rng, 12, 3)
        target = (0, 2, 2)
        loss, grad = w.ctc_loss_and_gradient(lattice, target)
        out.append(("u%d" % k, lattice, target, loss, grad))
    return out


def test_ctc_check_passes_and_rejects_perturbations():
    samples = ctc_samples(np.random.default_rng(6))
    assert checks.check_ctc_against_reference(samples) == []
    utt, lattice, target, loss, grad = samples[1]
    bad_loss = samples[:1] + [(utt, lattice, target, loss * (1 + 1e-6), grad)]
    assert checks.check_ctc_against_reference(bad_loss)
    bumped = grad.copy()
    bumped[4, 1] += 1e-6
    assert checks.check_ctc_against_reference([(utt, lattice, target, loss, bumped)])


def fd_setup():
    """Acceptance criterion 3's network: 2 layers, hidden 8, one halving."""
    vocab = w.Vocabulary(("a", "b", "c"))
    net = w.Network.random(4, [8, 8], vocab, "word-ctc", downsample=(0, 1), seed=11)
    x = np.random.default_rng(5).normal(size=(7, 4))
    target = (0, 2)

    def loss_fn():
        lattice, _ = w.network_forward(net, x)
        return w.ctc_loss_and_gradient(lattice, target)[0]

    lattice, tape = w.network_forward(net, x)
    _, d_logits = w.ctc_loss_and_gradient(lattice, target)
    grads, _ = w.network_backward(net, tape, d_logits)
    return net, loss_fn, grads.arrays()


def test_finite_difference_check_passes_and_restores_parameters():
    net, loss_fn, grads = fd_setup()
    params = net.params()
    before = [p.copy() for p in params]
    entries = checks.sample_entries([p.shape for p in params], 3, np.random.default_rng(0))
    assert len(entries) == 3 * len(params)
    assert checks.check_finite_differences(loss_fn, params, grads, entries) == []
    for p, q in zip(params, before):
        np.testing.assert_array_equal(p, q)


def test_finite_difference_check_rejects_perturbed_gradient():
    net, loss_fn, grads = fd_setup()
    params = net.params()
    k, flat = 2, 5
    bad = [g.copy() for g in grads]
    bad[k].reshape(-1)[flat] += 1e-3
    problems = checks.check_finite_differences(loss_fn, params, bad, [(k, flat), (0, 0)])
    assert len(problems) == 1 and "param 2 entry 5" in problems[0]


def test_loss_falls():
    assert checks.check_loss_falls(22.1, 3.5) == []
    assert checks.check_loss_falls(3.5, 3.5)
    assert checks.check_loss_falls(3.5, 22.1)
    assert checks.check_loss_falls(3.5, math.nan)


def test_parse_trainlog():
    record = w.EpochRecord(1, 1, 0.05, 10.0, 2.0, 90.0, 0)
    assert checks.parse_trainlog(w.format_train_log([record]), 1) == (0, [])
    skipped = w.EpochRecord(1, 1, 0.05, 10.0, 2.0, 90.0, 3)
    assert checks.parse_trainlog(w.format_train_log([skipped]), 1) == (3, [])
    assert checks.parse_trainlog(w.format_train_log([record, record]), 1)[1]
    broken = w.EpochRecord(1, 1, 0.05, math.inf, 2.0, 90.0, 0)
    assert checks.parse_trainlog(w.format_train_log([broken]), 1)[1]


# -- evaluation checks -------------------------------------------------------------


def test_hypothesis_coverage():
    rows = [("a", ("x",)), ("b", ())]
    assert checks.check_hypotheses(["a", "b"], rows) == []
    assert checks.check_hypotheses(["a", "b", "c"], rows)
    assert checks.check_hypotheses(["a", "b"], rows + [("a", ("y",))])
    assert checks.check_hypotheses(["a"], rows)


def test_decode_check():
    rng = np.random.default_rng(7)
    lattice = random_lattice(rng, 15, 3)
    labels = ("a", "b", "c")
    hyp = checks.argmax_collapse(lattice, labels)
    assert checks.check_decode_against_reference([("u", lattice, labels, hyp)]) == []
    assert checks.check_decode_against_reference([("u", lattice, labels, hyp + ("a",))])
    # a near-tie makes the frame's argmax a matter of rounding
    tied = lattice.copy()
    tied[0, :] = np.log(np.full(4, 0.25))
    assert checks.is_ambiguous(tied) and not checks.is_ambiguous(lattice)


def score_fixture(tmp_path):
    from wordctc.cli import main

    refs = {"u1": ("a", "b", "c"), "u2": ("a", "a"), "u3": ("c",)}
    hyps = {"u1": ("a", "c"), "u2": ("b", "a", "a"), "u3": ("c",)}
    (tmp_path / "ref.tsv").write_text("".join("%s\t%s\n" % (k, " ".join(v)) for k, v in refs.items()))
    (tmp_path / "hyp.tsv").write_text("".join("%s\t%s\n" % (k, " ".join(v)) for k, v in hyps.items()))
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["score", "--ref", str(tmp_path / "ref.tsv"), "--hyp", str(tmp_path / "hyp.tsv"),
                     "--out-dir", str(tmp_path / "sc")]) == 0
    return refs, hyps, (tmp_path / "sc" / "report.tsv").read_text(), buf.getvalue()


def test_score_check_passes_on_the_library(tmp_path):
    refs, hyps, report, stdout = score_fixture(tmp_path)
    assert checks.check_score(refs, hyps, report, stdout) == []


def test_score_check_rejects_perturbations(tmp_path):
    refs, hyps, report, stdout = score_fixture(tmp_path)
    lines = report.splitlines()
    fields = lines[1].split("\t")
    fields[1] = str(int(fields[1]) + 1)
    bumped = "\n".join([lines[0], "\t".join(fields)] + lines[2:]) + "\n"
    assert checks.check_score(refs, hyps, bumped, stdout)
    dropped = "\n".join(lines[:1] + lines[2:]) + "\n"
    assert checks.check_score(refs, hyps, dropped, stdout)
    assert checks.check_score(refs, hyps, report, stdout.replace("WER% ", "WER% 1"))
    # a missing hypothesis is a full deletion; a report that skips it is wrong
    assert checks.check_score(refs, {"u1": hyps["u1"]}, report, stdout)
    silent = {k: () for k in refs}
    assert any("emits no words" in p for p in checks.check_score(
        refs, silent, "id\n" + "".join("%s\t0\t%d\t0\t%d\tx\n" % (k, len(v), len(v)) for k, v in refs.items())
        + "ALL\t0\t6\t0\t6\tx\n", "WER% 100.0000 over 6 reference words"))


def analysis_fixture():
    corpus = w.generate_synthetic(w.SynthConfig(seed=3, vocab_size=12, n_train=30))
    vocab = w.Vocabulary(tuple(sorted(corpus.lexicon.words)))
    net = w.Network.random(8, [6], vocab, "word-ctc", seed=2)
    net.w_out[3] = net.w_out[7]  # a duplicate row: margin exactly 0
    transcripts = [u.transcript for u in corpus.train]
    table = frequency_margin_table(embedding_matrix(net), transcripts)
    rows = [[wd, str(int(c)), repr(float(m))] for wd, c, m in zip(table.words, table.counts, table.margins)]
    return net, transcripts, rows, table


def test_margin_check_matches_library_and_rejects_perturbations():
    net, transcripts, rows, _ = analysis_fixture()
    labels = net.vocab.labels
    assert checks.check_margins(net.w_out, labels, transcripts, rows) == []
    bad = [list(r) for r in rows]
    bad[5][2] = repr(float(bad[5][2]) * (1 + 1e-9))
    assert checks.check_margins(net.w_out, labels, transcripts, bad)
    bad = [list(r) for r in rows]
    bad[2][1] = str(int(bad[2][1]) + 1)
    assert checks.check_margins(net.w_out, labels, transcripts, bad)
    assert checks.check_margins(net.w_out, labels, transcripts, rows[::-1])


def test_margin_reference_is_brute_force_nearest_row():
    net, transcripts, rows, _ = analysis_fixture()
    vecs = net.w_out
    for k, row in enumerate(rows):
        nearest = min(math.dist(vecs[k], vecs[j]) for j in range(len(vecs)) if j != k)
        assert abs(float(row[2]) - nearest) <= 1e-12 * max(nearest, 1.0)
    assert Counter(w_ for t in transcripts for w_ in t)[rows[0][0]] == int(rows[0][1])


def test_spearman_check():
    _, _, rows, table = analysis_fixture()
    assert checks.check_spearman(rows, repr(table.rank_correlation)) == []
    assert checks.check_spearman(rows, repr(table.rank_correlation + 1e-6))
    assert checks.check_spearman(rows, "undefined")
    flat = [[r[0], "3", r[2]] for r in rows]
    assert checks.check_spearman(flat, "undefined") == []
    assert checks.check_spearman(flat, "0.5")


def overlap_fixture():
    hist = "bin_lo\tbin_hi\tclose\tfar\n0.0\t0.5\t4\t5\n0.5\t1.0\t2\t1\n"
    summary = {"close_overlap_mean": "0.4", "far_overlap_mean": "0.3",
               "overlap_permutation_pvalue": "0.2"}
    return checks.parse_tsv(hist), summary


def test_overlap_check():
    rows, summary = overlap_fixture()
    assert checks.check_overlap_and_pvalue(rows, summary, n_words=2) == []
    assert checks.check_overlap_and_pvalue(rows, summary, n_words=3)
    wide = [list(r) for r in rows]
    wide[-1][1] = "1.25"
    assert checks.check_overlap_and_pvalue(wide, summary, n_words=2)
    for key, value in (("overlap_permutation_pvalue", "0.0"), ("overlap_permutation_pvalue", "1.5"),
                       ("close_overlap_mean", "-0.1"), ("far_overlap_mean", "1.01")):
        assert checks.check_overlap_and_pvalue(rows, dict(summary, **{key: value}), n_words=2)


@pytest.mark.parametrize("n_words", [51, 64])
def test_overlap_check_on_the_library(n_words):
    from wordctc.analysis import histogram_tsv, overlap_histograms, permutation_pvalue

    corpus = w.generate_synthetic(w.SynthConfig(seed=1, vocab_size=n_words, n_train=5))
    vocab = w.Vocabulary(tuple(sorted(corpus.lexicon.words)))
    net = w.Network.random(8, [6], vocab, "word-ctc", seed=2)
    hist = overlap_histograms(embedding_matrix(net), corpus.lexicon)
    text = histogram_tsv(hist.bin_edges, hist.close_counts, hist.far_counts, names=("close", "far"))
    summary = {"close_overlap_mean": hist.close_mean, "far_overlap_mean": hist.far_mean,
               "overlap_permutation_pvalue": permutation_pvalue(hist.close_values, hist.far_values)}
    assert checks.check_overlap_and_pvalue(checks.parse_tsv(text), summary, n_words) == []
