import numpy as np
import pytest

from wordctc.analysis import (
    EmbeddingMatrix,
    blank_distance_report,
    embedding_matrix,
    frequency_margin_table,
    histogram_tsv,
    margin,
    neighbors,
    overlap_histograms,
    permutation_pvalue,
    pronunciation_overlap,
    table_tsv,
)
from wordctc.ctc import Vocabulary
from wordctc.data import Lexicon


def make_embedding(vectors, labels=None, reserved="<blk>"):
    vectors = np.asarray(vectors, dtype=float)
    n = vectors.shape[0]
    if labels is None:
        labels = tuple("w%02d" % i for i in range(n - 1))
    return EmbeddingMatrix(vectors, Vocabulary(labels, reserved=reserved))


class TestNeighbors:
    def test_hand_geometry(self):
        emb = make_embedding([[0, 0], [1, 0], [5, 0]], labels=("a", "b"))
        out = neighbors(emb, "a", 2)
        assert out.ids == (1, 2)
        assert out.distances == (1.0, 5.0)

    def test_duplicate_row_first(self):
        emb = make_embedding([[2, 2], [9, 9], [2, 2]], labels=("a", "b"))
        out = neighbors(emb, "a", 2)
        assert out.ids[0] == 2
        assert out.distances[0] == 0.0

    def test_tie_broken_by_id(self):
        emb = make_embedding([[0, 0], [1, 0], [-1, 0], [0, 1]], labels=("a", "b", "c"))
        out = neighbors(emb, "a", 3)
        assert out.ids == (1, 2, 3)

    def test_unknown_word(self):
        emb = make_embedding(np.eye(3), labels=("a", "b"))
        with pytest.raises(KeyError):
            neighbors(emb, "zzz", 1)

    def test_k_bounds(self):
        emb = make_embedding(np.eye(3), labels=("a", "b"))
        with pytest.raises(ValueError):
            neighbors(emb, "a", 3)

    def test_agrees_with_quadratic_scan(self):
        rng = np.random.default_rng(0)
        vectors = rng.normal(size=(60, 8))
        emb = make_embedding(vectors)
        for query in (0, 17, 59):
            got = neighbors(emb, query, 10)
            dist = np.linalg.norm(vectors - vectors[query], axis=1)
            scan = sorted(
                ((float(dist[j]), j) for j in range(60) if j != query)
            )[:10]
            assert got.distances == tuple(d for d, _ in scan)
            assert got.ids == tuple(j for _, j in scan)

    def test_scan_agreement_at_scale(self):
        # every query on a 1000 x 64 matrix
        rng = np.random.default_rng(12)
        vectors = rng.normal(size=(1000, 64))
        emb = make_embedding(vectors, labels=tuple("w%04d" % i for i in range(999)))
        for query in range(1000):
            got = neighbors(emb, query, 3)
            dist = np.linalg.norm(vectors - vectors[query], axis=1)
            dist[query] = np.inf
            best = np.argsort(dist, kind="stable")[:3]
            assert got.ids == tuple(int(i) for i in best)
            assert got.distances == tuple(float(dist[i]) for i in best)


class TestMargin:
    def test_hand_geometry(self):
        emb = make_embedding([[0, 0], [1, 0], [5, 0]], labels=("a", "b"))
        assert margin(emb, "a") == 1.0

    def test_duplicate_row_gives_zero(self):
        emb = make_embedding([[3, 3], [3, 3], [9, 9]], labels=("a", "b"))
        assert margin(emb, "a") == 0.0

    def test_equals_first_neighbor(self):
        rng = np.random.default_rng(1)
        emb = make_embedding(rng.normal(size=(20, 4)))
        for w in emb.vocab.labels:
            assert margin(emb, w) == neighbors(emb, w, 1).distances[0]

    def test_positive_when_rows_distinct(self):
        rng = np.random.default_rng(2)
        emb = make_embedding(rng.normal(size=(15, 6)))
        assert all(margin(emb, w) > 0 for w in emb.vocab.labels)


class TestPronunciationOverlap:
    LEX = Lexicon(
        {
            "CAT": ("K", "AE", "T"),
            "BAT": ("B", "AE", "T"),
            "KITTEN": ("K", "IH", "T", "AH", "N"),
            "ZOO": ("Z", "UW"),
            "TATTOO": ("T", "AE", "T", "UW"),
        }
    )

    def test_two_of_three(self):
        assert pronunciation_overlap("CAT", "BAT", self.LEX) == pytest.approx(2 / 3)

    def test_identical_word(self):
        assert pronunciation_overlap("CAT", "CAT", self.LEX) == 1.0

    def test_disjoint(self):
        assert pronunciation_overlap("CAT", "ZOO", self.LEX) == 0.0

    def test_multiset_counting(self):
        # TATTOO has two T's; CAT only one, so only one T is shared
        assert pronunciation_overlap("CAT", "TATTOO", self.LEX) == pytest.approx(2 / 3)

    def test_symmetric_and_bounded(self):
        words = list(self.LEX.words)
        for a in words:
            for b in words:
                o = pronunciation_overlap(a, b, self.LEX)
                assert 0.0 <= o <= 1.0
                assert o == pronunciation_overlap(b, a, self.LEX)


def big_lexicon(n, rng):
    phones = ["p%02d" % i for i in range(10)]
    entries = {}
    while len(entries) < n:
        w = "w%03d" % len(entries)
        entries[w] = tuple(rng.choice(phones, size=int(rng.integers(2, 5))))
    return Lexicon(entries)


class TestOverlapHistograms:
    def test_identical_pronunciations_pile_at_one(self):
        rng = np.random.default_rng(3)
        words = tuple("w%03d" % i for i in range(60))
        lex = Lexicon({w: ("A", "B") for w in words})
        emb = make_embedding(rng.normal(size=(61, 5)), labels=words)
        hist = overlap_histograms(emb, lex)
        assert hist.close_mean == 1.0 and hist.far_mean == 1.0
        assert hist.close_counts[-1] == hist.close_values.size

    def test_random_embeddings_show_no_separation(self):
        rng = np.random.default_rng(4)
        lex = big_lexicon(60, rng)
        emb = make_embedding(rng.normal(size=(61, 8)), labels=lex.words)
        hist = overlap_histograms(emb, lex)
        p = permutation_pvalue(hist.close_values, hist.far_values, n_rounds=500, seed=0)
        assert p > 0.01

    def test_too_small_vocabulary(self):
        rng = np.random.default_rng(5)
        lex = big_lexicon(30, rng)
        emb = make_embedding(rng.normal(size=(31, 4)), labels=lex.words)
        with pytest.raises(ValueError):
            overlap_histograms(emb, lex)

    def test_histogram_counts_match_values(self):
        rng = np.random.default_rng(6)
        lex = big_lexicon(55, rng)
        emb = make_embedding(rng.normal(size=(56, 4)), labels=lex.words)
        hist = overlap_histograms(emb, lex)
        assert hist.close_counts.sum() == hist.close_values.size == 55 * 3
        assert hist.far_counts.sum() == hist.far_values.size == 55 * 3


class TestPermutationPvalue:
    def test_clear_separation(self):
        a = np.full(50, 1.0)
        b = np.full(50, 0.0)
        assert permutation_pvalue(a, b, n_rounds=500, seed=1) < 0.01

    def test_no_separation(self):
        rng = np.random.default_rng(7)
        pool = rng.normal(size=100)
        assert permutation_pvalue(pool[:50], pool[50:], n_rounds=500, seed=1) > 0.01


class TestBlankDistanceReport:
    def test_far_blank_exceeds_percentiles(self):
        rng = np.random.default_rng(8)
        words = rng.normal(size=(30, 4))
        blank = np.full(4, 100.0)
        emb = make_embedding(np.vstack([words, blank]))
        rep = blank_distance_report(emb)
        assert rep.blank_mean > np.percentile(rep.pooled_distances, 99)
        assert rep.blank_mean > rep.word_word_median

    def test_identical_rows_zero(self):
        emb = make_embedding(np.ones((30, 3)))
        rep = blank_distance_report(emb)
        assert rep.blank_mean == 0.0
        assert np.all(rep.pooled_distances == 0.0)

    def test_pool_size(self):
        rng = np.random.default_rng(9)
        emb = make_embedding(rng.normal(size=(40, 4)))
        rep = blank_distance_report(emb)
        assert rep.pooled_distances.size == 39 * 25
        assert rep.per_word_means.size == 39

    def test_too_small(self):
        emb = make_embedding(np.eye(10))
        with pytest.raises(ValueError):
            blank_distance_report(emb)


class TestFrequencyMarginTable:
    def test_uniform_counts_flagged(self):
        rng = np.random.default_rng(10)
        emb = make_embedding(rng.normal(size=(6, 3)))
        transcripts = [emb.vocab.labels]  # every word exactly once
        table = frequency_margin_table(emb, transcripts)
        assert table.rank_correlation is None

    def test_perfect_rank_correlation(self):
        # margins grow along the line: a/b tie at 10, then 20, then 40;
        # counts tie in exactly the same places
        vectors = np.array([[0.0, 0], [10.0, 0], [30.0, 0], [70.0, 0], [1000.0, 1000.0]])
        emb = make_embedding(vectors, labels=("a", "b", "c", "d"))
        assert [margin(emb, w) for w in ("a", "b", "c", "d")] == [10, 10, 20, 40]
        transcripts = [("a",), ("b",), ("c", "c"), ("d", "d", "d")]
        table = frequency_margin_table(emb, transcripts)
        assert table.rank_correlation == pytest.approx(1.0)

    def test_counts_and_words_align(self):
        rng = np.random.default_rng(11)
        emb = make_embedding(rng.normal(size=(4, 3)), labels=("x", "y", "z"))
        table = frequency_margin_table(emb, [("x", "x", "z")])
        assert table.words == ("x", "y", "z")
        assert table.counts.tolist() == [2.0, 0.0, 1.0]


class TestEmbeddingMatrix:
    def test_from_network(self):
        from wordctc.network import Network

        vocab = Vocabulary(("a", "b"))
        net = Network.random(3, [4], vocab, "word-ctc", seed=0)
        emb = embedding_matrix(net)
        np.testing.assert_array_equal(emb.vectors, net.w_out)
        emb.vectors[0, 0] += 1.0  # a copy, not a view
        assert emb.vectors[0, 0] != net.w_out[0, 0]

    def test_row_count_checked(self):
        with pytest.raises(ValueError):
            EmbeddingMatrix(np.zeros((3, 2)), Vocabulary(("a", "b", "c")))


class TestRendering:
    def test_histogram_tsv(self):
        text = histogram_tsv(np.array([0.0, 0.5, 1.0]), np.array([3, 4]), names=("count",))
        lines = text.strip().split("\n")
        assert lines[0] == "bin_lo\tbin_hi\tcount"
        assert lines[1].endswith("\t3")
        assert len(lines) == 3

    def test_table_tsv(self):
        text = table_tsv(("word", "margin"), [("a", 0.5)])
        assert text == "word\tmargin\na\t0.5\n"
