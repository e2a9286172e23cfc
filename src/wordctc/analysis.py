"""Embedding-space diagnostics over the softmax weight rows.

All of these read the output weight matrix only (one row per label, the
reserved blank row last; the softmax bias is deliberately excluded) and
report neighbor structure: who sits close to whom in L2 distance, how far
the blank sits from everything, how pronunciation overlap relates to
proximity, and how a word's training-set frequency relates to its margin.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy import stats as scipy_stats

CLOSE_RANKS = (1, 3)  # overlap_histograms' close neighbor band
FAR_RANKS = (48, 50)  # overlap_histograms' far neighbor band
BLANK_TOP = 25  # blank_distance_report's nearest-neighbor count
N_BINS = 20  # histogram bins of both reports


@dataclass(frozen=True)
class EmbeddingMatrix:
    vectors: np.ndarray
    vocab: object

    def __post_init__(self):
        object.__setattr__(self, "vectors", np.asarray(self.vectors, dtype=np.float64))
        if self.vectors.ndim != 2 or self.vectors.shape[0] != self.vocab.size:
            raise ValueError(
                "need one row per label (%d), got %r" % (self.vocab.size, self.vectors.shape)
            )


def embedding_matrix(net):
    """Softmax weight rows of a network as an EmbeddingMatrix."""
    return EmbeddingMatrix(net.w_out.copy(), net.vocab)


@dataclass(frozen=True)
class NeighborList:
    ids: tuple
    distances: tuple


def _ranked(vectors, row):
    """The other rows' ids by L2 distance from `row`, nearest first, and
    those distances; the sort is stable, so ties go to the lower row."""
    ids = np.delete(np.arange(len(vectors)), row)
    dist = np.linalg.norm(vectors[ids] - vectors[row], axis=1)
    order = np.argsort(dist, kind="stable")
    return ids[order], dist[order]


def neighbors(emb, word, k):
    """The k nearest rows by L2 distance, the query row excluded.

    Ties are broken toward the lower label id.  `word` may be a label
    string or a row id.
    """
    row = word if isinstance(word, (int, np.integer)) else emb.vocab.id_of(word)
    n = emb.vectors.shape[0]
    if not 0 <= row < n:
        raise ValueError("row id %d out of range" % row)
    if not 1 <= k <= n - 1:
        raise ValueError("k must be in [1, %d], got %d" % (n - 1, k))
    ids, dist = _ranked(emb.vectors, row)
    return NeighborList(tuple(int(i) for i in ids[:k]), tuple(float(d) for d in dist[:k]))


def margin(emb, word):
    """Distance from a word's row to its first nearest neighbor."""
    return neighbors(emb, word, 1).distances[0]


def pronunciation_overlap(word_a, word_b, lexicon):
    """Shared phoneme tokens over the shorter pronunciation's length.

    "Shared" counts multiset intersection, so a repeated phoneme has to be
    repeated in both words to count twice.  Always in [0, 1] and symmetric.
    """
    pron_a = Counter(lexicon.pronunciation(word_a))
    pron_b = Counter(lexicon.pronunciation(word_b))
    shared = sum((pron_a & pron_b).values())
    return shared / min(sum(pron_a.values()), sum(pron_b.values()))


@dataclass(frozen=True)
class OverlapHistograms:
    close_values: np.ndarray
    far_values: np.ndarray
    bin_edges: np.ndarray
    close_counts: np.ndarray
    far_counts: np.ndarray

    @property
    def close_mean(self):
        return float(self.close_values.mean())

    @property
    def far_mean(self):
        return float(self.far_values.mean())


def overlap_histograms(emb, lexicon):
    """Pronunciation overlap of every word against its close and far neighbors.

    Only rows with a pronunciation participate (the blank row never does),
    both as queries and as neighbor candidates.  Ranks are 1-based and
    inclusive: neighbors CLOSE_RANKS (1-3) against neighbors FAR_RANKS (48-50).
    """
    words = [w for w in emb.vocab.labels if w in lexicon]
    needed = FAR_RANKS[1] + 1
    if len(words) < needed:
        raise ValueError("need at least %d words with pronunciations, have %d" % (needed, len(words)))
    sub = emb.vectors[[emb.vocab.id_of(w) for w in words]]
    close_values = []
    far_values = []
    for qi, w in enumerate(words):
        ranked, _ = _ranked(sub, qi)
        for r in range(CLOSE_RANKS[0] - 1, CLOSE_RANKS[1]):
            close_values.append(pronunciation_overlap(w, words[int(ranked[r])], lexicon))
        for r in range(FAR_RANKS[0] - 1, FAR_RANKS[1]):
            far_values.append(pronunciation_overlap(w, words[int(ranked[r])], lexicon))
    edges = np.linspace(0.0, 1.0, N_BINS + 1)
    close_values = np.asarray(close_values)
    far_values = np.asarray(far_values)
    return OverlapHistograms(
        close_values,
        far_values,
        edges,
        np.histogram(close_values, bins=edges)[0],
        np.histogram(far_values, bins=edges)[0],
    )


def permutation_pvalue(a, b, n_rounds=2000, seed=0):
    """One-sided permutation p-value for mean(a) > mean(b)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    observed = a.mean() - b.mean()
    pooled = np.concatenate([a, b])
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(n_rounds):
        perm = rng.permutation(pooled)
        if perm[: len(a)].mean() - perm[len(a) :].mean() >= observed:
            hits += 1
    return (hits + 1) / (n_rounds + 1)


@dataclass(frozen=True)
class BlankDistanceReport:
    pooled_distances: np.ndarray
    per_word_means: np.ndarray
    blank_mean: float
    word_word_median: float
    bin_edges: np.ndarray
    counts: np.ndarray


def blank_distance_report(emb):
    """Word-to-word neighbor distances pooled, next to the blank's mean.

    For every word: distances to its BLANK_TOP nearest words (the blank row
    is not a candidate).  The blank's mean distance to its own BLANK_TOP
    nearest words is reported against the pooled histogram; per-word mean
    distances are included as well.
    """
    n_words = len(emb.vocab.labels)
    if n_words < BLANK_TOP + 1:
        raise ValueError("need at least %d words, have %d" % (BLANK_TOP + 1, n_words))
    nearest = [_ranked(emb.vectors[:n_words], i)[1][:BLANK_TOP] for i in range(n_words)]
    pooled = np.concatenate(nearest)
    per_word = [dist.mean() for dist in nearest]
    blank_mean = float(_ranked(emb.vectors, n_words)[1][:BLANK_TOP].mean())
    hi = max(float(pooled.max()), blank_mean)
    edges = np.linspace(0.0, hi if hi > 0 else 1.0, N_BINS + 1)
    return BlankDistanceReport(
        pooled,
        np.asarray(per_word),
        blank_mean,
        float(np.median(pooled)),
        edges,
        np.histogram(pooled, bins=edges)[0],
    )


@dataclass(frozen=True)
class FrequencyMarginTable:
    words: tuple
    counts: np.ndarray
    margins: np.ndarray
    rank_correlation: object  # float, or None when either column is constant


def frequency_margin_table(emb, transcripts):
    """Per-word training-set count next to its margin, with their Spearman
    rank correlation.  The correlation is None (flagged undefined) when all
    counts or all margins are equal."""
    counter = Counter(w for transcript in transcripts for w in transcript)
    words = emb.vocab.labels
    counts = np.array([counter.get(w, 0) for w in words], dtype=np.float64)
    margins = np.array([margin(emb, w) for w in words])
    if np.unique(counts).size < 2 or np.unique(margins).size < 2:
        corr = None
    else:
        corr = float(scipy_stats.spearmanr(counts, margins).statistic)
    return FrequencyMarginTable(tuple(words), counts, margins, corr)


# ---------------------------------------------------------------------------
# delimited-text rendering (one-line header, suitable for external plotting)


def histogram_tsv(edges, *count_columns, names=("count",)):
    rows = ((float(lo), float(hi), *(int(col[i]) for col in count_columns))
            for i, (lo, hi) in enumerate(zip(edges, edges[1:])))
    return table_tsv(("bin_lo", "bin_hi", *names), rows)


def table_tsv(header_fields, rows):
    lines = ["\t".join(header_fields)]
    for row in rows:
        lines.append("\t".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"
