"""Dataset types, on-disk formats, and the synthetic corpus generator.

Every table written, these files and the reports alike, is UTF-8 `table_tsv`
text: a line a row, fields tab-separated, a float as its repr, any header as
the first row.  File formats (integers little-endian):

  *.feat       binary features: magic "FEAT", u32 version, u32 T, u32 d,
               then T*d float32 values row-major.
  corpus.tsv   one utterance per line: id, feature path (relative to the
               manifest), space-separated transcript.
  lexicon.tsv  one word per line: word, space-separated phonemes; a word
               is one token, neither the CTC blank nor SIL, and no
               phoneme is the blank.
  align.tsv    one utterance per line: id, space-separated per-frame word
               labels (SIL marks silence).

Blank lines in these files (and in id<TAB>text transcript files) are
skipped; a byte that is not UTF-8, a wrong field count or a repeated id is a
ManifestError naming the file and line.  A word listed twice in a lexicon
keeps its first pronunciation.  `subset` draws the seeded share of a split
that `train --data-fraction` trains on.

The generator builds every utterance from per-phoneme prototype vectors,
each repeated for a duration drawn from a truncated normal, plus Gaussian
noise.  All randomness comes from a single numpy PCG64 stream
(numpy.random.default_rng) seeded from the config, so equal configs give
bit-identical corpora on any platform.
"""

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from .ctc import BLANK, collapse

SIL = "SIL"

FEAT_MAGIC = b"FEAT"
FEAT_VERSION = 1
_FEAT_HEADER = struct.Struct("<4sIII")


class DataFormatError(ValueError):
    """Malformed on-disk data; the message names the file and position."""


class FeatureFileError(DataFormatError):
    """Bad magic, version, trailing bytes or non-finite values in a feature file."""


class TruncatedFileError(DataFormatError):
    """Feature payload shorter than its header promises."""


class ManifestError(DataFormatError):
    """Bad record in a manifest, lexicon, or alignment file."""


class UnknownWordError(DataFormatError):
    """Transcript word missing from the vocabulary or lexicon."""


@dataclass
class Utterance:
    utt_id: str
    features: np.ndarray
    transcript: tuple
    alignment: tuple = None

    @property
    def n_frames(self):
        return self.features.shape[0]


@dataclass(frozen=True)
class Lexicon:
    """Word -> canonical pronunciation, plus the phoneme inventory."""

    entries: dict

    def __post_init__(self):
        for word, pron in self.entries.items():
            if not pron:
                raise ValueError("empty pronunciation for %r" % word)

    @property
    def words(self):
        return tuple(self.entries)

    @property
    def inventory(self):
        """Sorted distinct phonemes appearing in the pronunciations."""
        seen = set()
        for pron in self.entries.values():
            seen.update(pron)
        return tuple(sorted(seen))

    def __contains__(self, word):
        return word in self.entries

    def pronunciation(self, word):
        try:
            return self.entries[word]
        except KeyError:
            raise UnknownWordError("no pronunciation for %r" % (word,)) from None


# ---------------------------------------------------------------------------
# feature files


def save_features(path, features):
    arr = np.ascontiguousarray(features, dtype="<f4")
    if arr.ndim != 2:
        raise ValueError("features must be a (T, d) matrix")
    with open(path, "wb") as fh:
        fh.write(_FEAT_HEADER.pack(FEAT_MAGIC, FEAT_VERSION, arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes())


def load_features(path):
    data = Path(path).read_bytes()
    if len(data) < _FEAT_HEADER.size:
        raise FeatureFileError("%s: header truncated at byte %d" % (path, len(data)))
    magic, version, n_frames, dim = _FEAT_HEADER.unpack_from(data)
    if magic != FEAT_MAGIC:
        raise FeatureFileError("%s: bad magic %r" % (path, magic))
    if version != FEAT_VERSION:
        raise FeatureFileError("%s: unsupported feature version %d" % (path, version))
    if dim == 0:
        raise FeatureFileError("%s: feature dimension is 0" % path)
    expected = _FEAT_HEADER.size + 4 * n_frames * dim
    if len(data) < expected:
        raise TruncatedFileError(
            "%s: payload ends at byte %d, header promises %d bytes" % (path, len(data), expected)
        )
    if len(data) > expected:
        raise FeatureFileError("%s: %d trailing bytes" % (path, len(data) - expected))
    feats = np.frombuffer(data, dtype="<f4", count=n_frames * dim, offset=_FEAT_HEADER.size)
    feats = feats.reshape(n_frames, dim)
    finite = np.isfinite(feats)
    if not finite.all():
        frame = int(np.argmin(finite.all(axis=1)))
        raise FeatureFileError("%s: non-finite value in frame %d" % (path, frame))
    return feats.copy()


# ---------------------------------------------------------------------------
# tab-separated record files


def read_lines(path):
    """(line number, text) for each line of a UTF-8 file; a byte that does
    not decode is a ManifestError naming the file and its line."""
    # surrogateescape turns each byte b that does not decode into U+DC00 + b
    text = Path(path).read_bytes().decode("utf-8", "surrogateescape")
    # only "\n" ends a line, so a line's number counts the newlines before it
    for lineno, line in enumerate(text.split("\n"), 1):
        try:
            line.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ManifestError("%s line %d: byte 0x%02x is not UTF-8"
                                % (path, lineno, ord(line[exc.start]) - 0xDC00)) from None
        yield lineno, line


def _records(path, counts):
    """(line number, fields) for each nonblank line of a tab-separated file.

    A line whose field count is not in `counts` is a ManifestError.
    """
    for lineno, raw in read_lines(path):
        if not raw.strip():
            continue
        fields = raw.split("\t")
        if len(fields) not in counts:
            raise ManifestError("%s line %d: expected %s tab-separated fields, found %d"
                                % (path, lineno, " or ".join(map(str, counts)), len(fields)))
        yield lineno, fields


def _keyed_records(path, counts):
    """_records of a file keyed by its first field, which must not repeat."""
    seen = set()
    for lineno, fields in _records(path, counts):
        if fields[0] in seen:
            raise ManifestError("%s line %d: duplicate id %r" % (path, lineno, fields[0]))
        seen.add(fields[0])
        yield lineno, fields


def load_transcripts(path):
    """id -> transcript from a corpus.tsv (3 columns) or an id<TAB>text file.

    Preserves file order; the text column may be empty.
    """
    return {fields[0]: tuple(fields[-1].split()) for _, fields in _keyed_records(path, (2, 3))}


def table_tsv(rows):
    """The rows as tab-separated lines, a float field as its repr and any
    other field as str; an empty table is one newline."""
    return "\n".join("\t".join(repr(v) if isinstance(v, float) else str(v) for v in row)
                     for row in rows) + "\n"


def save_transcripts(transcripts, path):
    """Write id -> token sequence as id<TAB>space-separated tokens lines,
    in the mapping's order."""
    Path(path).write_text(table_tsv((key, " ".join(tokens)) for key, tokens in transcripts.items()))


def save_lexicon(lexicon, path):
    save_transcripts(lexicon.entries, path)


def load_lexicon(path):
    """Read a lexicon; a word listed more than once keeps its first
    (canonical) pronunciation.  A word is one token, so that it reads back
    from a transcript, and neither it nor a phoneme is the CTC blank, nor
    the word SIL, which marks silence in alignments."""
    entries = {}
    for lineno, (word, phonemes) in _records(path, (2,)):
        pron = tuple(phonemes.split())
        if not pron:
            raise ManifestError("%s line %d: empty pronunciation for %r" % (path, lineno, word))
        if word.split() != [word]:
            raise ManifestError("%s line %d: word %r is empty or holds whitespace"
                                % (path, lineno, word))
        if word in (BLANK, SIL) or BLANK in pron:
            raise ManifestError("%s line %d: %r is a reserved symbol"
                                % (path, lineno, BLANK if BLANK in pron else word))
        entries.setdefault(word, pron)
    return Lexicon(entries)


def save_corpus(utterances, out_dir):
    """Write corpus.tsv, feats/*.feat, and align.tsv (when alignments exist)."""
    out = Path(out_dir)
    (out / "feats").mkdir(parents=True, exist_ok=True)
    manifest = []
    for u in utterances:
        rel = "feats/%s.feat" % u.utt_id
        save_features(out / rel, u.features)
        manifest.append((u.utt_id, rel, " ".join(u.transcript)))
    (out / "corpus.tsv").write_text(table_tsv(manifest))
    aligned = {u.utt_id: u.alignment for u in utterances if u.alignment is not None}
    if aligned:
        save_transcripts(aligned, out / "align.tsv")


def load_corpus(corpus_dir, known_words=None):
    """Read a corpus directory written by save_corpus; it must list at least
    one utterance.

    Every feature file must be readable, or the error names its corpus.tsv
    line, and have the same dimension.  When known_words is given, every
    transcript word must be in it.
    Alignments (when present) must have one label per frame and collapse to
    the transcript.
    """
    root = Path(corpus_dir)
    manifest = root / "corpus.tsv"
    if not manifest.exists():
        raise ManifestError("%s: no corpus.tsv" % root)
    align_path = root / "align.tsv"
    alignments = {}  # id -> (line number, labels)
    if align_path.exists():
        alignments = {utt_id: (lineno, tuple(labels.split()))
                      for lineno, (utt_id, labels) in _keyed_records(align_path, (2,))}
    utterances = []
    for lineno, (utt_id, rel, text) in _keyed_records(manifest, (3,)):
        transcript = tuple(text.split())
        if known_words is not None:
            for w in transcript:
                if w not in known_words:
                    raise UnknownWordError(
                        "%s line %d: unknown word %r" % (manifest, lineno, w)
                    )
        try:
            features = load_features(root / rel)
        except OSError as exc:
            raise ManifestError("%s line %d: cannot read %s: %s"
                                % (manifest, lineno, root / rel, exc.strerror)) from None
        if utterances and features.shape[1] != utterances[0].features.shape[1]:
            raise ManifestError(
                "%s: feature dimension %d does not match the corpus's %d"
                % (root / rel, features.shape[1], utterances[0].features.shape[1])
            )
        align_line, alignment = alignments.pop(utt_id, (None, None))
        if alignment is not None:
            if len(alignment) != features.shape[0]:
                raise ManifestError(
                    "%s line %d: alignment for %r has %d labels for %d frames"
                    % (align_path, align_line, utt_id, len(alignment), features.shape[0])
                )
            if collapse(alignment, SIL) != transcript:
                raise ManifestError(
                    "%s line %d: alignment for %r does not collapse to its transcript"
                    % (align_path, align_line, utt_id)
                )
        utterances.append(Utterance(utt_id, features, transcript, alignment))
    if not utterances:
        raise ManifestError("%s: lists no utterance" % manifest)
    if alignments:
        utt_id, (align_line, _) = next(iter(alignments.items()))
        raise ManifestError(
            "%s line %d: alignment for unknown utterance %r" % (align_path, align_line, utt_id)
        )
    return utterances


def subset(utterances, fraction, seed):
    """The seeded max(1, round(fraction * n)) of n utterances, in corpus order.

    fraction must lie in (0, 1]; at 1 every utterance is kept.
    """
    if not 0 < fraction <= 1:
        raise ValueError("data fraction must be in (0, 1]")
    k = max(1, round(fraction * len(utterances)))
    order = np.random.default_rng(seed).permutation(len(utterances))
    return [utterances[i] for i in np.sort(order[:k])]


# ---------------------------------------------------------------------------
# synthetic corpus generator


@dataclass
class SynthConfig:
    """Knobs for the self-contained toy corpus.

    Durations are in 10 ms frames; the defaults put a phoneme at
    8.16 +/- 4.67 frames (81.6 +/- 46.7 ms), which matches typical read
    speech.  zipf_exponent skews how often words occur (0 means uniform).
    """

    seed: int = 0
    vocab_size: int = 50
    n_phonemes: int = 12
    feature_dim: int = 8
    phoneme_duration_mean: float = 8.16
    phoneme_duration_std: float = 4.67
    min_pronunciation: int = 2
    max_pronunciation: int = 5
    noise_scale: float = 0.3
    min_words: int = 4
    max_words: int = 8
    n_train: int = 800
    n_dev: int = 40
    n_test: int = 40
    silence_prob: float = 0.3
    zipf_exponent: float = 1.0


@dataclass
class SynthCorpus:
    train: list
    dev: list
    test: list
    lexicon: Lexicon

    @property
    def splits(self):
        return {"train": self.train, "dev": self.dev, "test": self.test}


# fewest of _duration's draws a config may accept: each phoneme takes
# 1 / acceptance draws on average
MIN_DURATION_ACCEPTANCE = 0.01


def _check_config(cfg):
    for name, value in vars(cfg).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError("%s must be finite, got %r" % (name, value))
    if cfg.vocab_size < 1 or cfg.n_phonemes < 1 or cfg.feature_dim < 1:
        raise ValueError("vocabulary, phoneme inventory, and feature dim must be positive")
    if cfg.phoneme_duration_mean <= 0.5:
        # _duration's window, symmetric about the mean, holds no draw above half a frame
        raise ValueError("phoneme_duration_mean must exceed half a frame")
    if cfg.phoneme_duration_std < 0:
        raise ValueError("phoneme_duration_std must be nonnegative")
    if cfg.phoneme_duration_std > 0:
        # share of _duration's normal draws that land in its window
        accepted = 2 * ndtr((cfg.phoneme_duration_mean - 0.5) / cfg.phoneme_duration_std) - 1
        if accepted < MIN_DURATION_ACCEPTANCE:
            raise ValueError(
                "phoneme_duration_mean %r is too close to half a frame for phoneme_duration_std"
                " %r: only %.2g of duration draws would be accepted, under the floor of %g"
                % (cfg.phoneme_duration_mean, cfg.phoneme_duration_std, accepted,
                   MIN_DURATION_ACCEPTANCE))
    if not 1 <= cfg.min_pronunciation <= cfg.max_pronunciation:
        raise ValueError("bad pronunciation length range")
    if not 1 <= cfg.min_words <= cfg.max_words:
        raise ValueError("bad words-per-utterance range")
    if min(cfg.n_train, cfg.n_dev, cfg.n_test) < 1:
        raise ValueError("every split needs at least one utterance")
    if not 0 <= cfg.silence_prob <= 1:
        raise ValueError("silence_prob must be a probability")
    if cfg.noise_scale < 0:
        raise ValueError("noise_scale must be nonnegative")
    n_prons = 0
    for length in range(cfg.min_pronunciation, cfg.max_pronunciation + 1):
        n_prons += cfg.n_phonemes**length
        if n_prons >= cfg.vocab_size:
            break
    if n_prons < cfg.vocab_size:
        raise ValueError("not enough distinct pronunciations for the vocabulary")


def _duration(rng, mean, std):
    # symmetric rejection window keeps the sample mean at the configured
    # mean; truncating only from below would bias it upward.  Draws above
    # half a frame round to at least one frame.
    lo = 0.5
    hi = 2.0 * mean - 0.5
    while True:
        x = rng.normal(mean, std)
        if lo < x <= hi:
            return int(round(x))


def generate_synthetic(cfg):
    """Deterministic toy corpus with frame alignments and a lexicon.

    Each phoneme gets a fixed random prototype vector; a word's realization
    concatenates its phonemes' prototypes, each repeated for a drawn
    duration, and i.i.d. Gaussian noise is added on top.  Silence (an
    all-zero prototype) is inserted between words at silence_prob, always
    between repeats of the same word so alignments collapse exactly to the
    transcript, and optionally at the utterance edges.
    """
    _check_config(cfg)
    rng = np.random.default_rng(cfg.seed)
    width = max(2, len(str(cfg.n_phonemes - 1)))
    phonemes = ["p%0*d" % (width, i) for i in range(cfg.n_phonemes)]
    prototypes = rng.normal(0.0, 1.0, size=(cfg.n_phonemes, cfg.feature_dim))
    silence_proto = np.zeros(cfg.feature_dim)
    width = max(2, len(str(cfg.vocab_size - 1)))
    words = ["w%0*d" % (width, i) for i in range(cfg.vocab_size)]
    entries = {}
    seen = set()
    for w in words:
        while True:
            length = int(rng.integers(cfg.min_pronunciation, cfg.max_pronunciation + 1))
            pron = tuple(
                phonemes[int(i)] for i in rng.integers(0, cfg.n_phonemes, size=length)
            )
            if pron not in seen:
                break
        seen.add(pron)
        entries[w] = pron
    lexicon = Lexicon(entries)
    phoneme_row = {p: i for i, p in enumerate(phonemes)}

    weights = 1.0 / np.arange(1.0, cfg.vocab_size + 1.0) ** cfg.zipf_exponent
    weights /= weights.sum()

    def make_utterance(utt_id):
        n_words = int(rng.integers(cfg.min_words, cfg.max_words + 1))
        chosen = [words[int(i)] for i in rng.choice(cfg.vocab_size, size=n_words, p=weights)]
        blocks = []
        labels = []

        def silence():
            dur = _duration(rng, cfg.phoneme_duration_mean, cfg.phoneme_duration_std)
            blocks.append(np.tile(silence_proto, (dur, 1)))
            labels.extend([SIL] * dur)

        if rng.random() < cfg.silence_prob:
            silence()
        prev = None
        for w in chosen:
            if prev is not None and (w == prev or rng.random() < cfg.silence_prob):
                silence()
            for ph in lexicon.pronunciation(w):
                dur = _duration(rng, cfg.phoneme_duration_mean, cfg.phoneme_duration_std)
                blocks.append(np.tile(prototypes[phoneme_row[ph]], (dur, 1)))
                labels.extend([w] * dur)
            prev = w
        if rng.random() < cfg.silence_prob:
            silence()
        feats = np.concatenate(blocks)
        feats = feats + rng.normal(0.0, cfg.noise_scale, size=feats.shape)
        return Utterance(utt_id, feats.astype(np.float32), tuple(chosen), tuple(labels))

    splits = {}
    for split, count in (("train", cfg.n_train), ("dev", cfg.n_dev), ("test", cfg.n_test)):
        width = len(str(count - 1)) if count > 1 else 1
        splits[split] = [make_utterance("%s-%0*d" % (split, width, i)) for i in range(count)]
    return SynthCorpus(splits["train"], splits["dev"], splits["test"], lexicon)


def save_synth_corpus(corpus, out_dir):
    """Write lexicon.tsv plus one corpus directory per split."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_lexicon(corpus.lexicon, out / "lexicon.tsv")
    for split, utts in corpus.splits.items():
        save_corpus(utts, out / split)
