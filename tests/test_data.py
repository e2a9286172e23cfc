import re

import numpy as np
import pytest

from wordctc.ctc import collapse
from wordctc.data import (
    SIL,
    FeatureFileError,
    Lexicon,
    ManifestError,
    SynthConfig,
    TruncatedFileError,
    UnknownWordError,
    Utterance,
    generate_synthetic,
    load_corpus,
    load_features,
    load_lexicon,
    load_transcripts,
    save_corpus,
    save_features,
    save_lexicon,
    save_synth_corpus,
    save_transcripts,
    subset,
)

SMALL = SynthConfig(seed=3, vocab_size=8, n_phonemes=6, feature_dim=4,
                    n_train=6, n_dev=2, n_test=2, min_words=2, max_words=4)


class TestLexicon:
    def test_round_trip(self, tmp_path):
        lex = Lexicon({"CAT": ("K", "AE", "T"), "AT": ("AE", "T")})
        save_lexicon(lex, tmp_path / "lexicon.tsv")
        loaded = load_lexicon(tmp_path / "lexicon.tsv")
        assert loaded == lex
        assert loaded.inventory == ("AE", "K", "T")

    def test_missing_word_named(self):
        lex = Lexicon({"CAT": ("K", "AE", "T")})
        with pytest.raises(UnknownWordError, match="DOG"):
            lex.pronunciation("DOG")

    def test_empty_pronunciation_rejected(self):
        with pytest.raises(ValueError):
            Lexicon({"X": ()})

    def test_duplicate_word_keeps_first_pronunciation(self, tmp_path):
        (tmp_path / "lex.tsv").write_text("A\tp1\nA\tp2 p3\n")
        lex = load_lexicon(tmp_path / "lex.tsv")
        assert lex.pronunciation("A") == ("p1",)

    def test_malformed_line_rejected(self, tmp_path):
        (tmp_path / "lex.tsv").write_text("A\tp1\njust-a-word\n")
        with pytest.raises(ManifestError, match="line 2"):
            load_lexicon(tmp_path / "lex.tsv")


class TestFeatureFiles:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(13, 5)).astype(np.float32)
        save_features(tmp_path / "x.feat", feats)
        loaded = load_features(tmp_path / "x.feat")
        assert loaded.tobytes() == feats.tobytes()
        assert loaded.dtype == np.float32

    def test_bad_magic(self, tmp_path):
        (tmp_path / "x.feat").write_bytes(b"XXXX" + b"\x00" * 12)
        with pytest.raises(FeatureFileError, match="magic"):
            load_features(tmp_path / "x.feat")

    def test_truncated_payload_reports_offset(self, tmp_path):
        feats = np.ones((4, 3), dtype=np.float32)
        save_features(tmp_path / "x.feat", feats)
        blob = (tmp_path / "x.feat").read_bytes()
        (tmp_path / "x.feat").write_bytes(blob[:30])
        with pytest.raises(TruncatedFileError, match="byte 30"):
            load_features(tmp_path / "x.feat")

    def test_zero_dimension_rejected(self, tmp_path):
        # T = 0 stays legal; d = 0 does not, whatever T is
        save_features(tmp_path / "x.feat", np.zeros((0, 3), dtype=np.float32))
        assert load_features(tmp_path / "x.feat").shape == (0, 3)
        for n_frames in (0, 7):
            save_features(tmp_path / "x.feat", np.zeros((n_frames, 0), dtype=np.float32))
            with pytest.raises(FeatureFileError, match="x.feat: feature dimension is 0"):
                load_features(tmp_path / "x.feat")

    def test_trailing_bytes_rejected(self, tmp_path):
        feats = np.ones((2, 2), dtype=np.float32)
        save_features(tmp_path / "x.feat", feats)
        with open(tmp_path / "x.feat", "ab") as fh:
            fh.write(b"junk")
        with pytest.raises(FeatureFileError, match="trailing"):
            load_features(tmp_path / "x.feat")


class TestCorpusIO:
    def test_round_trip(self, tmp_path):
        corpus = generate_synthetic(SMALL)
        save_corpus(corpus.train, tmp_path / "train")
        loaded = load_corpus(tmp_path / "train", known_words=set(corpus.lexicon.words))
        assert len(loaded) == len(corpus.train)
        for orig, back in zip(corpus.train, loaded):
            assert back.utt_id == orig.utt_id
            assert back.transcript == orig.transcript
            assert back.alignment == orig.alignment
            assert back.features.tobytes() == orig.features.tobytes()

    def test_unknown_word_named(self, tmp_path):
        utt = Utterance("u1", np.zeros((3, 2), dtype=np.float32), ("MYSTERY",))
        save_corpus([utt], tmp_path / "c")
        with pytest.raises(UnknownWordError, match="MYSTERY"):
            load_corpus(tmp_path / "c", known_words={"OTHER"})

    def test_alignment_length_checked(self, tmp_path):
        utt = Utterance("u1", np.zeros((3, 2), dtype=np.float32), ("A",), ("A", "A", "A"))
        save_corpus([utt], tmp_path / "c")
        align = tmp_path / "c" / "align.tsv"
        align.write_text("u1\tA A\n")
        with pytest.raises(ManifestError, match="2 labels for 3 frames"):
            load_corpus(tmp_path / "c")

    def test_alignment_collapse_checked(self, tmp_path):
        utt = Utterance("u1", np.zeros((3, 2), dtype=np.float32), ("A",), ("A", "A", "A"))
        save_corpus([utt], tmp_path / "c")
        (tmp_path / "c" / "align.tsv").write_text("u1\tA %s B\n" % SIL)
        with pytest.raises(ManifestError, match="collapse"):
            load_corpus(tmp_path / "c")

    def test_transcripts_reader(self, tmp_path):
        (tmp_path / "hyp.tsv").write_text("u1\ta b\nu2\t\n")
        out = load_transcripts(tmp_path / "hyp.tsv")
        assert out == {"u1": ("a", "b"), "u2": ()}
        save_transcripts(out, tmp_path / "again.tsv")
        assert (tmp_path / "again.tsv").read_text() == "u1\ta b\nu2\t\n"
        (tmp_path / "bad.tsv").write_text("u1\ta\tb\tc\td\n")
        with pytest.raises(ManifestError):
            load_transcripts(tmp_path / "bad.tsv")


# the UTF-8 bytes of every character but "\n" and "\r" that str.splitlines breaks at
LINE_BREAKS = [c.encode() for c in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"]


def _three_utterances(root):
    """A corpus of u0-u2, one word each with per-frame labels, a transcripts
    file hyp.tsv of the same ids, and a lexicon.tsv of their words."""
    utts = [Utterance("u%d" % i, np.zeros((2, 2), dtype=np.float32), ("w%d" % i,),
                      ("w%d" % i,) * 2) for i in range(3)]
    save_corpus(utts, root)
    save_transcripts({u.utt_id: u.transcript for u in utts}, root / "hyp.tsv")
    save_lexicon(Lexicon({"w%d" % i: ("p%d" % i,) for i in range(3)}), root / "lexicon.tsv")


@pytest.mark.parametrize("name, edits, line", [
    ("corpus.tsv", {2: b"u1\tfeats/u1.feat"}, 2),
    ("corpus.tsv", {3: b"u0\tfeats/u0.feat\tw0"}, 3),
    ("align.tsv", {2: b"u1"}, 2),
    ("align.tsv", {3: b"u0\tw0 w0"}, 3),
    ("align.tsv", {4: b"ghost\tw0 w0"}, 4),
    ("hyp.tsv", {2: b"u1\tfeats/u1.feat\tw1\textra"}, 2),
    ("hyp.tsv", {3: b"u0\tw0"}, 3),
    # two faults in one file: the first in file order is the one reported
    ("corpus.tsv", {2: b"u0\tfeats/u0.feat\tw0", 3: b"u2"}, 2),
    ("hyp.tsv", {2: b"u1", 3: b"u0\tw0"}, 2),
    ("hyp.tsv", {2: b"u1", 3: b"u2\t\xff"}, 2),
    # a byte that is not UTF-8
    ("corpus.tsv", {2: b"u1\tfeats/u1.feat\tw\xff1"}, 2),
    ("align.tsv", {3: b"u2\tw2 \xfe"}, 3),
    ("lexicon.tsv", {2: b"w1\tp\xff"}, 2),
    ("hyp.tsv", {3: b"u2\t\xc3"}, 3),
    # only "\n" ends a line: a line holding another line break character
    # that str.splitlines knows, or ending in "\r", is one line
    *[("hyp.tsv", {2: b"u1\tw1" + char + b"u9\tw9", 3: b"u2"}, 3) for char in LINE_BREAKS],
    ("hyp.tsv", {1: b"u0\tw0\r", 2: b"u1\tw1\r", 3: b"u1\tw1\r"}, 3),
    # a word must read back from a transcript as itself
    ("lexicon.tsv", {2: b"\tp1"}, 2),
    ("lexicon.tsv", {3: b"w 2\tp2"}, 3),
    # the CTC blank is no word or phoneme, and SIL, silence in align.tsv, no word
    ("lexicon.tsv", {2: b"<blk>\tp1"}, 2),
    ("lexicon.tsv", {3: b"w2\tp2 <blk>"}, 3),
    ("lexicon.tsv", {2: b"SIL\tp1"}, 2),
    # a feature file that cannot be read is blamed on its corpus.tsv line
    ("corpus.tsv", {2: b"u1\tfeats/gone.feat\tw1"}, 2),
    ("corpus.tsv", {3: b"u2\tfeats\tw2"}, 3),
], ids=["corpus-count", "corpus-duplicate", "align-count", "align-duplicate",
        "align-unknown-utterance", "transcripts-count", "transcripts-duplicate",
        "corpus-first-of-two", "transcripts-first-of-two", "count-before-bad-byte",
        "corpus-not-utf8", "align-not-utf8", "lexicon-not-utf8", "transcripts-not-utf8",
        *["after-%s" % char.decode().encode("unicode_escape").decode()[1:]
          for char in LINE_BREAKS], "crlf",
        "lexicon-empty-word", "lexicon-word-with-space", "lexicon-blank-word",
        "lexicon-blank-phoneme", "lexicon-sil-word", "corpus-missing-feat", "corpus-feat-is-dir"])
def test_malformed_record_names_file_and_line(tmp_path, name, edits, line):
    _three_utterances(tmp_path)
    path = tmp_path / name
    lines = path.read_bytes().splitlines()
    for lineno, text in edits.items():
        lines[lineno - 1:lineno] = [text]
    path.write_bytes(b"\n".join(lines) + b"\n")
    load, arg = {"hyp.tsv": (load_transcripts, path),
                 "lexicon.tsv": (load_lexicon, path)}.get(name, (load_corpus, tmp_path))
    with pytest.raises(ManifestError, match="%s line %d:" % (re.escape(str(path)), line)):
        load(arg)


def test_not_utf8_names_the_byte_after_other_line_breaks(tmp_path):
    # lines are numbered by the newlines before them, as for a file that decodes
    path = tmp_path / "hyp.tsv"
    path.write_bytes(b"u0\ta\r\nu1\tb\rc\x1cd\nu2\tc\xff\n")
    with pytest.raises(ManifestError, match="line 3: byte 0xff is not UTF-8"):
        load_transcripts(path)


class TestSubset:
    def test_keeps_corpus_order(self):
        kept = subset(list(range(30)), 0.4, seed=0)
        assert len(kept) == 12 and kept == sorted(kept)
        assert kept != list(range(12))

    @pytest.mark.parametrize("n, fraction, k", [
        (5, 0.5, 2), (10, 0.2, 2), (4, 0.1, 1), (101, 0.5, 50), (7, 0.95, 7),
    ])
    def test_size_is_max_one_round_fraction_n(self, n, fraction, k):
        assert len(subset(list(range(n)), fraction, seed=1)) == k

    def test_seed_determinism(self):
        utts = list(range(30))
        assert subset(utts, 0.5, seed=5) == subset(utts, 0.5, seed=5)
        assert subset(utts, 0.5, seed=5) != subset(utts, 0.5, seed=6)

    def test_fraction_one_keeps_everything(self):
        utts = ["u%d" % i for i in range(9)]
        assert subset(utts, 1, seed=3) == utts

    @pytest.mark.parametrize("fraction", [0, 1.5])
    def test_out_of_range_rejected(self, fraction):
        with pytest.raises(ValueError, match=re.escape("data fraction must be in (0, 1]")):
            subset(list(range(10)), fraction, seed=0)


class TestGenerator:
    def test_deterministic(self):
        a = generate_synthetic(SMALL)
        b = generate_synthetic(SMALL)
        assert a.lexicon == b.lexicon
        for ua, ub in zip(a.train + a.dev + a.test, b.train + b.dev + b.test):
            assert ua.transcript == ub.transcript
            assert ua.alignment == ub.alignment
            assert ua.features.tobytes() == ub.features.tobytes()

    def test_seeds_differ(self):
        a = generate_synthetic(SMALL)
        b = generate_synthetic(SynthConfig(**{**SMALL.__dict__, "seed": 4}))
        assert any(
            ua.features.tobytes() != ub.features.tobytes()
            for ua, ub in zip(a.train, b.train)
        )

    def test_alignment_collapses_to_transcript(self):
        corpus = generate_synthetic(SMALL)
        for u in corpus.train + corpus.dev + corpus.test:
            assert len(u.alignment) == u.n_frames
            assert collapse(u.alignment, SIL) == u.transcript

    def test_noise_free_prototypes_repeat_exactly(self):
        cfg = SynthConfig(seed=1, vocab_size=1, n_phonemes=1, feature_dim=3,
                          min_pronunciation=1, max_pronunciation=1,
                          noise_scale=0.0, min_words=1, max_words=1,
                          n_train=1, n_dev=1, n_test=1, silence_prob=0.0,
                          phoneme_duration_std=0.0)
        corpus = generate_synthetic(cfg)
        u = corpus.train[0]
        assert np.all(u.features == u.features[0])

    def test_duration_mean_close_to_configured(self):
        # Monte Carlo over the generator's duration draws
        from wordctc.data import _duration

        rng = np.random.default_rng(0)
        mean, std = 8.16, 4.67
        draws = [_duration(rng, mean, std) for _ in range(10000)]
        assert min(draws) >= 1
        assert abs(np.mean(draws) - mean) / mean < 0.05

    def test_impossible_config_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(SynthConfig(vocab_size=0))
        with pytest.raises(ValueError):
            generate_synthetic(SynthConfig(min_pronunciation=0))
        with pytest.raises(ValueError):
            # more words than distinct pronunciations
            generate_synthetic(SynthConfig(vocab_size=10, n_phonemes=2,
                                           min_pronunciation=1, max_pronunciation=1))

    def test_repeated_word_forces_silence(self):
        cfg = SynthConfig(seed=0, vocab_size=1, n_phonemes=2, feature_dim=2,
                          min_words=2, max_words=2, silence_prob=0.0,
                          n_train=5, n_dev=1, n_test=1)
        corpus = generate_synthetic(cfg)
        for u in corpus.train:
            assert u.transcript == (u.transcript[0],) * 2
            assert SIL in u.alignment

    def test_full_save_load(self, tmp_path):
        corpus = generate_synthetic(SMALL)
        save_synth_corpus(corpus, tmp_path)
        lex = load_lexicon(tmp_path / "lexicon.tsv")
        assert lex == corpus.lexicon
        train = load_corpus(tmp_path / "train", known_words=set(lex.words))
        assert [u.utt_id for u in train] == [u.utt_id for u in corpus.train]
