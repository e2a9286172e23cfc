import math
import tracemalloc

import numpy as np
import pytest

from wordctc import network, training
from wordctc.ctc import BLANK, InfeasibleTargetError, Vocabulary, ctc_log_likelihood, greedy_decode
from wordctc.data import SIL, Lexicon, SynthConfig, Utterance, generate_synthetic, subset
from wordctc.metrics import edit_distance, error_rate, frame_errors, pool
from wordctc.network import Network, SequenceTooShortError, downsample_schedule, network_forward
from wordctc.numerics import global_norm
from wordctc.training import (
    EpochRecord,
    TrainConfig,
    TrainingError,
    TrainSpec,
    classifier_frame_predictions,
    convert_transcripts_to_phonemes,
    decode_utterances,
    evaluate,
    format_train_log,
    frame_loss_and_gradient,
    run,
    train,
    training_perplexity,
)

TINY = SynthConfig(seed=5, vocab_size=6, n_phonemes=5, feature_dim=4,
                   n_train=10, n_dev=4, n_test=2, min_words=2, max_words=3,
                   phoneme_duration_mean=5.0, phoneme_duration_std=2.0)


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic(TINY)


@pytest.fixture(scope="module")
def word_vocab(corpus):
    return Vocabulary(tuple(sorted(corpus.lexicon.words)))


def small_model(vocab, mode="word-ctc", factor=2, seed=1, layers=2, hidden=10):
    return Network.random(4, [hidden] * layers, vocab, mode,
                          downsample=downsample_schedule(factor, layers), seed=seed)


class TestTrainConfig:
    def test_paper_defaults(self):
        cfg = TrainConfig()
        assert cfg.phase1_epochs == 20 and cfg.phase1_lr == 0.05
        assert cfg.phase2_epochs == 20 and cfg.phase2_lr == 0.0375
        assert cfg.phase2_decay == 0.75 and cfg.clip_norm == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(phase1_lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(phase2_decay=1.5)
        with pytest.raises(ValueError):
            TrainConfig(clip_norm=-1)
        with pytest.raises(ValueError, match="phase1_epochs and phase2_epochs"):
            TrainConfig(phase1_epochs=0, phase2_epochs=0)
        with pytest.raises(ValueError, match="got 'bogus'"):
            TrainConfig(mode="bogus")


class TestRun:
    def test_seed_spawns_init_shuffle_and_subset_in_order(self, corpus, word_vocab):
        recipe = dict(phase1_epochs=2, phase2_epochs=0)
        spec = TrainSpec(downsample=2, layers=2, hidden=10, data_fraction=0.5, seed=3,
                         config=TrainConfig(**recipe))
        init, shuffle, part = np.random.SeedSequence(3).spawn(3)
        expected = train(small_model(word_vocab, seed=init), subset(corpus.train, 0.5, part),
                         corpus.dev, TrainConfig(**recipe, seed=shuffle))
        got = run(spec, corpus.lexicon, corpus.train, corpus.dev)
        assert np.array_equal(got.model.flat, expected.model.flat)
        assert got.log == expected.log
        assert got.n_utterances == expected.n_utterances == 5

    def test_the_spec_states_the_only_seed(self):
        with pytest.raises(ValueError, match="config.seed"):
            TrainSpec(seed=1, config=TrainConfig(seed=1))


class TestSchedule:
    def test_phase2_lr_decay(self, corpus, word_vocab):
        model = small_model(word_vocab)
        cfg = TrainConfig(phase1_epochs=1, phase2_epochs=3, seed=0)
        res = train(model, corpus.train, corpus.dev, cfg)
        lrs = [r.lr for r in res.log]
        assert lrs[0] == 0.05
        assert lrs[1] == 0.0375
        assert lrs[2] == pytest.approx(0.028125)
        assert lrs[3] == pytest.approx(0.02109375)
        assert [r.phase for r in res.log] == [1, 2, 2, 2]

    def test_epoch_numbering(self, corpus, word_vocab):
        cfg = TrainConfig(phase1_epochs=2, phase2_epochs=2, seed=0)
        res = train(small_model(word_vocab), corpus.train, corpus.dev, cfg)
        assert [r.epoch for r in res.log] == [1, 2, 3, 4]


class TestDescent:
    def test_loss_decreases_at_small_lr(self, corpus, word_vocab):
        # single-utterance set, tiny step: per-epoch loss must fall
        model = small_model(word_vocab, seed=3)
        one = [corpus.train[0]]
        cfg = TrainConfig(phase1_epochs=6, phase2_epochs=0, phase1_lr=1e-4, seed=0)
        res = train(model, one, one, cfg)
        losses = [r.train_loss for r in res.log]
        assert all(b < a for a, b in zip(losses, losses[1:]))


class TestDeterminism:
    def test_same_seed_same_log_and_params(self, corpus, word_vocab):
        cfg = TrainConfig(phase1_epochs=2, phase2_epochs=1, seed=9)
        a = train(small_model(word_vocab, seed=2), corpus.train, corpus.dev, cfg)
        b = train(small_model(word_vocab, seed=2), corpus.train, corpus.dev, cfg)
        assert a.log == b.log
        for p, q in zip(a.model.params(), b.model.params()):
            assert p.tobytes() == q.tobytes()

    def test_different_seed_differs(self, corpus, word_vocab):
        cfg_a = TrainConfig(phase1_epochs=2, phase2_epochs=0, seed=9)
        cfg_b = TrainConfig(phase1_epochs=2, phase2_epochs=0, seed=10)
        a = train(small_model(word_vocab, seed=2), corpus.train, corpus.dev, cfg_a)
        b = train(small_model(word_vocab, seed=2), corpus.train, corpus.dev, cfg_b)
        assert a.log != b.log


class TestModelSelection:
    def test_best_equals_log_minimum(self, corpus, word_vocab):
        cfg = TrainConfig(phase1_epochs=3, phase2_epochs=2, seed=4)
        res = train(small_model(word_vocab), corpus.train, corpus.dev, cfg)
        assert res.best_metric == min(r.dev_metric for r in res.log)
        assert res.log[res.best_epoch - 1].dev_metric == res.best_metric
        # and the returned model reproduces that dev metric
        assert evaluate(res.model, corpus.dev) == res.best_metric


class TestClipping:
    def test_update_norm_bounded_by_clip_times_lr(self, corpus, word_vocab):
        model = small_model(word_vocab, seed=6)
        clip, lr = 0.01, 0.05
        before = [p.copy() for p in model.params()]
        cfg = TrainConfig(phase1_epochs=1, phase2_epochs=0, phase1_lr=lr,
                          clip_norm=clip, seed=0)
        res = train(model, [corpus.train[0]], corpus.dev, cfg)
        # model argument is untouched; compare against the returned model
        for p, q in zip(model.params(), before):
            assert np.array_equal(p, q)
        delta = global_norm(
            [p - q for p, q in zip(res.model.params(), before)]
        )
        assert delta <= clip * lr * (1 + 1e-9)
        # the bound bit, and the log says so
        assert res.log[0].clip_events == 1


class TestSkipping:
    def test_infeasible_utterance_skipped_and_counted(self, corpus, word_vocab):
        # an utterance with a repeated word and too few frames is infeasible
        bad = Utterance(
            "bad",
            np.zeros((4, 4), dtype=np.float32),
            (corpus.train[0].transcript[0],) * 3,
        )
        model = small_model(word_vocab, factor=2)
        cfg = TrainConfig(phase1_epochs=1, phase2_epochs=0, seed=0)
        res = train(model, list(corpus.train) + [bad], corpus.dev, cfg)
        assert res.log[0].skipped == 1

    def test_all_infeasible_raises(self, word_vocab, corpus, caplog):
        bad = Utterance(
            "bad",
            np.zeros((2, 4), dtype=np.float32),
            (corpus.train[0].transcript[0],) * 4,
        )
        cfg = TrainConfig(phase1_epochs=1, phase2_epochs=0, seed=0)
        with pytest.raises(TrainingError, match="^every utterance is infeasible$"):
            train(small_model(word_vocab), [bad], corpus.dev, cfg)
        # refused before the first epoch, which would log under its number
        assert not [r for r in caplog.records if "epoch 1" in r.getMessage()]

    def test_zero_probability_with_frames_enough_stops_training(self, corpus, word_vocab, caplog):
        # every word's logit sits 2e308 below the blank's, so log_softmax
        # gives each word -inf: a diverged network, not a short utterance
        model = small_model(word_vocab)
        model.b_out[:] = -1e308
        model.b_out[model.vocab.blank_id] = 1e308
        cfg = TrainConfig(phase1_epochs=1, phase2_epochs=0, seed=0)
        with pytest.raises(TrainingError, match=r"^epoch 1: utterance train-\d+: the \d+-frame "
                                                r"lattice gives the target zero probability$"):
            train(model, corpus.train, corpus.dev, cfg)
        assert "skipping" not in caplog.text

    def test_non_finite_frame_loss_stops_training(self, corpus, caplog, recwarn):
        # every word's logit sits 2e308 below SIL's, so log_softmax gives
        # each word -inf and a word frame's cross entropy is inf
        vocab = Vocabulary(tuple(sorted(corpus.lexicon.words)), SIL)
        model = small_model(vocab, mode="frame-classifier", factor=1)
        model.b_out[:] = -1e308
        model.b_out[vocab.id_of(SIL)] = 1e308
        cfg = TrainConfig(phase1_epochs=1, phase2_epochs=0, seed=0, mode="frame-classifier")
        with pytest.raises(TrainingError, match=r"^epoch 1: utterance train-\d+: loss is inf$"):
            train(model, corpus.train, corpus.dev, cfg)
        assert "skipping" not in caplog.text
        assert not [str(w.message) for w in recwarn]

    def test_mode_mismatch_rejected(self, corpus, word_vocab):
        cfg = TrainConfig(phase1_epochs=1, phase2_epochs=0, seed=0, mode="phoneme-ctc")
        with pytest.raises(ValueError):
            train(small_model(word_vocab), corpus.train, corpus.dev, cfg)


def _feasibility_cases():
    """(mode, factor, frames, labels): each factor at 0, 2**m - 1 and 2**m
    frames, and a target with a repeat, which needs min_frames 4 lattice
    rows, at 3 and at 4 rows."""
    cases = []
    for factor in (1, 2, 4, 16):
        for n_frames in sorted({0, factor - 1, factor}):
            cases += [("word-ctc", factor, n_frames, ("a",)), ("word-ctc", factor, n_frames, ())]
        cases += [("word-ctc", factor, n, ("a", "a", "b")) for n in (4 * factor - 1, 4 * factor)]
    return cases + [("frame-classifier", 1, 0, ()), ("frame-classifier", 1, 1, ("a",))]


class TestFeasibility:
    @pytest.mark.parametrize("mode, factor, n_frames, labels", _feasibility_cases(),
                             ids=lambda v: "-".join(v) if isinstance(v, tuple) else str(v))
    def test_rule_agrees_with_the_loss(self, mode, factor, n_frames, labels):
        vocab = Vocabulary(("a", "b"), reserved=SIL if mode == "frame-classifier" else BLANK)
        model = Network.random(4, [6, 6], vocab, mode, downsample=downsample_schedule(factor, 2),
                               seed=1)
        features = np.random.default_rng(0).normal(size=(n_frames, 4))
        target = np.array([vocab.id_of(lab) for lab in labels], dtype=np.int64)
        try:
            lattice, _ = network_forward(model, features)
            training._loss(model, lattice, target)
            trains = True
        except (SequenceTooShortError, InfeasibleTargetError):
            trains = False
        assert training._feasible(model, features, target) == trains


class TestPerplexity:
    def test_matches_direct_computation(self, corpus, word_vocab):
        model = small_model(word_vocab, factor=1)
        total, labels = 0.0, 0
        for u in corpus.train:
            lattice, _ = network_forward(model, u.features)
            total += -ctc_log_likelihood(lattice, word_vocab.encode(u.transcript))
            labels += len(u.transcript)
        assert training_perplexity(model, corpus.train) == pytest.approx(total / labels)

    def test_perfect_model_is_zero(self):
        # a head that puts probability ~1 on the right label gives ~0
        vocab = Vocabulary(("a",))
        utt = Utterance("u", np.zeros((1, 2), dtype=np.float32), ("a",))
        net = Network.random(2, [4], vocab, "word-ctc", seed=0)
        net.w_out[...] = 0.0
        net.b_out[...] = np.array([40.0, -40.0])
        assert training_perplexity(net, [utt]) == pytest.approx(0.0, abs=1e-12)


def decode_one(model, features):
    """Per-utterance oracle for decode_utterances: one unbatched forward
    pass, () when the utterance is too short for the down-sampling."""
    try:
        lattice, _ = network_forward(model, features)
    except SequenceTooShortError:
        return ()
    if model.mode == "frame-classifier":
        return tuple(classifier_frame_predictions(model, lattice))
    return tuple(greedy_decode(lattice))


def emitting_model(vocab, mode="word-ctc", factor=4):
    """A random model with a sharpened head, so that greedy decoding emits
    many labels and a batching mix-up would change the hypotheses."""
    model = small_model(vocab, mode=mode, factor=factor, layers=3, hidden=8)
    model.w_out *= 200.0
    return model


class TestDecodeUtterances:
    def test_input_order_and_per_utterance_oracle(self, corpus, word_vocab):
        model = emitting_model(word_vocab)
        utts = corpus.dev + corpus.train
        feats = [u.features for u in utts]
        hyps = decode_utterances(model, feats)
        want = [decode_one(model, f) for f in feats]
        assert [tuple(h) for h in hyps] == want
        assert len(set(want)) > 3  # a mix-up of utterances would show

    def test_too_short_utterances_are_full_deletions(self, word_vocab):
        model = emitting_model(word_vocab)  # factor 4: 4 frames are the fewest it can halve
        rng = np.random.default_rng(0)
        words = tuple(word_vocab.labels[:2])
        utts = [Utterance("u%d" % n, rng.normal(size=(n, 4)), words) for n in (0, 3, 4, 30)]
        hyps = decode_utterances(model, [u.features for u in utts])
        assert [tuple(h) for h in hyps] == [(), (), decode_one(model, utts[2].features),
                                            decode_one(model, utts[3].features)]
        assert evaluate(model, utts[:2]) == 100.0
        target = [word_vocab.encode(u.transcript) for u in utts]
        want = error_rate(pool(edit_distance(t, h) for t, h in zip(target, hyps)))
        assert evaluate(model, utts) == want
        assert training_perplexity(model, utts) == math.inf

    def test_batches_stay_within_the_byte_budget(self, corpus, word_vocab, monkeypatch):
        model = emitting_model(word_vocab)
        feats = [u.features for u in corpus.train]
        want = [decode_one(model, f) for f in feats]
        calls = []
        real = network.network_forward

        def spy(net, features, lengths=None):
            calls.append(list(lengths))
            return real(net, features, lengths)

        monkeypatch.setattr(network, "network_forward", spy)
        # the default budget holds this whole split: one batch, longest first
        assert [tuple(h) for h in decode_utterances(model, feats)] == want
        assert calls == [sorted((len(f) for f in feats), reverse=True)]
        # an utterance whose tape alone is over the budget runs alone
        calls.clear()
        monkeypatch.setattr(network, "MAX_BATCH_BYTES", 1)
        assert [tuple(h) for h in decode_utterances(model, feats)] == want
        assert [len(c) for c in calls] == [1] * len(feats)

    def test_frame_classifier(self, corpus):
        vocab = Vocabulary(tuple(sorted(corpus.lexicon.words)), reserved=SIL)
        model = emitting_model(vocab, mode="frame-classifier", factor=1)
        feats = [u.features for u in corpus.dev + corpus.train]
        hyps = decode_utterances(model, feats)
        assert [tuple(h) for h in hyps] == [decode_one(model, f) for f in feats]
        prepared = training._prepare(corpus.dev, model)
        want = error_rate(pool(frame_errors(t, decode_one(model, f)) for _, f, t in prepared))
        assert evaluate(model, corpus.dev) == want

    def test_evaluate_and_perplexity_match_per_utterance_values(self, corpus, word_vocab):
        model = emitting_model(word_vocab)
        utts = corpus.dev + corpus.train
        targets = [word_vocab.encode(u.transcript) for u in utts]
        want = error_rate(pool(edit_distance(t, decode_one(model, u.features))
                               for t, u in zip(targets, utts)))
        assert evaluate(model, utts) == want
        total = sum(-ctc_log_likelihood(network_forward(model, u.features)[0], t)
                    for t, u in zip(targets, utts))
        labels = sum(len(t) for t in targets)
        assert training_perplexity(model, utts) == pytest.approx(total / labels, rel=1e-12)

    def test_peak_memory_stays_near_the_budget(self):
        # the paper's 3x48 model at factor 4 on 40 utterances of 300 frames:
        # about 60 MB of tapes if they were all kept at once
        vocab = Vocabulary(tuple("abcdefgh"))
        model = Network.random(8, [48] * 3, vocab, "word-ctc",
                               downsample=downsample_schedule(4, 3), seed=0)
        rng = np.random.default_rng(0)
        feats = [rng.normal(size=(300, 8)) for _ in range(40)]
        tracemalloc.start()
        try:
            decode_utterances(model, feats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * network.MAX_BATCH_BYTES

    def test_long_utterances_share_few_batches(self, monkeypatch):
        # the peak-memory case; when a batch was charged its widest layer's
        # gates, cell and tanh-cell too, 300 * (8 + 7 * 48) * 8 bytes per
        # utterance put 5 in a batch, so the 40 took 8 batches
        vocab = Vocabulary(tuple("abcdefgh"))
        model = Network.random(8, [48] * 3, vocab, "word-ctc",
                               downsample=downsample_schedule(4, 3), seed=0)
        rng = np.random.default_rng(0)
        feats = [rng.normal(size=(300, 8)) for _ in range(40)]
        calls = []
        real = network.network_forward

        def spy(net, features, lengths=None):
            calls.append(len(lengths))
            return real(net, features, lengths)

        monkeypatch.setattr(network, "network_forward", spy)
        decode_utterances(model, feats)
        assert sum(calls) == 40
        assert 3 * len(calls) <= 8


class TestPhonemeConversion:
    def test_single_word(self):
        lex = Lexicon({"CAT": ("K", "AE", "T")})
        utt = Utterance("u", np.zeros((2, 3), dtype=np.float32), ("CAT",))
        out = convert_transcripts_to_phonemes([utt], lex)
        assert out[0].transcript == ("K", "AE", "T")

    def test_concatenation(self):
        lex = Lexicon({"CAT": ("K", "AE", "T")})
        utt = Utterance("u", np.zeros((2, 3), dtype=np.float32), ("CAT", "CAT"))
        out = convert_transcripts_to_phonemes([utt], lex)
        assert out[0].transcript == ("K", "AE", "T", "K", "AE", "T")

    def test_length_is_sum_of_pronunciations(self, corpus):
        out = convert_transcripts_to_phonemes(corpus.train, corpus.lexicon)
        for before, after in zip(corpus.train, out):
            expected = sum(len(corpus.lexicon.pronunciation(w)) for w in before.transcript)
            assert len(after.transcript) == expected
            assert after.alignment is None

    def test_unknown_word_named(self):
        lex = Lexicon({"CAT": ("K",)})
        utt = Utterance("u", np.zeros((2, 3), dtype=np.float32), ("DOG",))
        with pytest.raises(Exception, match="DOG"):
            convert_transcripts_to_phonemes([utt], lex)


class TestFrameClassifier:
    def test_lookahead_shifts_targets(self):
        vocab = Vocabulary(("w1", "w2"), reserved=SIL)
        net = Network.random(3, [5], vocab, "frame-classifier", seed=0)
        lattice, _ = network_forward(net, np.zeros((4, 3)))
        labels = np.array([0, 1, 2, 0])
        loss, grad, n = frame_loss_and_gradient(net, lattice, labels)
        assert n == 3
        np.testing.assert_array_equal(grad[0], 0.0)
        # position t is scored against label t-1
        expected = -float(lattice[1, 0] + lattice[2, 1] + lattice[3, 2])
        assert loss == pytest.approx(expected)

    def test_downsampled_classifier_rejected(self):
        vocab = Vocabulary(("w1", "w2"), reserved=SIL)
        with pytest.raises(ValueError, match="requires down-sampling factor 1"):
            Network.random(3, [5], vocab, "frame-classifier", downsample=(1,), seed=0)

    def test_training_improves_fer(self, corpus):
        vocab = Vocabulary(tuple(sorted(corpus.lexicon.words)), reserved=SIL)
        net = Network.random(4, [12, 12], vocab, "frame-classifier", seed=2)
        untrained = evaluate(net, corpus.dev)
        cfg = TrainConfig(phase1_epochs=4, phase2_epochs=0, seed=1, mode="frame-classifier")
        res = train(net, corpus.train, corpus.dev, cfg)
        assert res.best_metric < untrained

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        vocab = Vocabulary(("w1", "w2"), reserved=SIL)
        net = Network.random(3, [5], vocab, "frame-classifier", seed=4)
        x = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, size=5)

        from wordctc.network import network_backward

        def loss():
            lat, _ = network_forward(net, x)
            return frame_loss_and_gradient(net, lat, labels)[0]

        lat, tape = network_forward(net, x)
        _, d_logits, _ = frame_loss_and_gradient(net, lat, labels)
        grads, _ = network_backward(net, tape, d_logits)
        eps = 1e-6
        for p, g in zip(net.params(), grads.arrays()):
            flat_p, flat_g = p.ravel(), g.ravel()
            for i in range(flat_p.size):
                old = flat_p[i]
                flat_p[i] = old + eps
                up = loss()
                flat_p[i] = old - eps
                down = loss()
                flat_p[i] = old
                fd = (up - down) / (2 * eps)
                assert abs(flat_g[i] - fd) / max(abs(fd), 1e-2) < 1e-4


class TestPhonemeMode:
    def test_phoneme_ctc_trains(self, corpus):
        vocab = Vocabulary(corpus.lexicon.inventory)
        data = convert_transcripts_to_phonemes(corpus.train, corpus.lexicon)
        dev = convert_transcripts_to_phonemes(corpus.dev, corpus.lexicon)
        net = Network.random(4, [10, 10], vocab, "phoneme-ctc",
                             downsample=downsample_schedule(2, 2), seed=3)
        cfg = TrainConfig(phase1_epochs=2, phase2_epochs=0, seed=2, mode="phoneme-ctc")
        res = train(net, data, dev, cfg)
        assert len(res.log) == 2
        assert res.log[1].train_loss < res.log[0].train_loss


class TestTrainLogFormat:
    def test_fixed_field_order(self):
        rec = EpochRecord(3, 2, 0.0375, 12.5, 0.25, 33.3, 1)
        line = format_train_log([rec]).strip()
        assert line == "3\t2\t0.0375\t12.5\t0.25\t33.3\t1"
