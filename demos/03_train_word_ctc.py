"""Train a small acoustics-to-word CTC model on synthetic speech.

Generates a reduced toy corpus (so the demo finishes in seconds), runs a
shortened version of the two-phase SGD recipe through `run`, as
`wordctc train` does, and scores the result with greedy decoding.  Raise
the sizes/epochs toward the defaults for a model that actually converges.
"""

import wordctc as w

cfg = w.SynthConfig(seed=0, vocab_size=20, n_train=150, n_dev=25, n_test=25)
corpus = w.generate_synthetic(cfg)
minutes = sum(u.n_frames for u in corpus.train) / 6000.0
print("corpus: %d words, %.1f minutes of training speech" % (cfg.vocab_size, minutes))

# The full recipe is 20 + 20 epochs (lr 0.05, then 0.0375 decayed by 0.75,
# clip norm 5, one utterance per update); this demo trims the epoch counts.
spec = w.TrainSpec(downsample=4, layers=2, hidden=32, seed=1,
                   config=w.TrainConfig(phase1_epochs=14, phase2_epochs=6))
result = w.run(spec, corpus.lexicon, corpus.train, corpus.dev)

print("\nepoch  phase  lr       train-perplexity  dev-WER%  skipped")
for r in result.log:
    print("%4d   %d      %.5f  %10.3f      %8.2f  %d"
          % (r.epoch, r.phase, r.lr, r.train_perplexity, r.dev_metric, r.skipped))
print("\nbest dev WER %.2f%% at epoch %d" % (result.best_metric, result.best_epoch))

# Score the held-out test split with greedy decoding, through the batched
# inference path behind `wordctc decode`.
hyps = [result.model.vocab.decode(h) for h in
        w.decode_utterances(result.model, [utt.features for utt in corpus.test])]
stats = w.pool(w.edit_distance(utt.transcript, hyp) for utt, hyp in zip(corpus.test, hyps))
print("test WER %.2f%%  (S=%d D=%d I=%d over %d words)"
      % (w.error_rate(stats), stats.substitutions, stats.deletions,
         stats.insertions, stats.ref_len))

print("\nreference :", " ".join(corpus.test[0].transcript))
print("hypothesis:", " ".join(hyps[0]))
