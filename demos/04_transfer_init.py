"""Transfer initialization: phoneme CTC and frame classifier -> word CTC.

Pre-trains a phoneme CTC model and a word frame classifier on the same
synthetic data, then initializes the bottom LSTM layer(s) of a word model
from each (the pre-trained model's upper layers and softmax are discarded)
and compares word training from the three starting points.

Everything here is shrunk to two-layer networks with a bottom-1 transfer so
the demo finishes in about a minute; at full scale the same call
transfers the bottom three of four layers.  In this starved regime (a few
minutes of speech) the transferred starts beat the random one by a wide
margin; the gap closes as the word model gets more data of its own.
"""

import wordctc as w

cfg = w.SynthConfig(seed=2, vocab_size=10, n_train=100, n_dev=20, n_test=20,
                    noise_scale=0.25)
corpus = w.generate_synthetic(cfg)
k = 1  # bottom layers to copy


def train_model(mode, seed, phase1_epochs, phase2_epochs=0, downsample=1, init_from=None):
    """A 2x24 model of `mode` whose bottom k layers come from init_from if given."""
    spec = w.TrainSpec(downsample=downsample, layers=2, hidden=24, init_layers=k, seed=seed,
                       config=w.TrainConfig(phase1_epochs=phase1_epochs,
                                            phase2_epochs=phase2_epochs, mode=mode))
    return w.run(spec, corpus.lexicon, corpus.train, corpus.dev, init_from)


# -- phoneme CTC: run() converts the word transcripts through the lexicon
phone_result = train_model("phoneme-ctc", 3, 12)
print("phoneme CTC dev PER after %d epochs: %.2f%%"
      % (len(phone_result.log), phone_result.best_metric))

# -- word frame classifier: per-frame word labels with one-frame lookahead
frame_result = train_model("frame-classifier", 4, 12)
print("frame classifier dev FER after %d epochs: %.2f%%"
      % (len(frame_result.log), frame_result.best_metric))

# -- word models from three initializations, each with the same seed
starts = {
    "random init": None,
    "phoneme-CTC bottom %d" % k: phone_result.model,
    "frame-clf bottom %d" % k: frame_result.model,
}
print("\nword-CTC dev WER after 18 epochs from each start:")
for name, source in starts.items():
    result = train_model("word-ctc", 5, 14, 4, downsample=2, init_from=source)
    print("  %-22s %6.2f%%  (best at epoch %d)" % (name, result.best_metric, result.best_epoch))
