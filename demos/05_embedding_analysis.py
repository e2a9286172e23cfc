"""What the softmax weight rows learn about words.

Trains a word-CTC model on a corpus with a Zipf-skewed word distribution and
then inspects the embedding space: nearest neighbors share pronunciation
structure, the blank sits far from every word, and frequent words carve out
larger margins.  Expect about half a minute of training.
"""

import numpy as np

import wordctc as w
from wordctc.analysis import (
    blank_distance_report,
    embedding_matrix,
    frequency_margin_table,
    neighbors,
    overlap_histograms,
    permutation_pvalue,
)

cfg = w.SynthConfig(seed=11, vocab_size=64, n_train=400)
corpus = w.generate_synthetic(cfg)
spec = w.TrainSpec(downsample=4, layers=3, hidden=48, seed=1,
                   config=w.TrainConfig(phase1_epochs=8, phase2_epochs=4))
result = w.run(spec, corpus.lexicon, corpus.train, corpus.dev)
print("trained to dev WER %.2f%%" % result.best_metric)

emb = embedding_matrix(result.model)

# Nearest neighbors of a frequent word, with pronunciation overlap.
query = emb.vocab.labels[0]
print("\nnearest neighbors of %s %s:" % (query, corpus.lexicon.pronunciation(query)))
nn = neighbors(emb, query, 5)
for row, dist in zip(nn.ids, nn.distances):
    label = emb.vocab.label_of(row)
    if label in corpus.lexicon:
        overlap = w.pronunciation_overlap(query, label, corpus.lexicon)
        print("  %-6s dist %.3f  overlap %.2f  %s"
              % (label, dist, overlap, corpus.lexicon.pronunciation(label)))
    else:
        print("  %-6s dist %.3f" % (label, dist))

# Close neighbors (ranks 1-3) overlap more in pronunciation than far ones
# (ranks 48-50); a permutation test quantifies the separation.
hist = overlap_histograms(emb, corpus.lexicon)
pvalue = permutation_pvalue(hist.close_values, hist.far_values, seed=0)
print("\nmean pronunciation overlap: close %.3f vs far %.3f (p = %.4f)"
      % (hist.close_mean, hist.far_mean, pvalue))

# The blank's weight row sits far away from every word.
report = blank_distance_report(emb)
print("blank mean distance %.3f vs word-word median %.3f"
      % (report.blank_mean, report.word_word_median))

# Margin grows with how often a word was seen in training.
table = frequency_margin_table(emb, [u.transcript for u in corpus.train])
print("Spearman(count, margin) = %.3f" % table.rank_correlation)
order = np.argsort(-table.counts)
print("\n  word    count   margin")
for i in list(order[:4]) + list(order[-4:]):
    print("  %-6s %6d   %.3f" % (table.words[i], int(table.counts[i]), table.margins[i]))
