"""Run a small fixed wordctc pipeline and keep every file and stdout it makes.

    python3 tools/parity.py OUT

writes into OUT, in about 6 seconds:

- data/: a 150/12/12-utterance synthetic corpus (seed 0) of 51 words,
  1-3 words an utterance;
- phone/: a 2x32 phoneme-CTC model;
- word/: a 2x32 word-CTC model at down-sampling factor 4 whose bottom
  layer comes from phone/ (--init-from);
- frame/: a 2x32 frame classifier trained at --clip-norm 0.5, so that
  clipping changes its updates;
- dec-*/, sc-*/, ana/: test-split hypotheses of all three models, the word
  model's WER and the frame classifier's FER report, and the word model's
  overlap, blank and margin analyses;
- dec-*-train/: training-split hypotheses of both CTC models, in batches
  of about 1,600 to 6,500 rows a layer, so that lstm_forward projects and
  steps their runs of one width in many gate blocks of 512 rows (the test
  split's 598 frames fill at most two);
- word16/: a 2x32 word-CTC model at down-sampling factor 16, which skips
  the training utterances too short for their targets in every epoch;
- one NN-name.stdout per command, holding its stdout and exit code.

Every model trains 4 epochs at step size 0.1, then 1 phase-2 epoch. That
is enough for both CTC models to emit labels on the test split, so a
comparison covers nonempty hypotheses and the edit-distance alignment.
51 words is the fewest the overlap report takes. Commands run in OUT
with relative paths, so two runs into different directories are
comparable with `diff -r`. The wordctc package is the one on the import
path, so PYTHONPATH picks the tree under test. A command that exits
nonzero stops the script with that code.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

from wordctc.cli import main

NET = ["--layers", "2", "--hidden", "32", "--phase1-lr", "0.1", "--phase1-epochs", "4",
       "--phase2-epochs", "1", "--seed", "1"]

STEPS = [
    ("synth", ["synth", "--out-dir", "data", "--seed", "0", "--n-train", "150",
               "--n-dev", "12", "--n-test", "12", "--vocab-size", "51",
               "--min-words", "1", "--max-words", "3"]),
    ("train-phone", ["train", "--data", "data", "--out-dir", "phone", "--mode", "phoneme-ctc",
                     "--downsample", "1", *NET]),
    ("train-word", ["train", "--data", "data", "--out-dir", "word", "--mode", "word-ctc",
                    "--downsample", "4", "--init-from", "phone/model.net",
                    "--init-layers", "1", *NET]),
    ("train-frame", ["train", "--data", "data", "--out-dir", "frame",
                     "--mode", "frame-classifier", "--clip-norm", "0.5", *NET]),
    ("decode-phone", ["decode", "--model", "phone/model.net", "--data", "data/test",
                      "--out-dir", "dec-phone"]),
    ("decode-word", ["decode", "--model", "word/model.net", "--data", "data/test",
                     "--out-dir", "dec-word"]),
    ("decode-frame", ["decode", "--model", "frame/model.net", "--data", "data/test",
                      "--out-dir", "dec-frame"]),
    ("score-word", ["score", "--ref", "data/test/corpus.tsv",
                    "--hyp", "dec-word/hypotheses.tsv", "--out-dir", "sc-word"]),
    ("score-frame", ["score", "--ref", "data/test/align.tsv",
                     "--hyp", "dec-frame/hypotheses.tsv", "--out-dir", "sc-frame", "--fer"]),
    ("analyze", ["analyze", "--model", "word/model.net", "--lexicon", "data/lexicon.tsv",
                 "--transcripts", "data/train/corpus.tsv", "--out-dir", "ana",
                 "--overlap", "--blank", "--margin"]),
    ("decode-word-train", ["decode", "--model", "word/model.net", "--data", "data/train",
                           "--out-dir", "dec-word-train"]),
    ("decode-phone-train", ["decode", "--model", "phone/model.net", "--data", "data/train",
                            "--out-dir", "dec-phone-train"]),
    ("train-word16", ["train", "--data", "data", "--out-dir", "word16", "--mode", "word-ctc",
                      "--downsample", "16", *NET]),
]


def run_all(out):
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    for n, (name, argv) in enumerate(STEPS, 1):
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = main(argv)
        Path("%02d-%s.stdout" % (n, name)).write_text("%sexit %d\n" % (captured.getvalue(), code))
        if code:
            print("parity: %s exited %d" % (name, code), file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 tools/parity.py OUT")
    sys.exit(run_all(Path(sys.argv[1]).resolve()))
