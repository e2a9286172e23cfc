"""Run a small fixed wordctc pipeline and keep every file and stdout it makes.

    python3 tools/parity.py OUT

writes into OUT, in a few seconds:

- data/: a 120/12/12-utterance synthetic corpus (seed 0);
- phone/: a 3x16 phoneme-CTC model;
- word/: a 3x16 word-CTC model at down-sampling factor 4 whose bottom two
  layers come from phone/ (--init-from);
- frame/: a 3x16 frame classifier trained at --clip-norm 0.5, so that
  clipping changes its updates;
- dec-*/, sc-*/, ana/: test-split hypotheses of all three models, the word
  model's WER and the frame classifier's FER report, and the word model's
  blank and margin analyses;
- one NN-name.stdout per command, holding its stdout and exit code.

Commands run in OUT with relative paths, so two runs into different
directories are comparable with `diff -r`. The wordctc package is the one
on the import path, so PYTHONPATH picks the tree under test. A command that
exits nonzero stops the script with that code.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

from wordctc.cli import main

NET = ["--layers", "3", "--hidden", "16", "--phase1-epochs", "1", "--phase2-epochs", "1",
       "--seed", "1"]

STEPS = [
    ("synth", ["synth", "--out-dir", "data", "--seed", "0",
               "--n-train", "120", "--n-dev", "12", "--n-test", "12"]),
    ("train-phone", ["train", "--data", "data", "--out-dir", "phone", "--mode", "phoneme-ctc",
                     "--downsample", "1", *NET]),
    ("train-word", ["train", "--data", "data", "--out-dir", "word", "--mode", "word-ctc",
                    "--downsample", "4", "--init-from", "phone/model.net",
                    "--init-layers", "2", *NET]),
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
                 "--blank", "--margin"]),
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
