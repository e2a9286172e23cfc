"""Correctness checks for the benchmark's workloads.

Each check compares a program output against a computation written here,
apart from the program (a probability-space CTC recursion, a plain numpy
LSTM forward pass from the checkpoint bytes, a two-row Levenshtein pass, a
brute-force distance matrix, average ranks), or against a property the
method must have.  None compares against a stored copy of earlier output.

Every check returns a list of problem strings; an empty list means it
passed.  The tests in test_checks.py feed each check a perturbed output
and require a problem back.
"""

import json
import math
import struct
from collections import Counter

import numpy as np

# acceptance criterion 3: |analytic - fd| / max(|fd|, 1e-2) < 1e-4 at eps 1e-6
FD_EPS = 1e-6
FD_TOL = 1e-4
FD_FLOOR = 1e-2

# ---------------------------------------------------------------------------
# references


def ctc_nll_reference(log_probs, target):
    """-log p(target | lattice) by the forward recursion in probability space.

    The lattice is (T, K) log-probabilities with the blank in the last
    column.  Each frame's forward vector is rescaled to sum to one and the
    scales are accumulated in log space, so long lattices do not underflow.
    Returns +inf when no path collapses to the target.
    """
    probs = np.exp(np.asarray(log_probs, dtype=np.float64))
    T, K = probs.shape
    blank = K - 1
    states = [blank]
    for label in target:
        states += [int(label), blank]
    states = np.array(states)
    S = len(states)
    if T == 0:
        return 0.0 if S == 1 else math.inf
    # a skip from s-2 to s is allowed onto a label that differs from the
    # label two states back
    skip = np.zeros(S, dtype=bool)
    skip[2:] = (states[2:] != blank) & (states[2:] != states[:-2])
    alpha = np.zeros(S)
    alpha[0] = probs[0, states[0]]
    if S > 1:
        alpha[1] = probs[0, states[1]]
    log_scale = 0.0
    for t in range(T):
        if t > 0:
            nxt = alpha.copy()
            nxt[1:] += alpha[:-1]
            nxt[2:] += np.where(skip[2:], alpha[:-2], 0.0)
            alpha = nxt * probs[t, states]
        scale = alpha.sum()
        if scale == 0.0:
            return math.inf
        alpha = alpha / scale
        log_scale += math.log(scale)
    final = alpha[-1] + (alpha[-2] if S > 1 else 0.0)
    if final == 0.0:
        return math.inf
    return -(log_scale + math.log(final))


def levenshtein(ref, hyp):
    """Minimal number of substitutions, insertions and deletions."""
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        cur = [i]
        for j, h in enumerate(hyp, 1):
            cur.append(min(prev[j - 1] + (r != h), cur[j - 1] + 1, prev[j] + 1))
        prev = cur
    return prev[-1]


def average_ranks(values):
    """1-based ranks; tied values share the mean of the ranks they span."""
    values = list(values)
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    start = 0
    while start < len(order):
        stop = start
        while stop + 1 < len(order) and values[order[stop + 1]] == values[order[start]]:
            stop += 1
        for k in range(start, stop + 1):
            ranks[order[k]] = (start + stop) / 2.0 + 1.0
        start = stop + 1
    return ranks


def pearson(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    da = a - a.mean()
    db = b - b.mean()
    return float((da * db).sum() / math.sqrt((da * da).sum() * (db * db).sum()))


def read_checkpoint(path):
    """Parse a WNET checkpoint: header dict, per-layer stacked (W, b), head.

    W is (4H, D + H) with the gate blocks in the file's order (input,
    forget, output, candidate) and the input columns first.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != b"WNET":
        raise ValueError("%s: not a WNET checkpoint" % path)
    _, header_len = struct.unpack_from("<II", data, 4)
    header = json.loads(data[12 : 12 + header_len].decode("utf-8"))
    params = np.frombuffer(data, dtype="<f8", offset=12 + header_len)
    pos = 0

    def take(*shape):
        nonlocal pos
        n = int(np.prod(shape))
        if pos + n > params.size:
            raise ValueError("%s: parameter block too short" % path)
        out = params[pos : pos + n].reshape(shape)
        pos += n
        return out

    layers = []
    d = header["input_dim"]
    for h in header["hidden_dims"]:
        w = np.vstack([take(h, d + h) for _ in range(4)])
        b = np.concatenate([take(h) for _ in range(4)])
        layers.append((w, b))
        d = h
    n_out = len(header["labels"]) + 1
    w_out = take(n_out, d)
    b_out = take(n_out)
    if pos != params.size:
        raise ValueError("%s: %d unread parameters" % (path, params.size - pos))
    return {"header": header, "layers": layers, "w_out": w_out, "b_out": b_out}


def read_features(path):
    """(T, d) float64 features from a FEAT file."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, _, n_frames, dim = struct.unpack_from("<4sIII", data)
    if magic != b"FEAT":
        raise ValueError("%s: not a feature file" % path)
    return np.frombuffer(data, dtype="<f4", count=n_frames * dim, offset=16).reshape(
        n_frames, dim
    ).astype(np.float64)


def reference_lattice(ckpt, features):
    """Log-posteriors of a checkpoint on one utterance, by a plain LSTM loop.

    Before layer i the sequence is halved downsample[i] times, keeping
    frames 0, 2, 4, ... and dropping an odd last frame.
    """
    x = np.asarray(features, dtype=np.float64)
    for (w, b), halvings in zip(ckpt["layers"], ckpt["header"]["downsample"]):
        for _ in range(halvings):
            n = x.shape[0]
            if n < 2:
                raise ValueError("sequence too short to halve")
            x = x[0 : 2 * (n // 2) : 2]
        H = b.size // 4
        h = np.zeros(H)
        c = np.zeros(H)
        out = np.empty((x.shape[0], H))
        for t in range(x.shape[0]):
            a = w @ np.concatenate([x[t], h]) + b
            gate_i = 1.0 / (1.0 + np.exp(-a[:H]))
            gate_f = 1.0 / (1.0 + np.exp(-a[H : 2 * H]))
            gate_o = 1.0 / (1.0 + np.exp(-a[2 * H : 3 * H]))
            cand = np.tanh(a[3 * H :])
            c = gate_f * c + gate_i * cand
            h = gate_o * np.tanh(c)
            out[t] = h
        x = out
    logits = x @ ckpt["w_out"].T + ckpt["b_out"]
    top = logits.max(axis=1, keepdims=True)
    return logits - top - np.log(np.exp(logits - top).sum(axis=1, keepdims=True))


def argmax_collapse(lattice, labels):
    """Frame-wise argmax, merge runs, drop the blank (last column)."""
    blank = lattice.shape[1] - 1
    out = []
    prev = None
    for k in np.argmax(lattice, axis=1):
        if k != prev and k != blank:
            out.append(labels[k])
        prev = k
    return tuple(out)


def is_ambiguous(lattice, gap=1e-9):
    """True when some frame's two best labels are within `gap` of each other,
    so rounding differences could flip the argmax."""
    top2 = np.sort(lattice, axis=1)[:, -2:]
    return bool(np.any(top2[:, 1] - top2[:, 0] < gap))


# ---------------------------------------------------------------------------
# training checks


def check_ctc_against_reference(samples, rtol=1e-9):
    """samples: (utt_id, lattice, target, loss, grad) from the program."""
    problems = []
    for utt_id, lattice, target, loss, grad in samples:
        ref = ctc_nll_reference(lattice, target)
        if not abs(loss - ref) <= rtol * max(1.0, abs(ref)):
            problems.append("%s: ctc loss %r, reference %r" % (utt_id, loss, ref))
        worst = float(np.max(np.abs(np.asarray(grad).sum(axis=1))))
        if worst > 1e-9:
            problems.append("%s: ctc gradient row sums reach %.3g" % (utt_id, worst))
    return problems


def sample_entries(shapes, per_array, rng):
    """Seeded (array index, flat index) pairs, per_array from every array."""
    entries = []
    for k, shape in enumerate(shapes):
        size = int(np.prod(shape))
        for flat in rng.choice(size, size=min(per_array, size), replace=False):
            entries.append((k, int(flat)))
    return entries


def check_finite_differences(loss_fn, params, grads, entries):
    """Central differences of loss_fn() against the analytic gradient.

    params are the live parameter arrays loss_fn reads; each sampled entry
    is nudged by +/- FD_EPS and restored exactly.
    """
    problems = []
    for k, flat in entries:
        p = params[k].reshape(-1)
        old = p[flat]
        p[flat] = old + FD_EPS
        up = loss_fn()
        p[flat] = old - FD_EPS
        down = loss_fn()
        p[flat] = old
        fd = (up - down) / (2 * FD_EPS)
        analytic = float(np.asarray(grads[k]).reshape(-1)[flat])
        if not abs(analytic - fd) / max(abs(fd), FD_FLOOR) < FD_TOL:
            problems.append(
                "param %d entry %d: gradient %r, finite difference %r" % (k, flat, analytic, fd)
            )
    return problems


def check_loss_falls(before, after):
    if not (math.isfinite(after) and after < before):
        return ["dev per-label loss did not fall: %r -> %r" % (before, after)]
    return []


def parse_trainlog(text, n_epochs):
    """Skipped-utterance total from trainlog.tsv, plus any format problems."""
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) != n_epochs:
        return 0, ["trainlog has %d records, expected %d" % (len(lines), n_epochs)]
    skipped = 0
    problems = []
    for line in lines:
        fields = line.split("\t")
        if len(fields) != 7:
            problems.append("trainlog record has %d fields" % len(fields))
            continue
        skipped += int(fields[6])
        if not math.isfinite(float(fields[3])):
            problems.append("non-finite training loss in %r" % line)
    return skipped, problems


# ---------------------------------------------------------------------------
# evaluation checks


def parse_id_text(text):
    """(id, words) pairs of an id<TAB>words file, in file order."""
    rows = []
    for line in text.splitlines():
        if not line.strip():
            continue
        utt_id, _, words = line.partition("\t")
        rows.append((utt_id, tuple(words.split())))
    return rows


def check_hypotheses(ref_ids, hyp_rows):
    """Every reference has exactly one hypothesis, and nothing else does."""
    counts = Counter(utt_id for utt_id, _ in hyp_rows)
    problems = ["%s: %d hypotheses" % (u, n) for u, n in counts.items() if n > 1]
    missing = [u for u in ref_ids if u not in counts]
    known = set(ref_ids)
    extra = [u for u in counts if u not in known]
    if missing:
        problems.append("%d references without a hypothesis, first %r" % (len(missing), missing[0]))
    if extra:
        problems.append("%d hypotheses without a reference, first %r" % (len(extra), extra[0]))
    return problems


def check_decode_against_reference(samples):
    """samples: (utt_id, reference lattice, labels, hypothesis words)."""
    problems = []
    for utt_id, lattice, labels, hyp in samples:
        expected = argmax_collapse(lattice, labels)
        if hyp != expected and not is_ambiguous(lattice):
            problems.append("%s: hypothesis %r, reference decode %r" % (utt_id, hyp, expected))
    return problems


def check_score(refs, hyps, report_text, stdout_text, require_words=True):
    """score's per-utterance and pooled counts against a separate Levenshtein
    pass over every reference.  With require_words the printed WER must be
    below 100: a model that emits nothing scores exactly 100."""
    problems = []
    rows = {}
    for line in report_text.splitlines()[1:]:
        fields = line.split("\t")
        rows[fields[0]] = [int(v) for v in fields[1:5]]
    total_edits = total_words = 0
    for utt_id, ref in refs.items():
        hyp = hyps.get(utt_id, ())
        dist = levenshtein(ref, hyp)
        total_edits += dist
        total_words += len(ref)
        row = rows.get(utt_id)
        if row is None:
            problems.append("%s: missing from the score report" % utt_id)
            continue
        sub, dele, ins, ref_len = row
        if sub + dele + ins != dist or ref_len != len(ref) or ins - dele != len(hyp) - len(ref):
            problems.append("%s: report %r, reference distance %d over %d" % (utt_id, row, dist, len(ref)))
    pooled = rows.get("ALL")
    if pooled is None or sum(pooled[:3]) != total_edits or pooled[3] != total_words:
        problems.append("pooled row %r, reference %d edits over %d" % (pooled, total_edits, total_words))
    fields = stdout_text.split()
    try:
        wer = float(fields[fields.index("WER%") + 1])
        words = int(fields[fields.index("over") + 1])
    except (ValueError, IndexError):
        return problems + ["unparseable score output %r" % stdout_text]
    expected = 100.0 * total_edits / total_words
    if abs(wer - expected) > 5e-5 or words != total_words:
        problems.append(
            "printed WER %r over %d words, reference %.4f over %d" % (wer, words, expected, total_words)
        )
    if require_words and not wer < 100.0:
        problems.append("WER %r: the model emits no words" % wer)
    return problems


def parse_tsv(text):
    lines = text.splitlines()
    return [line.split("\t") for line in lines[1:] if line.strip()]


def check_margins(w_out, labels, transcripts, table_rows, rtol=1e-12):
    """margin_table.tsv against the smallest off-diagonal entry of a separately
    computed distance matrix, and its counts against a fresh word count."""
    diff = w_out[:, None, :] - w_out[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    nearest = dist.min(axis=1)
    counts = Counter(w for words in transcripts for w in words)
    problems = []
    if [r[0] for r in table_rows] != list(labels):
        return ["margin table words differ from the model's labels"]
    for k, (word, count, value) in enumerate(table_rows):
        if int(count) != counts.get(word, 0):
            problems.append("%s: count %s, reference %d" % (word, count, counts.get(word, 0)))
        if not abs(float(value) - nearest[k]) <= rtol * nearest[k]:
            problems.append("%s: margin %s, reference %r" % (word, value, nearest[k]))
    return problems


def check_overlap_and_pvalue(hist_rows, summary, n_words):
    """Histogram support in [0, 1], counts summing to the number of pairs
    (each word against its 3 closest and its 3 far neighbours), means in
    [0, 1], and a p-value in (0, 1]."""
    problems = []
    lo = float(hist_rows[0][0])
    hi = float(hist_rows[-1][1])
    if lo < 0.0 or hi > 1.0:
        problems.append("overlap histogram spans [%r, %r]" % (lo, hi))
    pairs = n_words * 3
    for col, name in ((2, "close"), (3, "far")):
        total = sum(int(r[col]) for r in hist_rows)
        if total != pairs:
            problems.append("%s histogram holds %d of %d pairs" % (name, total, pairs))
    for key in ("close_overlap_mean", "far_overlap_mean"):
        if not 0.0 <= float(summary[key]) <= 1.0:
            problems.append("%s = %s" % (key, summary[key]))
    p = float(summary["overlap_permutation_pvalue"])
    if not 0.0 < p <= 1.0:
        problems.append("permutation p-value %r outside (0, 1]" % p)
    return problems


def check_spearman(table_rows, reported):
    """The reported rank correlation is the Pearson correlation of the ranks;
    it is undefined exactly when a column is constant."""
    counts = [float(r[1]) for r in table_rows]
    margins = [float(r[2]) for r in table_rows]
    if len(set(counts)) < 2 or len(set(margins)) < 2:
        return [] if reported == "undefined" else ["spearman %s of a constant column" % reported]
    expected = pearson(average_ranks(counts), average_ranks(margins))
    if reported == "undefined" or abs(float(reported) - expected) > 1e-9:
        return ["spearman %s, pearson of ranks %r" % (reported, expected)]
    return []
