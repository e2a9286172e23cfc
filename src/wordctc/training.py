"""SGD training loops for word CTC, phoneme CTC, and the word frame classifier.

The recipe is fixed: mini-batches of one utterance, global-norm clipping at
5, a constant-rate first phase, then a second phase seeded from the first
phase's best dev checkpoint with the rate decayed by 0.75 every epoch.  The
best model on dev over all epochs is returned.
"""

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .ctc import InfeasibleTargetError, Vocabulary, ctc_loss_and_gradient, greedy_decode, min_frames
from .data import Utterance, subset, table_tsv
from .metrics import edit_distance, error_rate, frame_errors, pool
from .network import (MODES, Network, downsample_schedule, forward_batches, network_backward,
                      network_forward, sgd_update, transfer_bottom_layers)
from .numerics import clip_global_norm

log = logging.getLogger(__name__)


class TrainingError(RuntimeError):
    """Training cannot proceed (for example, every utterance is infeasible)."""


@dataclass
class TrainConfig:
    phase1_epochs: int = 20
    phase1_lr: float = 0.05
    phase2_epochs: int = 20
    phase2_lr: float = 0.0375
    phase2_decay: float = 0.75
    clip_norm: float = 5.0
    seed: int = 0
    mode: str = "word-ctc"

    def __post_init__(self):
        for name in ("phase1_lr", "phase2_lr", "clip_norm"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError("%s must be positive and finite, got %r" % (name, value))
        if not 0 < self.phase2_decay <= 1:
            raise ValueError("decay must be in (0, 1]")
        if self.phase1_epochs < 0 or self.phase2_epochs < 0:
            raise ValueError("epoch counts must be nonnegative")
        if self.phase1_epochs + self.phase2_epochs == 0:
            raise ValueError("phase1_epochs and phase2_epochs are both 0: no epoch would run")
        if self.mode not in MODES:
            raise ValueError("mode must be one of %r, got %r" % (tuple(MODES), self.mode))


@dataclass(frozen=True)
class TrainSpec:
    """What `run` trains: shape, transferred layers, data share, seed and recipe.
    `seed` spawns three streams, in order: init, shuffle, subset; the shuffle
    stream takes the place of `config.seed`, which must be left at 0."""

    downsample: int = 1
    layers: int = 4
    hidden: int = 500
    init_layers: int = 3
    data_fraction: float = 1.0
    seed: int = 0
    config: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.config.seed != 0:
            raise ValueError("config.seed must be 0: the shuffle stream is spawned from seed")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    phase: int
    lr: float
    train_loss: float
    train_perplexity: float
    dev_metric: float
    skipped: int
    clip_events: int = 0  # updates where the norm bound actually bit


@dataclass
class TrainResult:
    model: object
    log: list
    best_epoch: int
    best_metric: float
    n_utterances: int  # the training utterances, infeasible ones included


def convert_transcripts_to_phonemes(utterances, lexicon):
    """Replace each word by its canonical pronunciation, concatenated in order.

    Word-level alignments are dropped since they no longer match the new
    transcripts.
    """
    return [Utterance(u.utt_id, u.features,
                      tuple(p for w in u.transcript for p in lexicon.pronunciation(w)), None)
            for u in utterances]


def _check_splits(train_utterances, dev_utterances):
    if not train_utterances or not dev_utterances:
        raise ValueError("train and dev sets must be nonempty")


def _prepare(utterances, model):
    """Pair each utterance with its encoded target for the model's mode: the
    transcript under CTC, the frame alignment for the frame classifier.
    Every utterance must have the model's feature dimension."""
    frames = model.mode == "frame-classifier"
    for u in utterances:
        if u.features.shape[1:] != (model.input_dim,):
            raise ValueError("utterance %r: expected (T, %d) features, got %r"
                             % (u.utt_id, model.input_dim, u.features.shape))
        if frames and u.alignment is None:
            raise ValueError("utterance %r has no frame alignment" % u.utt_id)
    return [(u.utt_id, u.features, model.vocab.encode(u.alignment if frames else u.transcript))
            for u in utterances]


def frame_loss_and_gradient(net, lattice, frame_labels):
    """Cross entropy against per-frame labels with the configured lookahead.

    Output position t is scored against the label of frame t - lookahead;
    the first `lookahead` positions are untrained and get zero gradient.
    The network runs at the full frame rate; Network enforces that.
    """
    T = lattice.shape[0]
    if len(frame_labels) != T:
        raise ValueError("%d frame labels for %d frames" % (len(frame_labels), T))
    positions = np.arange(net.lookahead, T)
    targets = np.asarray(frame_labels)[positions - net.lookahead]
    loss = -float(lattice[positions, targets].sum())
    grad = np.zeros_like(lattice)
    grad[positions] = np.exp(lattice[positions])
    grad[positions, targets] -= 1.0
    return loss, grad, len(positions)


def classifier_frame_predictions(net, lattice):
    """Predicted label id per original frame.

    The prediction for frame s comes from output position s + lookahead;
    the last `lookahead` frames reuse the final output, which is all the
    model has seen when the stream ends.
    """
    T = lattice.shape[0]
    best = np.argmax(lattice, axis=1)
    idx = np.minimum(np.arange(T) + net.lookahead, T - 1)
    return best[idx]


def _loss(model, lattice, target):
    """(loss, logit gradient, labels counted) of one lattice under the
    model's mode: CTC counts target labels, the frame classifier scored
    frames.  Raises InfeasibleTargetError when no CTC alignment fits."""
    if model.mode == "frame-classifier":
        return frame_loss_and_gradient(model, lattice, target)
    loss, d_logits = ctc_loss_and_gradient(lattice, target)
    return loss, d_logits, len(target)


def decode_utterances(model, features):
    """Greedy output label ids for each utterance, in input order.

    The collapsed best path for the CTC modes, one prediction per frame for
    the frame classifier, and () for an utterance too short for the model's
    down-sampling, which scoring counts as a full deletion.
    """
    hyps = [()] * len(features)
    for i, lattice in forward_batches(model, features):
        if model.mode == "frame-classifier":
            hyps[i] = classifier_frame_predictions(model, lattice)
        else:
            hyps[i] = greedy_decode(lattice)
    return hyps


def evaluate(model, utterances):
    """Pooled dev metric for the model's mode: WER/PER for CTC, FER otherwise.

    Utterances too short to run through the network count as fully deleted
    rather than being dropped.
    """
    return _evaluate_prepared(model, _prepare(utterances, model))


def _evaluate_prepared(model, prepared):
    compare = frame_errors if model.mode == "frame-classifier" else edit_distance
    hyps = decode_utterances(model, [features for _, features, _ in prepared])
    return error_rate(pool(compare(target, hyp) for (_, _, target), hyp in zip(prepared, hyps)))


def training_perplexity(model, utterances):
    """Summed negative log-likelihood divided by the number of labels.

    CTC modes count target labels; the frame classifier counts scored
    frames.  Infeasible and too-short utterances contribute +inf.
    """
    prepared = _prepare(utterances, model)
    losses = [math.inf] * len(prepared)
    counts = [len(target) for _, _, target in prepared]
    for i, lattice in forward_batches(model, [features for _, features, _ in prepared]):
        try:
            losses[i], _, counts[i] = _loss(model, lattice, prepared[i][2])
        except InfeasibleTargetError:
            pass  # its loss stays +inf
    n_labels = sum(counts)
    if n_labels == 0:
        raise ValueError("no labels to normalize by")
    return sum(losses) / n_labels


def _feasible(model, features, target):
    """Whether an utterance can train: its lattice, len(features) >> m rows
    under m halvings, has a row and, under CTC, min_frames(target) rows."""
    rows = len(features) >> sum(model.downsample)
    return rows > 0 and (model.mode == "frame-classifier" or rows >= min_frames(target))


def train(model, train_utterances, dev_utterances, cfg):
    """Run the two-phase recipe; returns the best-on-dev model and epoch log.

    The epochs run as one schedule of (phase, step size); phase 2 starts
    from the best model of phase 1.  Every epoch shuffles all utterances
    deterministically from cfg.seed.  Infeasible utterances, whose lattice
    has fewer rows than their target needs, are found once, logged once
    and skipped in every epoch, which counts them; TrainingError is raised
    before the first epoch when every utterance is infeasible, and during
    training at a lattice that gives a target it has frames for zero
    probability, a non-finite loss or gradient norm, before the update it
    would corrupt, and an update that overflows.
    """
    _check_splits(train_utterances, dev_utterances)
    if cfg.mode != model.mode:
        raise ValueError("config mode %r != model mode %r" % (cfg.mode, model.mode))
    schedule = ([(1, cfg.phase1_lr)] * cfg.phase1_epochs
                + [(2, cfg.phase2_lr * cfg.phase2_decay ** k) for k in range(cfg.phase2_epochs)])
    model = model.copy()
    rng = np.random.default_rng(cfg.seed)
    prepared = _prepare(train_utterances, model)
    dev_prepared = _prepare(dev_utterances, model)
    if not any(target for _, _, target in dev_prepared):
        raise ValueError("no dev utterance has a target to score against")
    feasible = [_feasible(model, features, target) for _, features, target in prepared]
    if not any(feasible):
        raise TrainingError("every utterance is infeasible")
    skipped = [utt_id for (utt_id, _, _), ok in zip(prepared, feasible) if not ok]
    if skipped:
        log.warning("skipping %d of %d utterances, too short for their targets: %s",
                    len(skipped), len(prepared), " ".join(skipped))

    records = []
    best = None
    for epoch, (phase, lr) in enumerate(schedule, 1):
        if best is not None and epoch == cfg.phase1_epochs + 1:
            model = best.model.copy()
        loss_sum = 0.0
        n_labels = 0
        clip_events = 0
        for i in rng.permutation(len(prepared)):
            if not feasible[i]:
                continue
            utt_id, features, target = prepared[i]
            where = "epoch %d: utterance %s" % (epoch, utt_id)
            # a diverging step overflows on its way to the loss and norm
            # checks, which name it; numpy's warnings would not
            with np.errstate(all="ignore"):
                lattice, tape = network_forward(model, features)
                try:
                    loss, d_logits, n = _loss(model, lattice, target)
                except InfeasibleTargetError:
                    # _feasible gave the target rows enough, so the network diverged
                    raise TrainingError("%s: the %d-frame lattice gives the target zero "
                                        "probability" % (where, len(lattice))) from None
                if not math.isfinite(loss):
                    raise TrainingError("%s: loss is %r" % (where, loss))
                grads, _ = network_backward(model, tape, d_logits)
                try:
                    step, factor = clip_global_norm(grads.flat, cfg.clip_norm)
                except FloatingPointError as exc:
                    raise TrainingError("%s: %s" % (where, exc)) from None
            try:
                with np.errstate(over="raise", invalid="raise"):
                    sgd_update(model, step, lr)
            except FloatingPointError as exc:
                raise TrainingError("%s: update at step size %r: %s" % (where, lr, exc)) from None
            clip_events += factor < 1.0
            loss_sum += loss
            n_labels += n
        dev_metric = _evaluate_prepared(model, dev_prepared)
        perplexity = loss_sum / n_labels if n_labels else math.inf
        records.append(EpochRecord(epoch, phase, lr, loss_sum, perplexity, dev_metric,
                                   len(skipped), clip_events))
        if best is None or dev_metric < best.best_metric:
            best = TrainResult(model.copy(), records, epoch, dev_metric, len(prepared))
    return best


def _vocab_for_mode(mode, lexicon):
    labels = lexicon.inventory if mode == "phoneme-ctc" else sorted(lexicon.words)
    return Vocabulary(labels, MODES[mode][0])


def run(spec, lexicon, train_utterances, dev_utterances, init_from=None):
    """`train` on the corpus as `wordctc train` does: phoneme CTC converts both
    splits through the lexicon, the training set is cut to the data share,
    and the fresh network takes `init_from`'s bottom layers when given one."""
    _check_splits(train_utterances, dev_utterances)
    mode = spec.config.mode
    if mode == "phoneme-ctc":
        train_utterances = convert_transcripts_to_phonemes(train_utterances, lexicon)
        dev_utterances = convert_transcripts_to_phonemes(dev_utterances, lexicon)
    init_seed, shuffle_seed, subset_seed = np.random.SeedSequence(spec.seed).spawn(3)
    train_utterances = subset(train_utterances, spec.data_fraction, subset_seed)
    model = Network.random(train_utterances[0].features.shape[1], [spec.hidden] * spec.layers,
                           _vocab_for_mode(mode, lexicon), mode,
                           downsample=downsample_schedule(spec.downsample, spec.layers),
                           seed=init_seed)
    if init_from is not None:
        model = transfer_bottom_layers(init_from, model, spec.init_layers)
    return train(model, train_utterances, dev_utterances, replace(spec.config, seed=shuffle_seed))


def format_train_log(records):
    """One TSV record per epoch, fields in fixed order:
    epoch, phase, lr, train_loss, train_perplexity, dev_metric, skipped."""
    return table_tsv((r.epoch, r.phase, r.lr, r.train_loss, r.train_perplexity, r.dev_metric,
                      r.skipped) for r in records)
