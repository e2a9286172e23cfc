"""Acoustics-to-word CTC toolkit.

Exact CTC loss and gradients via log-space dynamic programming, a
from-scratch LSTM stack with inter-layer frame down-sampling, transfer
initialization between model types, edit-distance scoring, an
embedding-space analysis suite, and a seedable synthetic corpus generator
that makes everything runnable at desk scale.
"""

from .analysis import (
    BlankDistanceReport,
    EmbeddingMatrix,
    FrequencyMarginTable,
    NeighborList,
    OverlapHistograms,
    blank_distance_report,
    embedding_matrix,
    frequency_margin_table,
    margin,
    neighbors,
    overlap_histograms,
    permutation_pvalue,
    pronunciation_overlap,
)
from .ctc import (
    BLANK,
    InfeasibleTargetError,
    Vocabulary,
    collapse,
    ctc_log_likelihood,
    ctc_loss_and_gradient,
    enumerate_preimage,
    greedy_decode,
    min_frames,
    path_log_prob,
)
from .data import (
    SIL,
    DataFormatError,
    FeatureFileError,
    Lexicon,
    ManifestError,
    SynthConfig,
    SynthCorpus,
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
from .metrics import EditStats, edit_distance, error_rate, frame_errors, pool
from .network import (
    LSTMLayer,
    Network,
    NetworkFormatError,
    SequenceTooShortError,
    StaleTapeError,
    downsample,
    downsample_schedule,
    load_network,
    lstm_backward,
    lstm_forward,
    network_backward,
    network_forward,
    save_network,
    sgd_update,
    transfer_bottom_layers,
)
from .numerics import clip_global_norm, global_norm, log_softmax
from .training import (
    EpochRecord,
    TrainConfig,
    TrainResult,
    TrainingError,
    convert_transcripts_to_phonemes,
    decode_utterance,
    evaluate,
    format_train_log,
    train,
    training_perplexity,
)

__version__ = "0.1.0"
