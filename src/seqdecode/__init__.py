"""Model-agnostic sequence decoding over emission lattices.

The package decodes T x V log-probability matrices (stand-ins for
encoder-plus-softmax output) with pluggable scorers: label-synchronous beam
search with joint CTC / attention-table / LM weighting in sequential and
vectorized-batch variants, five transducer procedures, non-autoregressive
mask-predict refinement, CTC forward scoring, forced alignment, and
blank-posterior VAD, plus brute-force oracles for verifying all of it on
tiny inputs.
"""

from .beam_search import BeamConfig, batch_beam_search, beam_search
from .core import (
    ConfigError,
    DecodeError,
    EmissionMatrix,
    FormatError,
    InfeasibleError,
    NBestList,
    Vocabulary,
    load_emission,
    save_emission,
)
from .ctc import Alignment, ctc_forced_align, ctc_forward, ctc_vad
from .lm import (
    LookAheadLMScorer,
    MultiLevelLMScorer,
    WordTrie,
    load_arpa,
    load_lexicon,
    ngram_score,
    sentence_logprob,
)
from .maskctc import (
    MaskCtcConfig,
    MLMScorer,
    TableMLM,
    ctc_confidence_collapse,
    mask_ctc_decode,
)
from .oracle import (
    OracleBudget,
    oracle_best_sequence,
    oracle_ctc_prob,
    oracle_transducer_prob,
)
from .scorers import (
    CTCPrefixScorer,
    FullScorer,
    PartialScorer,
    TableScorer,
)
from .transducer import (
    TableTransducer,
    TransducerBeamConfig,
    TransducerModel,
    transducer_alsd,
    transducer_beam,
    transducer_decode,
    transducer_greedy,
    transducer_nsc,
    transducer_tsd,
)

__version__ = "0.1.0"
