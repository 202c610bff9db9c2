"""Non-autoregressive Mask-CTC decoding: greedy CTC output is refined by a
conditional masked LM with the mask-predict schedule, in a fixed number of
iterations regardless of sequence length."""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    ConfigError,
    DecodeError,
    EmissionMatrix,
    Vocabulary,
    format_key,
    log_rows,
    parse_key,
    read_json,
    write_json,
)
from .ctc import ctc_confidence_collapse  # a module global: a tracer may swap it


class MLMScorer(abc.ABC):
    """Conditional masked LM contract: given tokens with mask_id at unknown
    positions, predict a normalised V-vector for each masked position."""

    @abc.abstractmethod
    def predict(self, tokens: Sequence[int]) -> Dict[int, np.ndarray]:
        """Map each masked position (exactly those) to V log-probs."""


class TableMLM(MLMScorer):
    """Pattern table stand-in for a trained masked LM.

    Patterns key on the masked sequence (mask positions as None); unknown
    patterns fall back to uniform predictions. It keeps the caller's row
    arrays without a copy and makes them read-only.
    """

    def __init__(
        self,
        vocab_size: int,
        mask_id: int,
        patterns: Optional[Dict[Tuple[Optional[int], ...], Dict[int, np.ndarray]]] = None,
    ):
        if vocab_size < 2:
            raise ConfigError("vocab_size must be >= 2")
        self.vocab_size = vocab_size
        self.mask_id = mask_id
        self.patterns: Dict[Tuple[Optional[int], ...], Dict[int, np.ndarray]] = {
            tuple(pattern): {
                int(pos): log_rows(row, (vocab_size,),
                                   lambda: f"masked-LM row for pattern {pattern} position {pos}")
                for pos, row in dists.items()
            }
            for pattern, dists in (patterns or {}).items()
        }

    def predict(self, tokens: Sequence[int]) -> Dict[int, np.ndarray]:
        key = tuple(None if t == self.mask_id else int(t) for t in tokens)
        masked = [i for i, t in enumerate(key) if t is None]
        table = self.patterns.get(key)
        uniform = np.full(self.vocab_size, -math.log(self.vocab_size))
        out: Dict[int, np.ndarray] = {}
        for pos in masked:
            if table is not None and pos in table:
                out[pos] = table[pos]
            else:
                out[pos] = uniform
        return out

    def save(self, path: str) -> None:
        write_json(path, {
            "vocab_size": self.vocab_size,
            "patterns": {
                format_key(pattern): {str(pos): row.tolist() for pos, row in dists.items()}
                for pattern, dists in self.patterns.items()
            },
        })

    @classmethod
    def load(cls, path: str, mask_id: int) -> "TableMLM":
        return read_json(path, "masked-LM", lambda payload: cls(
            vocab_size=int(payload["vocab_size"]), mask_id=mask_id,
            patterns={
                parse_key(k, masks=True): {int(pos): row for pos, row in dists.items()}
                for k, dists in payload["patterns"].items()
            },
        ))


@dataclass(frozen=True)
class MaskCtcConfig:
    threshold: float = 0.5  # confidences below this are masked
    iterations: int = 1  # mask-predict iteration budget K

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError("threshold must be in [0, 1]")
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")


@dataclass(frozen=True)
class MaskCtcResult:
    """Decode output plus the trace needed to audit the NAR contract."""

    tokens: Tuple[int, ...]
    initial_tokens: Tuple[int, ...]  # post-collapse, pre-masking
    mlm_calls: int
    masked_counts: Tuple[int, ...]  # masked positions before each iteration


def mask_ctc_decode(
    emission: EmissionMatrix,
    mlm: MLMScorer,
    vocab: Vocabulary,
    config: MaskCtcConfig,
) -> MaskCtcResult:
    """Collapse CTC output, mask low-confidence tokens, then fill masks over
    at most K masked-LM calls: each iteration fills the
    ceil(remaining / (K - iteration)) positions with the most confident
    predictions, substituting their argmax tokens.

    A fill is a label (``vocab.label_ids()``): never the blank, sos, eos or
    the mask. Confidence and argmax read each row at the labels only, and
    ties go to the smallest label id; a row with no finite label score is a
    ``DecodeError``."""
    if vocab.mask_id is None:
        raise ConfigError("mask_ctc_decode needs a vocabulary with mask_id")
    vocab.check_emission_width(emission.vocab_size)
    mask_id = vocab.mask_id
    initial, confidences = ctc_confidence_collapse(emission, vocab.blank_id)
    # a literal mask token in the collapse is unknown content by definition
    masked = [
        i for i, (tok, conf) in enumerate(zip(initial, confidences))
        if conf < config.threshold or tok == mask_id
    ]
    seq = list(initial)
    for i in masked:
        seq[i] = mask_id

    labels = np.array(vocab.label_ids())
    calls = 0
    masked_counts: List[int] = []
    K = config.iterations
    for it in range(K):
        if not masked:
            break
        masked_counts.append(len(masked))
        preds = mlm.predict(seq)
        calls += 1
        if set(preds) != set(masked):
            raise ConfigError(
                "masked LM must predict exactly the masked positions: "
                f"expected {sorted(masked)}, got {sorted(preds)}"
            )
        n_fill = math.ceil(len(masked) / (K - it))
        fill: Dict[int, np.ndarray] = {}
        for pos in masked:
            row = np.asarray(preds[pos], dtype=np.float64)
            if row.shape != (vocab.size,):
                raise ConfigError(f"masked-LM row {pos} has shape {row.shape}, not ({vocab.size},)")
            fill[pos] = row.take(labels)
            if not fill[pos].max(initial=-np.inf) > -np.inf:
                raise DecodeError(f"masked-LM row {pos} gives no label a finite score")
        ranked = sorted(
            masked, key=lambda pos: (-float(np.max(fill[pos])), pos)
        )[:n_fill]
        for pos in ranked:
            seq[pos] = int(labels[np.argmax(fill[pos])])
        filled = set(ranked)
        masked = [i for i in masked if i not in filled]
    if masked:
        raise DecodeError(
            f"mask-predict schedule left {len(masked)} masks after {K} iterations"
        )
    return MaskCtcResult(
        tokens=tuple(seq),
        initial_tokens=initial,
        mlm_calls=calls,
        masked_counts=tuple(masked_counts),
    )
