"""Brute-force reference implementations: exhaustive joint-score sequence
search, CTC probability by alignment enumeration, and transducer probability
by monotonic-alignment enumeration.

These are deliberately naive. They exist so every decoder in the package can
be checked against an independent computation on tiny inputs, and they guard
themselves with hard enumeration budgets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from .core import NEG_INF, EmissionMatrix, Vocabulary, logsumexp
from .scorers import FullScorer, PartialScorer


@dataclass(frozen=True)
class OracleBudget:
    """Hard caps guarding exponential enumeration."""

    max_vocab: int = 4
    max_frames: int = 6
    max_len: int = 5
    max_enumeration: int = 10_000_000


DEFAULT_BUDGET = OracleBudget()


def _check_budget(size: float, budget: OracleBudget) -> None:
    if size > budget.max_enumeration:
        raise ValueError(
            f"oracle enumeration of {size:.3g} paths exceeds the budget "
            f"({budget.max_enumeration})"
        )


def _collapse(path: Sequence[int], blank_id: int) -> Tuple[int, ...]:
    out = []
    prev = -1
    for p in path:
        if p != prev and p != blank_id:
            out.append(p)
        prev = p
    return tuple(out)


def oracle_ctc_prob(
    emission: EmissionMatrix,
    labels: Sequence[int],
    blank_id: int,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> float:
    """ln p(labels) as the sum over all V^T frame paths that collapse to
    labels."""
    T, V = emission.frames, emission.vocab_size
    if T > budget.max_frames or V > budget.max_vocab:
        raise ValueError(f"instance T={T}, V={V} exceeds the oracle budget")
    _check_budget(float(V) ** T, budget)
    labels = tuple(labels)
    x = emission[:, :]
    terms = []
    for path in itertools.product(range(V), repeat=T):
        if _collapse(path, blank_id) != labels:
            continue
        terms.append(float(sum(x[t, p] for t, p in enumerate(path))))
    return logsumexp(terms) if terms else NEG_INF


def score_sequence(
    seq_with_eos: Sequence[int],
    vocab: Vocabulary,
    emission: EmissionMatrix,
    full_scorers: Dict[str, FullScorer],
    partial_scorers: Dict[str, PartialScorer],
    weights: Dict[str, float],
    length_penalty: float = 0.0,
) -> float:
    """Exact joint weighted score of one eos-terminated sequence.

    Steps token by token with carried scorer states, accumulating in the same
    order as the beam search (full scorers by name, then partial scorers by
    name, then the previous total), including final adjustments at eos.
    """
    fulls = {k: v for k, v in sorted(full_scorers.items()) if weights[k] > 0.0}
    parts = {k: v for k, v in sorted(partial_scorers.items()) if weights[k] > 0.0}
    names = sorted(set(fulls) | set(parts))
    states: Dict[str, Any] = {}
    for name in names:
        scorer = fulls[name] if name in fulls else parts[name]
        states[name] = scorer.init_state(emission)

    prefix: Tuple[int, ...] = (vocab.sos_id,)
    total = 0.0
    for token in seq_with_eos:
        step = 0.0
        for name, scorer in fulls.items():
            vec, scored = scorer.score(prefix, states[name], emission)
            step = step + weights[name] * vec[token]
            states[name] = scorer.select_state(scored, token)
        for name, scorer in parts.items():
            pvec, scored = scorer.score_partial(
                prefix, np.array([token], dtype=np.int64), states[name], emission
            )
            step = step + weights[name] * pvec[0]
            states[name] = scorer.select_state(scored, token)
        if length_penalty:
            step = step + length_penalty
        total = step + total
        prefix = prefix + (token,)
    for name in names:
        scorer = fulls[name] if name in fulls else parts[name]
        adj = float(scorer.final_score(prefix, states[name], emission))
        if adj != 0.0:
            total = total + weights[name] * adj
    return float(total)


def oracle_best_sequence(
    vocab: Vocabulary,
    emission: EmissionMatrix,
    full_scorers: Dict[str, FullScorer],
    weights: Dict[str, float],
    max_len: int,
    partial_scorers: Optional[Dict[str, PartialScorer]] = None,
    budget: OracleBudget = DEFAULT_BUDGET,
    length_penalty: float = 0.0,
) -> Tuple[Tuple[int, ...], float]:
    """Argmax of the exact joint weighted score over all label sequences of
    length <= max_len, each terminated by eos. Ties prefer the
    lexicographically smaller sequence."""
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    if max_len > budget.max_len:
        raise ValueError(f"max_len={max_len} exceeds the oracle budget")
    labels = vocab.label_ids()
    n_seqs = sum(len(labels) ** l for l in range(max_len + 1))
    _check_budget(float(n_seqs), budget)
    partial_scorers = partial_scorers or {}

    def score(seq: Tuple[int, ...]) -> float:
        return score_sequence(
            seq + (vocab.eos_id,), vocab, emission,
            full_scorers, partial_scorers, weights, length_penalty,
        )

    best = ((), score(()))
    for length in range(1, max_len + 1):
        for seq in itertools.product(labels, repeat=length):
            total = score(seq)
            if total > best[1] or (total == best[1] and seq < best[0]):
                best = (seq, total)
    return best


def oracle_transducer_prob(
    model,
    frames: int,
    labels: Sequence[int],
    budget: OracleBudget = DEFAULT_BUDGET,
) -> float:
    """ln p(labels) as the sum over every monotonic alignment interleaving
    len(labels) emissions with ``frames`` blanks."""
    labels = tuple(labels)
    U = len(labels)
    _check_budget(float(math.comb(frames + U, U)), budget)
    blank = model.num_labels
    terms = []
    slots = frames + U
    for label_positions in itertools.combinations(range(slots), U):
        label_set = set(label_positions)
        t = 0
        u = 0
        state = model.pred_init()
        logp = 0.0
        feasible = True
        for slot in range(slots):
            if t >= frames:
                feasible = False  # emissions after the last frame advance
                break
            row = model.joint(t, state)
            if slot in label_set:
                logp += float(row[labels[u]])
                state = model.pred_step(state, labels[u])
                u += 1
            else:
                logp += float(row[blank])
                t += 1
        if feasible:
            terms.append(logp)
    return logsumexp(terms) if terms else NEG_INF
