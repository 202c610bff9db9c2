"""CTC utilities: forward scoring, greedy decoding and the Mask-CTC collapse,
Viterbi forced alignment with token time spans, and blank-posterior voice
activity segmentation; all but the forward score read runs (``_runs``)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .core import NEG_INF, EmissionMatrix, InfeasibleError


def _expand_labels(labels: Sequence[int], blank_id: int) -> Tuple[np.ndarray, np.ndarray]:
    """Blank-interleaved label sequence b l1 b l2 ... b lU b, and for each
    label state from s = 3 on (odd s) the term its s-2 predecessor adds: 0.0
    for a label unlike the one before it, else -inf (no such edge)."""
    expanded = np.full(2 * len(labels) + 1, blank_id, dtype=np.int64)
    expanded[1::2] = labels
    return expanded, np.where(expanded[3::2] != expanded[1:-2:2], 0.0, NEG_INF)


def _check_blank(blank_id: int, vocab_size: int) -> None:
    if not 0 <= blank_id < vocab_size:
        raise ValueError(f"blank_id {blank_id} outside [0, {vocab_size})")


def _check_vad(blank_id: int, vocab_size: int, on_threshold: float = 0.0,
               min_gap_frames: int = 0, margin_frames: int = 0) -> None:
    """``ctc_vad``'s argument checks; an option left out passes."""
    if not 0.0 <= on_threshold <= 1.0:
        raise ValueError("on_threshold must be in [0, 1]")
    if min_gap_frames < 0 or margin_frames < 0:
        raise ValueError("min_gap_frames and margin_frames must be >= 0")
    _check_blank(blank_id, vocab_size)


def _validate_labels(labels: Sequence[int], blank_id: int, vocab_size: int) -> Tuple[int, ...]:
    _check_blank(blank_id, vocab_size)
    labels = tuple(int(x) for x in labels)
    for lab in labels:
        if lab == blank_id:
            raise ValueError("labels must not contain the blank id")
        if not 0 <= lab < vocab_size:
            raise ValueError(f"label {lab} outside vocabulary [0, {vocab_size})")
    return labels


def ctc_forward(emission: EmissionMatrix, labels: Sequence[int], blank_id: int) -> float:
    """Exact log p(labels | emission): forward algorithm over the
    blank-interleaved expansion. Returns -inf when the expansion cannot fit
    within T frames."""
    labels = _validate_labels(labels, blank_id, emission.vocab_size)
    T = emission.frames
    expanded, skip = _expand_labels(labels, blank_id)
    S = len(expanded)

    xs = emission[:, expanded]
    alpha = np.full(S, NEG_INF)
    alpha[:2] = xs[0, :2]
    acc, hop = np.empty(S), np.empty_like(skip)
    for t in range(1, T):
        # logaddexp(a, -inf) == a: a state without the s-2 edge keeps acc
        acc[0] = alpha[0]
        np.logaddexp(alpha[1:], alpha[:-1], out=acc[1:])
        np.add(alpha[1:-2:2], skip, out=hop)
        np.logaddexp(acc[3::2], hop, out=acc[3::2])
        np.add(acc, xs[t], out=alpha)
    if S == 1:
        return float(alpha[0])
    return float(np.logaddexp(alpha[S - 1], alpha[S - 2]))


def _runs(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal runs of one value along a non-empty 1-D array: each run's
    value, start and (half-open) end."""
    starts = np.concatenate(([0], np.flatnonzero(values[1:] != values[:-1]) + 1))
    ends = np.concatenate((starts[1:], [len(values)]))
    return values[starts], starts, ends


def ctc_confidence_collapse(
    emission: EmissionMatrix, blank_id: int
) -> Tuple[Tuple[int, ...], Tuple[float, ...]]:
    """Greedy per-frame argmax collapsed to tokens (the non-blank runs of the
    argmax path), each with the max linear-domain posterior over its run."""
    argmax = emission.frame_argmax()
    tokens, starts, _ = _runs(argmax)
    keep = tokens != blank_id
    peaks = emission[np.arange(len(argmax)), argmax]
    confidences = np.maximum.reduceat(np.exp(peaks), starts)[keep]
    return tuple(tokens[keep].tolist()), tuple(confidences.tolist())


@dataclass(frozen=True)
class TokenSpan:
    token: int
    start: int
    end: int  # half-open [start, end)


@dataclass(frozen=True)
class Alignment:
    """Best CTC path for a known transcript plus per-token frame spans."""

    path: Tuple[int, ...]
    spans: Tuple[TokenSpan, ...]
    score: float  # log-probability of the single best path


def ctc_forced_align(
    emission: EmissionMatrix, labels: Sequence[int], blank_id: int
) -> Alignment:
    """Viterbi (max-product) alignment over the CTC graph.

    Ties prefer staying in the current state over advancing, so spans are
    deterministic. Raises InfeasibleError when the expanded sequence cannot
    be traversed within T frames.
    """
    labels = _validate_labels(labels, blank_id, emission.vocab_size)
    T = emission.frames
    expanded, skip = _expand_labels(labels, blank_id)
    S = len(expanded)

    delta = emission[:, expanded]  # row t gains its best predecessor's score in turn
    delta[0, 2:] = NEG_INF
    best, hop = np.empty(S), np.empty_like(skip)
    for t in range(1, T):
        prev = delta[t - 1]
        best[0] = prev[0]
        np.maximum(prev[1:], prev[:-1], out=best[1:])
        np.add(prev[1:-2:2], skip, out=hop)
        np.maximum(best[3::2], hop, out=best[3::2])
        delta[t] += best

    # on a tie prefer the final blank (the "stay"-most terminal)
    end_state = S - 1 if S == 1 or delta[T - 1, S - 1] >= delta[T - 1, S - 2] else S - 2
    score = float(delta[T - 1, end_state])
    if score == NEG_INF:
        raise InfeasibleError(
            f"labels of expanded length {S} cannot be aligned within {T} frames"
        )

    # predecessors in tie-break priority: stay, s-1, s-2, each taken only
    # when strictly better than the ones before it
    ex = expanded.tolist()
    states = np.empty(T, dtype=np.int64)
    s = states[T - 1] = end_state
    for t in range(T - 1, 0, -1):
        prev = delta[t - 1]
        best_prev, arg = prev[s], s
        if s and prev[s - 1] > best_prev:
            best_prev, arg = prev[s - 1], s - 1
        if s >= 2 and ex[s] != ex[s - 2] and prev[s - 2] > best_prev:
            arg = s - 2
        s = states[t - 1] = arg

    # odd expanded states carry labels; each run of one is a token's span
    state, starts, ends = _runs(states)
    odd = state % 2 == 1
    spans = tuple(map(TokenSpan, expanded[state[odd]].tolist(),
                      starts[odd].tolist(), ends[odd].tolist()))
    return Alignment(path=tuple(expanded[states].tolist()), spans=spans, score=score)


@dataclass(frozen=True)
class Segment:
    start: int
    end: int  # half-open [start, end)
    kind: str  # "speech" | "nonspeech"


def merge_runs(runs: Iterable[Tuple[int, int]], min_gap: int) -> List[Tuple[int, int]]:
    """Merge runs separated by fewer than min_gap frames. Idempotent."""
    merged: List[Tuple[int, int]] = []
    for start, end in runs:
        if merged and start - merged[-1][1] < min_gap:
            merged[-1] = (merged[-1][0], max(end, merged[-1][1]))
        else:
            merged.append((start, end))
    return merged


def ctc_vad(
    emission: EmissionMatrix,
    blank_id: int,
    on_threshold: float = 0.5,
    min_gap_frames: int = 0,
    margin_frames: int = 0,
) -> List[Segment]:
    """Blank-posterior voice activity detection.

    Frame t is speech-active iff 1 - exp(emission[t][blank]) >= on_threshold.
    Active runs closer than min_gap_frames merge, each run is widened by
    margin_frames and clipped to [0, T); the complement is nonspeech. The
    returned segments tile [0, T) exactly.
    """
    _check_vad(blank_id, emission.vocab_size, on_threshold, min_gap_frames, margin_frames)
    T = emission.frames
    speech_prob = 1.0 - np.exp(emission[:, blank_id])

    active, starts, ends = _runs(speech_prob >= on_threshold)
    runs = merge_runs(zip(starts[active].tolist(), ends[active].tolist()), min_gap_frames)
    # widening can make neighbours touch or overlap; the mask joins them
    speech = np.zeros(T, dtype=bool)
    for start, end in runs:
        speech[max(0, start - margin_frames):end + margin_frames] = True
    kinds, starts, ends = _runs(speech)
    return [
        Segment(start, end, "speech" if kind else "nonspeech")
        for kind, start, end in zip(kinds.tolist(), starts.tolist(), ends.tolist())
    ]
