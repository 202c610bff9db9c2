"""CTC utilities: forward scoring, greedy decoding, Viterbi forced alignment
with token time spans, and blank-posterior voice activity segmentation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .core import NEG_INF, EmissionMatrix, InfeasibleError


def _expand_labels(labels: Sequence[int], blank_id: int) -> Tuple[np.ndarray, np.ndarray]:
    """Blank-interleaved label sequence b l1 b l2 ... b lU b, and the states
    s that may also be entered from s-2 (a label unlike the one before it)."""
    expanded = np.full(2 * len(labels) + 1, blank_id, dtype=np.int64)
    expanded[1::2] = labels
    jump = np.flatnonzero(expanded[2:] != expanded[:-2]) + 2
    return expanded, jump


def _check_blank(blank_id: int, vocab_size: int) -> None:
    if not 0 <= blank_id < vocab_size:
        raise ValueError(f"blank_id {blank_id} outside [0, {vocab_size})")


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
    x = emission.data
    T = emission.frames
    expanded, jump = _expand_labels(labels, blank_id)
    S = len(expanded)

    alpha = np.full(S, NEG_INF)
    alpha[:2] = x[0, expanded[:2]]
    for t in range(1, T):
        acc = alpha.copy()
        np.logaddexp(acc[1:], alpha[:-1], out=acc[1:])
        acc[jump] = np.logaddexp(acc[jump], alpha[jump - 2])
        alpha = acc + x[t, expanded]
    if S == 1:
        return float(alpha[0])
    return float(np.logaddexp(alpha[S - 1], alpha[S - 2]))


def ctc_greedy(emission: EmissionMatrix, blank_id: int) -> Tuple[int, ...]:
    """Per-frame argmax, collapse repeats, drop blanks."""
    ids = np.argmax(emission.data, axis=1)
    out: List[int] = []
    prev = -1
    for i in ids:
        i = int(i)
        if i != prev and i != blank_id:
            out.append(i)
        prev = i
    return tuple(out)


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
    x = emission.data
    T = emission.frames
    expanded, jump = _expand_labels(labels, blank_id)
    S = len(expanded)

    delta = x[:, expanded]  # row t gains its best predecessor's score in turn
    delta[0, 2:] = NEG_INF
    back = np.zeros((T, S), dtype=np.int64)
    for t in range(1, T):
        # candidate predecessors in tie-break priority: stay, s-1, s-2, each
        # taken only when strictly better than the ones before it
        prev = delta[t - 1]
        best = prev.copy()
        arg = np.arange(S)
        step = prev[:-1] > best[1:]
        best[1:][step] = prev[:-1][step]
        arg[1:][step] -= 1
        skip = jump[prev[jump - 2] > best[jump]]
        best[skip] = prev[skip - 2]
        arg[skip] = skip - 2
        delta[t] += best
        back[t] = arg

    if S == 1:
        end_state, score = 0, float(delta[T - 1, 0])
    else:
        # on a tie prefer the final blank (the "stay"-most terminal)
        if delta[T - 1, S - 1] >= delta[T - 1, S - 2]:
            end_state, score = S - 1, float(delta[T - 1, S - 1])
        else:
            end_state, score = S - 2, float(delta[T - 1, S - 2])
    if score == NEG_INF:
        raise InfeasibleError(
            f"labels of expanded length {S} cannot be aligned within {T} frames"
        )

    states = np.zeros(T, dtype=np.int64)
    states[T - 1] = end_state
    for t in range(T - 1, 0, -1):
        states[t - 1] = back[t, states[t]]

    path = tuple(int(expanded[s]) for s in states)
    spans: List[TokenSpan] = []
    cur_state = -1
    for t, s in enumerate(states):
        s = int(s)
        if s % 2 == 1:  # odd expanded states carry labels
            if s != cur_state:
                spans.append(TokenSpan(token=int(expanded[s]), start=t, end=t + 1))
            else:
                last = spans[-1]
                spans[-1] = TokenSpan(token=last.token, start=last.start, end=t + 1)
        cur_state = s
    return Alignment(path=path, spans=tuple(spans), score=score)


@dataclass(frozen=True)
class Segment:
    start: int
    end: int  # half-open [start, end)
    kind: str  # "speech" | "nonspeech"


def _active_runs(active: np.ndarray) -> List[Tuple[int, int]]:
    runs: List[Tuple[int, int]] = []
    start = None
    for t, a in enumerate(active):
        if a and start is None:
            start = t
        elif not a and start is not None:
            runs.append((start, t))
            start = None
    if start is not None:
        runs.append((start, len(active)))
    return runs


def merge_runs(runs: Sequence[Tuple[int, int]], min_gap: int) -> List[Tuple[int, int]]:
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
    if not 0.0 <= on_threshold <= 1.0:
        raise ValueError("on_threshold must be in [0, 1]")
    if min_gap_frames < 0 or margin_frames < 0:
        raise ValueError("min_gap_frames and margin_frames must be >= 0")
    _check_blank(blank_id, emission.vocab_size)
    T = emission.frames
    speech_prob = 1.0 - np.exp(emission.data[:, blank_id])
    active = speech_prob >= on_threshold

    runs = _active_runs(active)
    runs = merge_runs(runs, min_gap_frames)
    widened = [(max(0, s - margin_frames), min(T, e + margin_frames)) for s, e in runs]
    # widening can make neighbours touch or overlap; collapse them
    runs = merge_runs(widened, 1)

    segments: List[Segment] = []
    cursor = 0
    for start, end in runs:
        if start > cursor:
            segments.append(Segment(cursor, start, "nonspeech"))
        segments.append(Segment(start, end, "speech"))
        cursor = end
    if cursor < T:
        segments.append(Segment(cursor, T, "nonspeech"))
    return segments
