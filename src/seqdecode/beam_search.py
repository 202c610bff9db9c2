"""Label-synchronous beam search combining weighted full and partial scorers.

One search loop serves two scorer-call modes: ``batch_beam_search`` runs
each scorer's own batched kernel once per step over the whole beam, while
``beam_search`` runs the base-class kernels, which call ``score`` /
``score_partial`` once per live hypothesis. Selection and bookkeeping are
shared, so the two differ only in the scorer implementations they exercise;
their outputs are identical by contract (same token sequences, scores within
1e-9, same deterministic tie-break: score descending, then lexicographically
smaller token sequence).

Per step: full scorers rate all V extensions of every live hypothesis; the
top-P candidates per hypothesis by weighted full-scorer total form the
pre-beam; partial scorers rate only those. The top-B cells of the resulting
(B x P) score matrix are chosen before any successor exists, and only those
B successors are built (scorer states selected, hypotheses allocated). Both
selections partition first and sort only the cells they keep: the pre-beam
by a stable argsort per row unless ties cross a row's P-th score, the top-B
cells by a lexsort of those at or above the B-th best total.
Successors emitting eos move to the finished pool with per-scorer final
adjustments added.

Selection by bound: in the batched search, one partial scorer that bounds
its scores (the CTC prefix scorer) is scored after the others and rates
exactly only the cells whose upper-bound total reaches the beam_size-th
largest lower-bound total (asked at most once per step).
The other cells cannot enter the beam, so the selected cells, their order
and their states are those of scoring every cell exactly. The sequential
search scores every cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    ConfigError,
    EmissionMatrix,
    Hypothesis,
    NBestEntry,
    NBestList,
    Vocabulary,
    hypothesis_sort_key,
)
from .scorers import FullScorer, PartialScorer


@dataclass(frozen=True)
class BeamConfig:
    """Search-wide knobs.

    pre_beam_size defaults to min(V, ceil(1.5 * beam_size)) at search time.
    max_steps, when set, overrides the max_len_ratio-derived step cap (tests
    and oracle comparisons need exact caps). length_penalty is an optional
    additive per-token bonus, off by default so joint totals stay comparable
    to brute-force sequence scores.
    """

    weights: Dict[str, float]
    beam_size: int = 8
    pre_beam_size: Optional[int] = None
    max_len_ratio: float = 1.0
    min_len_ratio: float = 0.0
    end_detect_window: int = 3
    end_detect_margin: float = -10.0
    max_steps: Optional[int] = None
    length_penalty: float = 0.0

    def __post_init__(self) -> None:
        if self.beam_size < 1:
            raise ConfigError("beam_size must be >= 1")
        if self.pre_beam_size is not None and self.pre_beam_size < self.beam_size:
            raise ConfigError("pre_beam_size must be >= beam_size")
        if not 0.0 < self.max_len_ratio <= 1.0:
            raise ConfigError("max_len_ratio must be in (0, 1]")
        if not 0.0 <= self.min_len_ratio < 1.0:
            raise ConfigError("min_len_ratio must be in [0, 1)")
        if self.end_detect_window < 1:
            raise ConfigError("end_detect_window must be >= 1")
        if self.max_steps is not None and self.max_steps < 1:
            raise ConfigError("max_steps must be >= 1")
        for name, w in self.weights.items():
            if w < 0:
                raise ConfigError(f"weight for scorer {name!r} must be >= 0")


def end_detect(
    finished: Sequence[Hypothesis],
    step_best_scores: Sequence[float],
    window: int = 3,
    margin: float = -10.0,
) -> bool:
    """Stop when, for each of the last ``window`` steps, the best score
    produced at that step stayed below best-finished + margin."""
    if not finished or len(step_best_scores) < window:
        return False
    best = max(h.score for h in finished)
    threshold = best + margin
    return all(s < threshold for s in step_best_scores[-window:])


def top_candidate_ids(scores: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Top-k ids by score descending, ties broken by smaller id: (k,) for a
    score vector over ``ids``, (B, k) for a (B, len(ids)) score matrix.

    One partition finds each row's k-th best score; only the cells at or
    above it are sorted. When every row has exactly k of them and ``ids``
    ascend, they stand in id order, so a stable argsort of -score per row
    orders them; else (ties across the k-th score, unsorted ids) one lexsort
    keyed (row, -score, id) does.
    """
    mat = np.atleast_2d(scores)
    B, N = mat.shape
    k = min(k, N)
    if k == 0:
        return np.empty(np.shape(scores)[:-1] + (0,), dtype=ids.dtype)
    kth = np.partition(mat, N - k, axis=1)[:, N - k]
    rows, cols = np.nonzero(mat >= kth[:, None])
    if cols.size == B * k and (ids[:-1] <= ids[1:]).all():
        cols = cols.reshape(B, k)
        order = np.argsort(-np.take_along_axis(mat, cols, axis=1), axis=1, kind="stable")
        top = ids[np.take_along_axis(cols, order, axis=1)]
    else:
        order = np.lexsort((ids[cols], -mat[rows, cols], rows))
        starts = np.searchsorted(rows, np.arange(B))
        top = ids[cols[order[starts[:, None] + np.arange(k)]]]
    return top.reshape(np.shape(scores)[:-1] + (k,))


def _prunes(scorer: PartialScorer) -> bool:
    """Whether the scorer's ``batch_score_partial_pruned`` belongs to its
    ``batch_score_partial``: a subclass that re-implements the latter but
    inherits the former (a wrapper, a checker) takes the unpruned path."""
    def owner(attr: str) -> type:
        return next(c for c in type(scorer).__mro__ if attr in vars(c))

    pruned = owner("batch_score_partial_pruned")
    return pruned is not PartialScorer and issubclass(pruned, owner("batch_score_partial"))


class _SearchContext:
    """Validated scorer/weight wiring for one search."""

    def __init__(
        self,
        vocab: Vocabulary,
        full_scorers: Dict[str, FullScorer],
        partial_scorers: Dict[str, PartialScorer],
        config: BeamConfig,
        vocab_size: int,
    ):
        vocab.check_emission_width(vocab_size)
        names = set(full_scorers) | set(partial_scorers)
        if len(names) != len(full_scorers) + len(partial_scorers):
            raise ConfigError("scorer names must be unique across full and partial scorers")
        missing = names - set(config.weights)
        if missing:
            raise ConfigError(f"weights missing for scorers: {sorted(missing)}")
        unknown = set(config.weights) - names
        if unknown:
            raise ConfigError(f"weight given for unknown scorer: {sorted(unknown)}")
        # zero-weight scorers contribute nothing; drop them so 0 * -inf can
        # never poison a total and neutrality is exact
        self.full = {
            k: v for k, v in sorted(full_scorers.items()) if config.weights[k] > 0.0
        }
        self.partial = {
            k: v for k, v in sorted(partial_scorers.items()) if config.weights[k] > 0.0
        }
        if not self.full:
            raise ConfigError("at least one full scorer must have weight > 0")
        self.weights = config.weights
        self.vocab = vocab
        self.config = config
        self.vocab_size = vocab_size

        self.allowed_with_eos = np.array(vocab.candidate_ids(), dtype=np.int64)
        self.allowed_without_eos = np.array(vocab.label_ids(), dtype=np.int64)
        # at most one partial scorer prunes its scoring by bounds: the first
        # whose pruned entry is its batched kernel
        self.pruner = next((k for k, v in self.partial.items() if _prunes(v)), None)
        base = config.pre_beam_size
        if base is None:
            base = min(vocab_size, math.ceil(1.5 * config.beam_size))
        self.pre_beam_size = max(1, min(base, vocab_size))

    def allowed(self, eos_ok: bool) -> np.ndarray:
        return self.allowed_with_eos if eos_ok else self.allowed_without_eos

    def all_names(self) -> List[str]:
        return sorted(set(self.full) | set(self.partial))

    def check_width(self, name: str, vec: np.ndarray) -> None:
        if vec.shape[-1] != self.vocab_size:
            raise ConfigError(
                f"scorer {name!r} returned {vec.shape[-1]} scores for vocabulary "
                f"size {self.vocab_size}"
            )


def _initial_hypothesis(ctx: _SearchContext, emission: EmissionMatrix) -> Hypothesis:
    names = ctx.all_names()
    states = {}
    for name in names:
        scorer = ctx.full.get(name) or ctx.partial[name]
        states[name] = scorer.init_state(emission)
    return Hypothesis(
        yseq=(ctx.vocab.sos_id,),
        score=0.0,
        scores={name: 0.0 for name in names},
        states=states,
    )


def _totals(
    ctx: _SearchContext,
    full_part: np.ndarray,
    part_mats: Dict[str, np.ndarray],
    parent_scores: np.ndarray,
) -> np.ndarray:
    """Candidate totals: the weighted full-scorer part, plus each partial
    scorer's weighted score in name order, the length penalty and the
    parent's score. Every step is monotone in each partial score."""
    total = full_part
    for name in ctx.partial:
        total = total + ctx.weights[name] * part_mats[name]
    if ctx.config.length_penalty:
        total = total + ctx.config.length_penalty
    return total + parent_scores


def _may_reach_beam(
    ctx: _SearchContext,
    full_part: np.ndarray,
    part_mats: Dict[str, np.ndarray],
    parent_scores: np.ndarray,
    name: str,
    lo: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    """Cells whose total may reach the beam, given bounds lo <= score <= hi
    on scorer ``name`` and exact scores from every other scorer.

    Totals from the bounds bound the real totals, since ``_totals`` is
    monotone. With theta the beam_size-th largest lower-bound total, at
    least beam_size real totals are >= theta, so a cell whose upper-bound
    total is below theta can be neither selected nor outrank a selected
    cell, even when it holds its upper bound in place of its score. With
    fewer than beam_size finite lower-bound totals, theta is -inf and every
    cell is kept.
    """
    k = ctx.config.beam_size
    lo_total = _totals(ctx, full_part, {**part_mats, name: lo}, parent_scores)
    if lo_total.size < k:
        return np.ones(lo.shape, dtype=bool)
    theta = np.partition(lo_total, lo_total.size - k, axis=None)[lo_total.size - k]
    return _totals(ctx, full_part, {**part_mats, name: hi}, parent_scores) >= theta


def _top_cells(
    live: Sequence[Hypothesis], cand_mat: np.ndarray, cand_scores: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """(rows, columns) of the k best cells of the (B x P) candidate matrix,
    best first, under the successor order (score desc, yseq asc).

    One partition finds the k-th best total; only the cells at or above it
    (all when k >= B * P) are lexsorted, keyed (-total, parent rank, token).

    Every live yseq has the same length, so a successor's yseq orders as its
    parent's yseq, then its token. The parent's rank must come from sorting
    the live yseqs: their position in ``live`` follows score, not yseq.
    """
    B, P = cand_mat.shape
    parent_rank = np.empty(B, dtype=np.int64)
    parent_rank[sorted(range(B), key=lambda i: live[i].yseq)] = np.arange(B)
    totals = cand_scores.ravel()
    cells = np.arange(totals.size) if k >= totals.size else np.flatnonzero(
        totals >= np.partition(totals, -k)[-k])
    order = np.lexsort((cand_mat.ravel()[cells], parent_rank[cells // P], -totals[cells]))
    return np.divmod(cells[order[:k]], P)


def _finalize(ctx: _SearchContext, hyp: Hypothesis, emission: EmissionMatrix) -> Hypothesis:
    score = hyp.score
    scores = dict(hyp.scores)
    for name in ctx.all_names():
        scorer = ctx.full.get(name) or ctx.partial[name]
        adj = float(scorer.final_score(hyp.yseq, hyp.states[name], emission))
        if adj != 0.0:
            scores[name] = scores[name] + adj
            score = score + ctx.weights[name] * adj
    # nothing reads a finished hypothesis's states; dropping them frees the
    # scoring call a pending state points into
    return Hypothesis(yseq=hyp.yseq, score=score, scores=scores, finished=True)


def _collect_nbest(
    ctx: _SearchContext, finished: List[Hypothesis], live: List[Hypothesis]
) -> NBestList:
    vocab = ctx.vocab
    pool = finished
    if not pool:
        # nothing ever emitted eos: fall back to the best live hypothesis
        pool = sorted(live, key=hypothesis_sort_key)[:1]
    entries = []
    for hyp in pool:
        yseq = hyp.yseq[1:]
        if yseq and yseq[-1] == vocab.eos_id:
            yseq = yseq[:-1]
        entries.append(NBestEntry(yseq=yseq, score=hyp.score, scores=dict(hyp.scores)))
    return NBestList.from_entries(entries)


def _resolve_lengths(config: BeamConfig, frames: int) -> Tuple[int, int]:
    if config.max_steps is not None:
        max_steps = config.max_steps
    else:
        max_steps = max(1, int(config.max_len_ratio * frames))
    min_len = int(config.min_len_ratio * frames)
    return max_steps, min_len


def _search(
    emission: EmissionMatrix,
    vocab: Vocabulary,
    full_scorers: Dict[str, FullScorer],
    config: BeamConfig,
    partial_scorers: Optional[Dict[str, PartialScorer]],
    batched: bool,
) -> NBestList:
    ctx = _SearchContext(
        vocab, full_scorers, partial_scorers or {}, config, emission.vocab_size
    )
    max_steps, min_len = _resolve_lengths(config, emission.frames)
    live = [_initial_hypothesis(ctx, emission)]
    finished: List[Hypothesis] = []
    step_best: List[float] = []

    for step in range(max_steps):
        allowed = ctx.allowed(eos_ok=step >= min_len)
        n_cand = min(ctx.pre_beam_size, len(allowed))
        if n_cand == 0:
            break
        prefixes = [h.yseq for h in live]

        weighted = np.zeros((len(live), ctx.vocab_size))
        full_mats: Dict[str, np.ndarray] = {}
        full_scored: Dict[str, List[Any]] = {}
        for name, scorer in ctx.full.items():
            kernel = scorer.batch_score if batched else partial(FullScorer.batch_score, scorer)
            mat, scored = kernel(prefixes, [h.states[name] for h in live], emission)
            ctx.check_width(name, mat)
            weighted += ctx.weights[name] * mat
            full_mats[name] = mat
            full_scored[name] = scored

        cand_mat = top_candidate_ids(weighted[:, allowed], allowed, n_cand)
        full_part = np.take_along_axis(weighted, cand_mat, axis=1)
        parent_scores = np.array([h.score for h in live])[:, None]
        part_mats: Dict[str, np.ndarray] = {}
        part_scored: Dict[str, List[Any]] = {}
        pruner = ctx.pruner if batched else None
        for name, scorer in ctx.partial.items():
            if name == pruner:
                continue
            kernel = (
                scorer.batch_score_partial if batched
                else partial(PartialScorer.batch_score_partial, scorer)
            )
            part_mats[name], part_scored[name] = kernel(
                prefixes, cand_mat, [h.states[name] for h in live], emission)
        if pruner is not None:
            keep = partial(_may_reach_beam, ctx, full_part, part_mats, parent_scores, pruner)
            part_mats[pruner], part_scored[pruner] = (
                ctx.partial[pruner].batch_score_partial_pruned(
                    prefixes, cand_mat, [h.states[pruner] for h in live], emission, keep))
        cand_scores = _totals(ctx, full_part, part_mats, parent_scores)

        rows, cols = _top_cells(live, cand_mat, cand_scores, config.beam_size)
        step_best.append(float(cand_scores[rows[0], cols[0]]))
        survivors: List[Hypothesis] = []
        for i, j in zip(rows.tolist(), cols.tolist()):
            hyp = live[i]
            token = int(cand_mat[i, j])
            scores = dict(hyp.scores)
            states = dict(hyp.states)
            for name, mat in full_mats.items():
                scores[name] = scores[name] + float(mat[i, token])
                states[name] = ctx.full[name].select_state(full_scored[name][i], token)
            for name, pmat in part_mats.items():
                scores[name] = scores[name] + float(pmat[i, j])
                states[name] = ctx.partial[name].select_state(part_scored[name][i], token)
            succ = Hypothesis(
                yseq=hyp.yseq + (token,), score=float(cand_scores[i, j]),
                scores=scores, states=states,
            )
            if token == vocab.eos_id:
                finished.append(_finalize(ctx, succ, emission))
            else:
                survivors.append(succ)
        live = survivors
        if end_detect(finished, step_best, config.end_detect_window, config.end_detect_margin):
            break
        if not live:
            break
    return _collect_nbest(ctx, finished, live)


def beam_search(
    emission: EmissionMatrix,
    vocab: Vocabulary,
    full_scorers: Dict[str, FullScorer],
    config: BeamConfig,
    partial_scorers: Optional[Dict[str, PartialScorer]] = None,
) -> NBestList:
    """Beam search scoring one hypothesis at a time (each scorer's
    ``score`` / ``score_partial``); returns the finished pool as an n-best
    list (best live hypothesis if nothing finished)."""
    return _search(emission, vocab, full_scorers, config, partial_scorers, batched=False)


def batch_beam_search(
    emission: EmissionMatrix,
    vocab: Vocabulary,
    full_scorers: Dict[str, FullScorer],
    config: BeamConfig,
    partial_scorers: Optional[Dict[str, PartialScorer]] = None,
) -> NBestList:
    """Vectorized beam search: per step each scorer's batched kernel runs
    once over the whole beam. Output is identical to ``beam_search`` (same
    sequences, scores within 1e-9)."""
    return _search(emission, vocab, full_scorers, config, partial_scorers, batched=True)
