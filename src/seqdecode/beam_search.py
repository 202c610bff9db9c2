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
(B x P) score matrix are chosen before any successor exists. The pre-beam
is a set, not a ranking: each row holds its top-P ids in id order, found
by one partition of the search's own weighted matrix with the disallowed
columns at -inf (``_pre_beam``); only a tie across a row's P-th score, or
a row with fewer than P finite scores, takes ``top_candidate_ids``'s
ranked ids, and a pre-beam that keeps every allowed id takes them as they
are. The top-B cells partition first and lexsort only those at or above
the B-th best total. Nothing reads a candidate's column position: the
top-B cells order by (total, parent rank, token), a CTC cell's score does
not depend on the other cells of its call, and ``select_states`` finds a
token by value.

The live beam is held as arrays, best first: the yseqs, their ranks sorted
(carried on by one lexsort of (parent rank, token)), a vector of totals and
one vector of scores per scorer. The kept cells' tokens and scores come from
one gather per scorer, and each scorer selects the kept cells' states at
once (``select_states``; the CTC prefix scorer's are one batch whose
recursion the next scoring call runs whole). Successors emitting eos become
n-best entries in the finished pool, with per-scorer final adjustments
added; the only other entry is the live fallback, the best live hypothesis
when nothing finished.

Selection by bound: in the batched search, the first partial scorer in
name order whose ``batch_score_partial`` takes a ``keep`` parameter (the
CTC prefix scorer) is scored after the others and given ``keep``; it rates
exactly only the cells whose upper-bound total reaches the beam_size-th
largest lower-bound total (asked at most once per step). The other cells
cannot enter the beam, so the selected cells, their order and their states
are those of scoring every cell exactly. A kernel without ``keep`` (a
wrapper's, say) scores every cell, as does the sequential search.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    ConfigError,
    DecodeError,
    EmissionMatrix,
    NBestEntry,
    NBestList,
    Vocabulary,
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
    finished: Sequence[NBestEntry],
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
    """(B, k) top-k ids of each row of the (B, len(ids)) score matrix, by
    score descending, ties broken by smaller id, for 1 <= k <= len(ids):
    one partition finds each row's k-th best score, and one lexsort keyed
    (row, -score, id) orders the cells at or above it."""
    B, N = scores.shape
    kth = np.partition(scores, N - k, axis=1)[:, N - k]
    rows, cols = np.divmod(np.flatnonzero(scores >= kth[:, None]), N)
    order = np.lexsort((ids[cols], -scores[rows, cols], rows))
    starts = np.searchsorted(rows, np.arange(B))
    return ids[cols[order[starts[:, None] + np.arange(k)]]]


def _pre_beam(
    weighted: np.ndarray, allowed: np.ndarray, banned: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """(ids, scores), each (B, k): every row's k best allowed ids of the
    search's own (B, V) ``weighted`` matrix, and their scores.

    When k covers every allowed id, they are taken as they are. Else the
    banned columns of ``weighted`` are set to -inf in place, one partition
    of its full rows finds each row's k-th score, and the cells at or above
    it are the ids, in id order, unranked. When every row has exactly k of
    them, its k-th score is finite (a -inf one would count every -inf cell
    of the row, more than k), so no banned id is among them. A tie across
    a row's k-th score, or a row with fewer than k finite allowed scores,
    takes ``top_candidate_ids``'s ranked ids instead.
    """
    B, V = weighted.shape
    if k == len(allowed):
        return allowed[None].repeat(B, axis=0), weighted.take(allowed, axis=1)
    weighted[:, banned] = -np.inf
    kth = np.partition(weighted, V - k, axis=1)[:, V - k]
    cells = np.flatnonzero(weighted >= kth[:, None])
    if cells.size == B * k:
        ids = cells.reshape(B, k) - np.arange(0, B * V, V)[:, None]
        return ids, weighted.take(cells).reshape(B, k)
    # weighted[:, allowed] comes out column-major, which slows the row partition
    ids = top_candidate_ids(weighted.take(allowed, axis=1), allowed, k)
    return ids, np.take_along_axis(weighted, ids, axis=1)


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
        # np.isin, not np.setdiff1d, which imports numpy.ma on its first call
        ids = np.arange(vocab_size)
        self.banned_with_eos = ids[~np.isin(ids, self.allowed_with_eos)]
        self.banned_without_eos = ids[~np.isin(ids, self.allowed_without_eos)]
        # at most one partial scorer prunes its scoring by bounds: the first
        # whose batched kernel takes ``keep``
        self.pruner = next((k for k, v in self.partial.items()
                            if "keep" in inspect.signature(v.batch_score_partial).parameters),
                           None)
        base = config.pre_beam_size
        if base is None:
            base = min(vocab_size, math.ceil(1.5 * config.beam_size))
        self.pre_beam_size = max(1, min(base, vocab_size))

    def allowed(self, eos_ok: bool) -> np.ndarray:
        return self.allowed_with_eos if eos_ok else self.allowed_without_eos

    def banned(self, eos_ok: bool) -> np.ndarray:
        """The ids ``allowed`` leaves out, in id order."""
        return self.banned_with_eos if eos_ok else self.banned_without_eos

    def all_names(self) -> List[str]:
        return sorted(set(self.full) | set(self.partial))

    def check_width(self, name: str, vec: np.ndarray) -> None:
        if vec.shape[-1] != self.vocab_size:
            raise ConfigError(
                f"scorer {name!r} returned {vec.shape[-1]} scores for vocabulary "
                f"size {self.vocab_size}"
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
    parent_rank: np.ndarray, cand_mat: np.ndarray, cand_scores: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """(rows, columns) of the k best cells of the (B x P) candidate matrix,
    best first, under the successor order (score desc, yseq asc).

    One partition finds the k-th best total; only the cells at or above it
    (all when k >= B * P) are lexsorted, keyed (-total, parent rank, token).

    Every live yseq has the same length, so a successor's yseq orders as its
    parent's yseq, then its token. ``parent_rank`` is each live yseq's rank
    among them sorted: their position in the beam follows score, not yseq.
    """
    P = cand_mat.shape[1]
    totals = cand_scores.ravel()
    cells = np.arange(totals.size) if k >= totals.size else np.flatnonzero(
        totals >= np.partition(totals, -k)[-k])
    order = np.lexsort((cand_mat.ravel()[cells], parent_rank[cells // P], -totals[cells]))
    return np.divmod(cells[order[:k]], P)


def _finalize(
    ctx: _SearchContext,
    yseq: Tuple[int, ...],
    score: float,
    scores: Dict[str, float],
    states: Dict[str, Any],
    emission: EmissionMatrix,
) -> NBestEntry:
    """The n-best entry of an eos successor, whose ``yseq`` runs from sos
    to eos, with each scorer's final adjustment added."""
    for name in ctx.all_names():
        scorer = ctx.full.get(name) or ctx.partial[name]
        adj = float(scorer.final_score(yseq, states[name], emission))
        if adj != 0.0:
            scores[name] = scores[name] + adj
            score = score + ctx.weights[name] * adj
    return NBestEntry(yseq[1:-1], score, scores)


def _nan_error(step: int, mats: Dict[str, np.ndarray]) -> DecodeError:
    """The error for a nan among a step's totals, naming the first scorer
    in name order whose matrix in ``mats`` holds one."""
    name = next((k for k in sorted(mats) if np.isnan(mats[k]).any()), None)
    what = "+inf and -inf scores summed to nan" if name is None else (
        f"scorer {name!r} returned nan")
    return DecodeError(f"search step {step + 1}: {what}")


def _resolve_lengths(config: BeamConfig, frames: int) -> Tuple[int, int]:
    max_steps = config.max_steps or max(1, int(config.max_len_ratio * frames))  # set: >= 1
    return max_steps, int(config.min_len_ratio * frames)


def _search(
    emission: EmissionMatrix,
    vocab: Vocabulary,
    full_scorers: Dict[str, FullScorer],
    config: BeamConfig,
    partial_scorers: Optional[Dict[str, PartialScorer]],
    batched: bool,
) -> NBestList:
    """The search loop of both entry points. Per step: the full scorers'
    weighted sum, in a (B, V) matrix of the search's own; the pre-beam
    (``_pre_beam``); the partial scorers on it, the pruner last; the top-B
    cells; then the kept cells' scores and states. A nan in the weighted
    sum or in the candidate totals is a DecodeError (``_nan_error``)."""
    ctx = _SearchContext(
        vocab, full_scorers, partial_scorers or {}, config, emission.vocab_size
    )
    max_steps, min_len = _resolve_lengths(config, emission.frames)
    scorers = {**ctx.full, **ctx.partial}
    names = ctx.all_names()
    # the live beam, best first (score desc, yseq asc): the yseqs, their
    # ranks sorted, the totals, and per scorer the scores and the states
    yseqs: List[Tuple[int, ...]] = [(vocab.sos_id,)]
    rank = np.zeros(1, dtype=np.int64)
    score = np.zeros(1)
    scores = {name: np.zeros(1) for name in names}
    states: Dict[str, Sequence[Any]] = {
        name: [scorers[name].init_state(emission)] for name in names}
    finished: List[NBestEntry] = []
    step_best: List[float] = []

    stop = "max_steps"
    for step in range(max_steps):
        eos_ok = step >= min_len
        allowed = ctx.allowed(eos_ok)
        n_cand = min(ctx.pre_beam_size, len(allowed))
        if n_cand == 0:
            stop = "no_candidates"
            break

        # the search's own matrix, never a scorer's: the pre-beam writes into it
        weighted: Optional[np.ndarray] = None
        full_mats: Dict[str, np.ndarray] = {}
        scored: Dict[str, Sequence[Any]] = {}
        for name, scorer in ctx.full.items():
            kernel = scorer.batch_score if batched else partial(FullScorer.batch_score, scorer)
            mat, scored[name] = kernel(yseqs, states[name], emission)
            ctx.check_width(name, mat)
            if weighted is None:
                weighted = np.asarray(ctx.weights[name] * mat, dtype=np.float64, order="C")
            else:
                with np.errstate(invalid="ignore"):  # opposite infinities: the nan check below
                    weighted += ctx.weights[name] * mat
            full_mats[name] = mat

        # a max is nan when any entry is, and reads faster than isnan().any()
        if math.isnan(weighted.max()):
            raise _nan_error(step, full_mats)
        cand_mat, full_part = _pre_beam(weighted, allowed, ctx.banned(eos_ok), n_cand)
        parent_scores = score[:, None]
        part_mats: Dict[str, np.ndarray] = {}
        pruner = ctx.pruner if batched else None
        for name, scorer in ctx.partial.items():
            if name == pruner:
                continue
            kernel = (
                scorer.batch_score_partial if batched
                else partial(PartialScorer.batch_score_partial, scorer)
            )
            part_mats[name], scored[name] = kernel(yseqs, cand_mat, states[name], emission)
        if pruner is not None:
            keep = partial(_may_reach_beam, ctx, full_part, part_mats, parent_scores, pruner)
            part_mats[pruner], scored[pruner] = ctx.partial[pruner].batch_score_partial(
                yseqs, cand_mat, states[pruner], emission, keep)
        cand_scores = _totals(ctx, full_part, part_mats, parent_scores)
        if math.isnan(cand_scores.max()):
            raise _nan_error(step, part_mats)

        # the kept cells' scores in one gather per scorer, best first
        rows, cols = _top_cells(rank, cand_mat, cand_scores, config.beam_size)
        tokens = cand_mat[rows, cols]
        step_best.append(float(cand_scores[rows[0], cols[0]]))
        score = cand_scores[rows, cols]
        for name, mat in full_mats.items():
            scores[name] = scores[name][rows] + mat[rows, tokens]
        for name, pmat in part_mats.items():
            scores[name] = scores[name][rows] + pmat[rows, cols]

        ends = tokens == vocab.eos_id
        done = np.flatnonzero(ends)
        if done.size:
            done_states = {name: scorers[name].select_states(
                scored[name], rows[done], tokens[done]) for name in names}
            for n, k in enumerate(done.tolist()):
                finished.append(_finalize(
                    ctx, yseqs[rows[k]] + (vocab.eos_id,), float(score[k]),
                    {name: float(scores[name][k]) for name in names},
                    {name: done_states[name][n] for name in names}, emission))
        live = np.flatnonzero(~ends)
        yseqs = [yseqs[i] + (t,) for i, t in zip(rows[live].tolist(), tokens[live].tolist())]
        # a successor's yseq sorts as (parent's rank, token)
        rank = np.lexsort((tokens[live], rank[rows[live]])).argsort()
        score = score[live]
        scores = {name: v[live] for name, v in scores.items()}
        states = {name: scorers[name].select_states(scored[name], rows[live], tokens[live])
                  for name in names}
        if end_detect(finished, step_best, config.end_detect_window, config.end_detect_margin):
            stop = "end_detect"
            break
        if not yseqs:
            stop = "no_live"
            break
    live_fallback = not finished and bool(yseqs)
    if live_fallback:
        # nothing ever emitted eos: fall back to the best live hypothesis
        finished = [NBestEntry(yseqs[0][1:], float(score[0]),
                               {name: float(v[0]) for name, v in scores.items()})]
    return replace(NBestList.from_entries(finished), stop=stop, live_fallback=live_fallback)


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
