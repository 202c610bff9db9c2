"""Scorer contracts for label-synchronous search, plus two reference
implementations: a table-driven context scorer (attention-decoder stand-in)
and the CTC prefix scorer.

A full scorer rates every vocabulary extension of a prefix per step; a
partial scorer rates only a pre-selected candidate subset, which is how the
comparatively expensive CTC prefix computation joins the search. Scorer
states are per-hypothesis values threaded by the search: ``score`` returns a
"scored state" from which ``select_state`` extracts the successor state for
the token actually chosen. The CTC prefix scorer rates candidates from the
parents' forward variables alone; a successor's own variables are computed
only when it is scored in turn (or read), so pruned successors cost nothing.

``batch_score_partial`` returns every cell exactly. A partial scorer that
can bound its scores cheaply also implements
``batch_score_partial_pruned``: it hands per-cell lower and upper bounds to
the caller, which says which cells must be exact; every other cell holds its
upper bound. The CTC prefix scorer does so, with the same kernel.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    NEG_INF, ConfigError, EmissionMatrix, format_key, log_rows, parse_key, read_json, write_json,
)


class FullScorer(abc.ABC):
    """Scores all V extensions of a prefix in one call."""

    @abc.abstractmethod
    def init_state(self, emission: Optional[EmissionMatrix]) -> Any:
        """State for the bare (sos,) prefix."""

    @abc.abstractmethod
    def score(
        self, prefix: Tuple[int, ...], state: Any, emission: Optional[EmissionMatrix]
    ) -> Tuple[np.ndarray, Any]:
        """Return (V-vector of log-prob scores, scored state).

        Entries may be -inf but never nan. The scored state is resolved to a
        per-token successor state via ``select_state``.
        """

    def select_state(self, scored_state: Any, token: int) -> Any:
        return scored_state

    def final_score(
        self, prefix: Tuple[int, ...], state: Any, emission: Optional[EmissionMatrix]
    ) -> float:
        """Additive adjustment applied once when a hypothesis finishes."""
        return 0.0

    def batch_score(
        self,
        prefixes: Sequence[Tuple[int, ...]],
        states: Sequence[Any],
        emission: Optional[EmissionMatrix],
    ) -> Tuple[np.ndarray, List[Any]]:
        """Score a batch of hypotheses at once; returns (B x V, scored states).

        The default falls back to per-hypothesis calls; vectorising
        implementations must stay bit-identical to the sequential path.
        """
        rows = []
        scored = []
        for prefix, state in zip(prefixes, states):
            vec, st = self.score(prefix, state, emission)
            rows.append(vec)
            scored.append(st)
        return np.stack(rows, axis=0), scored


class PartialScorer(abc.ABC):
    """Scores only the requested candidate ids of a prefix."""

    @abc.abstractmethod
    def init_state(self, emission: Optional[EmissionMatrix]) -> Any:
        ...

    @abc.abstractmethod
    def score_partial(
        self,
        prefix: Tuple[int, ...],
        candidates: np.ndarray,
        state: Any,
        emission: Optional[EmissionMatrix],
    ) -> Tuple[np.ndarray, Any]:
        """Return (scores for exactly the requested ids, in request order,
        scored state)."""

    def select_state(self, scored_state: Any, token: int) -> Any:
        return scored_state

    def final_score(
        self, prefix: Tuple[int, ...], state: Any, emission: Optional[EmissionMatrix]
    ) -> float:
        return 0.0

    def batch_score_partial(
        self,
        prefixes: Sequence[Tuple[int, ...]],
        candidates: np.ndarray,
        states: Sequence[Any],
        emission: Optional[EmissionMatrix],
    ) -> Tuple[np.ndarray, List[Any]]:
        """Batched scoring over a (B x P) candidate matrix."""
        rows = []
        scored = []
        for i, (prefix, state) in enumerate(zip(prefixes, states)):
            vec, st = self.score_partial(prefix, candidates[i], state, emission)
            rows.append(vec)
            scored.append(st)
        return np.stack(rows, axis=0), scored

    def batch_score_partial_pruned(
        self,
        prefixes: Sequence[Tuple[int, ...]],
        candidates: np.ndarray,
        states: Sequence[Any],
        emission: Optional[EmissionMatrix],
        keep: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ) -> Tuple[np.ndarray, List[Any]]:
        """``batch_score_partial`` for a caller that needs only some cells
        exactly.

        A scorer that can bound its scores cheaply passes (B x P) lower and
        upper bounds ``lo <= score <= hi`` to ``keep``, which returns the
        mask of cells that must be exact. Every other cell may hold its
        upper bound instead of its score; the caller must not select its
        state. The default ignores ``keep`` and scores every cell.
        """
        return self.batch_score_partial(prefixes, candidates, states, emission)


class TableScorer(FullScorer):
    """Order-k Markov scorer over token ids, backed by an explicit table.

    Each row is a normalised V-vector of log-probs keyed by the last-k
    emitted token ids (shorter contexts occur near the start of a prefix).
    Unknown contexts fall back to a configurable row, uniform by default, so
    toy models stay total without full context coverage.
    """

    def __init__(
        self,
        context_order: int,
        vocab_size: int,
        rows: Dict[Tuple[int, ...], np.ndarray],
        fallback: Optional[np.ndarray] = None,
    ):
        if context_order < 0:
            raise ConfigError("context_order must be >= 0")
        if vocab_size < 2:
            raise ConfigError("vocab_size must be >= 2")
        self.context_order = context_order
        self.vocab_size = vocab_size
        self.rows: Dict[Tuple[int, ...], np.ndarray] = {
            tuple(ctx): log_rows(row, (vocab_size,), lambda: f"table row for context {ctx}")
            for ctx, row in rows.items()
        }
        if fallback is None:
            fallback = np.full(vocab_size, -math.log(vocab_size))
        self.fallback = log_rows(fallback, (vocab_size,), lambda: "table fallback row")

    def _context(self, emitted: Tuple[int, ...]) -> Tuple[int, ...]:
        if self.context_order == 0:
            return ()
        return emitted[-self.context_order:]

    def init_state(self, emission: Optional[EmissionMatrix]) -> Tuple[int, ...]:
        return ()

    def score(self, prefix, state, emission):
        row = self.rows.get(tuple(state), self.fallback)
        return row, state

    def select_state(self, scored_state, token):
        return self._context(tuple(scored_state) + (token,))

    def batch_score(self, prefixes, states, emission):
        rows = [self.rows.get(tuple(s), self.fallback) for s in states]
        return np.stack(rows, axis=0), list(states)

    def save(self, path: str) -> None:
        write_json(path, {
            "context_order": self.context_order,
            "vocab_size": self.vocab_size,
            "rows": {format_key(ctx): row.tolist() for ctx, row in self.rows.items()},
            "fallback": self.fallback.tolist(),
        })

    @classmethod
    def load(cls, path: str) -> "TableScorer":
        return read_json(path, "table scorer", lambda payload: cls(
            context_order=int(payload["context_order"]),
            vocab_size=int(payload["vocab_size"]),
            rows={parse_key(k): row for k, row in payload["rows"].items()},
            fallback=payload.get("fallback"),
        ))


class CTCPrefixState:
    """Per-hypothesis CTC forward variables.

    r_nb[t] / r_b[t] are the log-probabilities that the prefix is realised by
    frame t with the last emission being non-blank / blank respectively.
    prefix_score is the accumulated log prefix probability (0.0 for the empty
    prefix, whose prefix set is everything).

    A state made by ``select_state`` is pending: it holds only its cell (row,
    column) in the scoring call that rated it. Its r_nb / r_b are computed
    when first read, or by the next scoring call, which runs the recursion
    once for all the pending states it is given.
    """

    def __init__(self, r_nb, r_b, prefix_score: float, prefix_len: int):
        self._r_nb = r_nb
        self._r_b = r_b
        self.prefix_score = prefix_score
        self.prefix_len = prefix_len
        self._source = None  # (_CTCScoredState, row, column) while pending

    @property
    def r_nb(self) -> np.ndarray:
        _materialise([self])
        return self._r_nb

    @property
    def r_b(self) -> np.ndarray:
        _materialise([self])
        return self._r_b

    def __eq__(self, other) -> bool:
        if not isinstance(other, CTCPrefixState):
            return NotImplemented
        return (
            self.prefix_len == other.prefix_len
            and (self.prefix_score == other.prefix_score
                 or (math.isnan(self.prefix_score) and math.isnan(other.prefix_score)))
            and np.array_equal(self.r_nb, other.r_nb)
            and np.array_equal(self.r_b, other.r_b)
        )


@dataclass(eq=False)
class _CTCScoredState:
    """What one scoring call keeps for building its selected successors:
    the parents' forward variables, not the (T, B, C) recursion."""

    x: np.ndarray  # (T, V) emission log-probs
    blank_id: int
    candidates: np.ndarray  # (B, C)
    psi: np.ndarray  # (B, C) log prefix probability of prefix + candidate
    repeat: np.ndarray  # (B, C) candidate repeats the parent's last label
    r_b: np.ndarray  # (T, B) parents' blank variable
    r_sum: np.ndarray  # (T, B) parents' total
    prefix_lens: np.ndarray  # (B,) parents' label counts


def _recursion(scored: _CTCScoredState, rows: np.ndarray, cols: np.ndarray):
    """Forward variables r_nb, r_b (T, k) of the successors at cells
    (rows, cols).

    Frames before the parent's label count are -inf whatever the emissions
    (a prefix of n+1 labels needs n+1 frames), so the loop starts there.
    """
    x = scored.x
    xs = x[:, scored.candidates[rows, cols]]  # (T, k)
    n = scored.prefix_lens[rows]
    # y[t] = (log_phi[t], r_b[t], r_nb[t]), so one frame is two ufunc calls:
    # (r_b, r_nb)[t] = logaddexp(r_nb[t-1], (r_b, log_phi)[t-1]) + (x_blank, xs)[t]
    y = np.full((x.shape[0], 3, len(rows)), NEG_INF)
    y[:, 0] = np.where(scored.repeat[rows, cols], scored.r_b[:, rows], scored.r_sum[:, rows])
    y[0, 2, n == 0] = xs[0, n == 0]
    emit = np.stack((np.broadcast_to(x[:, scored.blank_id, None], xs.shape), xs), axis=1)
    t0 = max(1, int(n.min()))
    for r_nb, prev, out, e in zip(y[t0 - 1:-1, 2], y[t0 - 1:-1, 1::-1], y[t0:, 1:], emit[t0:]):
        np.logaddexp(r_nb, prev, out=out)
        out += e
    return y[:, 2], y[:, 1]


def _materialise(states: Sequence[CTCPrefixState]) -> None:
    """Fill in the pending states, one recursion per scoring call."""
    groups: Dict[int, List[CTCPrefixState]] = {}
    for s in states:
        if s._source is not None:
            groups.setdefault(id(s._source[0]), []).append(s)
    for group in groups.values():
        rows = np.array([s._source[1] for s in group])
        cols = np.array([s._source[2] for s in group])
        r_nb, r_b = _recursion(group[0]._source[0], rows, cols)
        for k, s in enumerate(group):
            s._r_nb, s._r_b, s._source = r_nb[:, k], r_b[:, k], None


# a frame term more than _FAR below a cell's largest term counts as
# exp(-_FAR) of it in the upper bound
_FAR = 8.0


def _fold_bounds(terms: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(lo, hi) with lo <= np.logaddexp.reduce(terms, axis=0) <= hi.

    Each float logaddexp is at least the larger of its arguments, so the
    fold is at least the largest term. Over n terms it is at most
    max + log(near + (n - near) * exp(-_FAR)) in real numbers, where near
    counts the terms within _FAR of the max; the float fold exceeds the real
    one by a few ulps of the running sum per term (errors shrink as they
    pass later steps), which the margin covers many times over. A cell whose
    terms are all -inf folds to exactly -inf.
    """
    n = terms.shape[0]
    lo = terms.max(axis=0)
    near = np.count_nonzero(terms >= lo - _FAR, axis=0)
    with np.errstate(invalid="ignore"):
        hi = lo + (np.log(near + (n - near) * math.exp(-_FAR))
                   + (1e-9 + n * (np.abs(lo) + 1.0) * 1e-15))
    hi[lo == NEG_INF] = NEG_INF
    return lo, hi


def _minus(psi: np.ndarray, prefix_scores: np.ndarray) -> np.ndarray:
    """Scores psi - prefix_score; -inf for a prefix that has no mass."""
    with np.errstate(invalid="ignore"):
        return np.where(prefix_scores == NEG_INF, NEG_INF, psi - prefix_scores)


class CTCPrefixScorer(PartialScorer):
    """Joint-scoring CTC prefix scorer.

    The two-variable (blank / non-blank) forward recursion over frames gives
    each prefix's r_nb / r_b; extending with a repeat of the last label
    connects only through the blank variable. The score of candidate c is
    ``log p(prefix+c...) - log p(prefix...)``; for eos it is the full-sequence
    CTC probability of the prefix minus the accumulated prefix score, which
    makes finished totals comparable to plain CTC forward probabilities.

    Scoring needs only the parent's variables: ``log p(prefix+c...)`` is the
    log-sum over frames t of ``phi[t-1] + x[t, c]``, one reduction over the
    (T, B, C) candidate cells. The recursion runs only for the successors the
    search keeps (see ``CTCPrefixState``). ``score_partial`` is the batched
    kernel at B=1.

    ``batch_score_partial_pruned`` runs the same kernel but folds over
    frames only the cells ``keep`` asks for, given bounds from the frame
    terms (see ``_fold_bounds``). Eos cells (the parent's full-sequence
    probability), cells of a parent with no mass and cells whose terms are
    all -inf are exact without the fold, whatever ``keep`` says. Every other
    cell holds its upper bound, in the scores and in the scored state's psi,
    so its successor state must not be selected.
    """

    def __init__(self, blank_id: int, eos_id: int):
        if blank_id == eos_id:
            raise ConfigError("blank_id and eos_id must differ")
        self.blank_id = blank_id
        self.eos_id = eos_id

    def init_state(self, emission: EmissionMatrix) -> CTCPrefixState:
        x = emission.data
        r_b = np.cumsum(x[:, self.blank_id])
        r_nb = np.full(emission.frames, NEG_INF)
        return CTCPrefixState(r_nb=r_nb, r_b=r_b, prefix_score=0.0, prefix_len=0)

    def score_partial(self, prefix, candidates, state, emission):
        scores, scored = self.batch_score_partial(
            [prefix], np.asarray(candidates)[None, :], [state], emission
        )
        return scores[0], scored[0]

    def select_state(self, scored_state, token: int) -> CTCPrefixState:
        scored, row = scored_state
        col = int(np.flatnonzero(scored.candidates[row] == token)[0])
        state = CTCPrefixState(None, None, float(scored.psi[row, col]),
                               int(scored.prefix_lens[row]) + 1)
        state._source = (scored, row, col)
        return state

    def batch_score_partial(self, prefixes, candidates, states, emission):
        return self._score(prefixes, candidates, states, emission, keep=None)

    def batch_score_partial_pruned(self, prefixes, candidates, states, emission, keep):
        return self._score(prefixes, candidates, states, emission, keep)

    def _score(self, prefixes, candidates, states, emission, keep):
        cands = np.asarray(candidates, dtype=np.int64)
        if cands.ndim != 2:
            raise ValueError("batched candidates must be a (B, P) matrix")
        if (cands == self.blank_id).any():
            raise ValueError("blank is not a label and cannot be a CTC candidate")
        x = emission.data
        T = emission.frames

        _materialise(states)
        prefix_lens = np.array([s.prefix_len for s in states])
        r_b = np.stack([s.r_b for s in states], axis=1)  # (T, B)
        r_sum = np.logaddexp(np.stack([s.r_nb for s in states], axis=1), r_b)
        prefix_scores = np.array([s.prefix_score for s in states])[:, None]
        last = np.array(
            [p[-1] if s.prefix_len > 0 else -1 for p, s in zip(prefixes, states)]
        )
        repeat = cands == last[:, None]  # (B, C)
        eos_mask = cands == self.eos_id
        eos_psi = np.broadcast_to(r_sum[T - 1][:, None], cands.shape)[eos_mask]

        # psi = log-sum over t of phi[t-1] + x[t, c] (x[0, c] for the empty
        # prefix), reduced in frame order; frames before t0 add only -inf
        psi = np.where(prefix_lens[:, None] == 0, x[0, cands], NEG_INF)  # (B, C)
        t0 = max(1, int(prefix_lens.min()))
        if t0 < T:
            terms = x[t0:, cands]  # (T - t0, B, C): log_phi[t-1] + x[t, c]
            terms += r_sum[t0 - 1:T - 1, :, None]
            rows, cols = np.nonzero(repeat)  # a repeat connects through r_b only
            terms[:, rows, cols] = x[t0:, cands[rows, cols]] + r_b[t0 - 1:T - 1, rows]
            terms[0] = np.logaddexp(psi, terms[0])
            if keep is None:
                psi = np.logaddexp.reduce(terms, axis=0)
            else:
                lo, psi = _fold_bounds(terms)  # psi holds the upper bound until folded
                lo[eos_mask] = psi[eos_mask] = eos_psi
                fold = keep(_minus(lo, prefix_scores), _minus(psi, prefix_scores)) & (lo < psi)
                # a (T - t0, k) C-ordered gather; the fold of a cell is the
                # same reduction in the same frame order as above
                psi[fold] = np.logaddexp.reduce(terms[:, fold], axis=0)
        psi[eos_mask] = eos_psi

        scored = _CTCScoredState(
            x=x, blank_id=self.blank_id, candidates=cands, psi=psi, repeat=repeat,
            r_b=r_b, r_sum=r_sum, prefix_lens=prefix_lens,
        )
        return _minus(psi, prefix_scores), [(scored, i) for i in range(len(states))]
