"""Scorer contracts for label-synchronous search, plus two reference
implementations: a table-driven context scorer (attention-decoder stand-in)
and the CTC prefix scorer.

A full scorer rates every vocabulary extension of a prefix per step; a
partial scorer rates only a pre-selected candidate subset, which is how the
comparatively expensive CTC prefix computation joins the search. Scorer
states are per-hypothesis values threaded by the search: ``score`` returns a
"scored state" from which ``select_state`` extracts the successor state for
the token actually chosen; ``select_states`` does so for all the cells a
search step keeps. The CTC prefix scorer rates candidates from the
parents' forward variables alone and runs the recursion only for the
successors a search selects, so pruned successors cost nothing.

``batch_score_partial`` returns every cell exactly. A partial scorer that
can bound its scores cheaply also implements
``batch_score_partial_pruned``: it hands per-cell lower and upper bounds to
the caller, which says which cells must be exact; every other cell holds its
upper bound. The CTC prefix scorer rates a cell as a blocked product in the
probability domain (``_block_psi``), within a stated bound of the
frame-order log-sum (``_psi_tol``). Its pruned entry runs the same kernel:
on a call of at least ``_TIERED_MIN_TERMS`` frame terms it bounds every
cell from the emission's column peaks without any frame term, consults the
caller once, and computes only the cells kept; a smaller call computes
every cell. The bounds carry float margins (``_margin``, ``_psi_tol``) over
the values they stand in for.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    NEG_INF, ConfigError, EmissionMatrix, format_key, log_rows, parse_key, read_json, write_json,
)


def _stacked(calls: Iterable[Tuple[np.ndarray, Any]]) -> Tuple[np.ndarray, List[Any]]:
    """What the default batched kernels return for ``calls``, one (row,
    scored state) pair per hypothesis: the ``np.stack`` of the rows and the
    list of the scored states."""
    rows, scored = zip(*calls)
    return np.stack(rows, axis=0), list(scored)


class _Scorer(abc.ABC):
    """What the two scorer contracts share: the initial state, the
    successor states and the final adjustment."""

    @abc.abstractmethod
    def init_state(self, emission: Optional[EmissionMatrix]) -> Any:
        """State for the bare (sos,) prefix."""

    def select_state(self, scored_state: Any, token: int) -> Any:
        return scored_state

    def select_states(self, scored: Sequence[Any], rows: np.ndarray, tokens: np.ndarray
                      ) -> Sequence[Any]:
        """Successor states of the cells (rows[k], tokens[k]) of one
        scoring call, whose scored states are ``scored``: the states
        ``select_state`` gives, as a sequence the batched kernel accepts.
        The default loops over ``select_state``."""
        return [self.select_state(scored[r], t) for r, t in zip(rows.tolist(), tokens.tolist())]

    def final_score(
        self, prefix: Tuple[int, ...], state: Any, emission: Optional[EmissionMatrix]
    ) -> float:
        """Additive adjustment applied once when a hypothesis finishes."""
        return 0.0


class FullScorer(_Scorer):
    """Scores all V extensions of a prefix in one call."""

    @abc.abstractmethod
    def score(
        self, prefix: Tuple[int, ...], state: Any, emission: Optional[EmissionMatrix]
    ) -> Tuple[np.ndarray, Any]:
        """Return (V-vector of log-prob scores, scored state).

        Entries may be -inf but never nan. The scored state is resolved to a
        per-token successor state via ``select_state``.
        """

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
        return _stacked(self.score(p, s, emission) for p, s in zip(prefixes, states))


class PartialScorer(_Scorer):
    """Scores only the requested candidate ids of a prefix."""

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

    def batch_score_partial(
        self,
        prefixes: Sequence[Tuple[int, ...]],
        candidates: np.ndarray,
        states: Sequence[Any],
        emission: Optional[EmissionMatrix],
    ) -> Tuple[np.ndarray, List[Any]]:
        """Batched scoring over a (B x P) candidate matrix."""
        return _stacked(self.score_partial(p, candidates[i], s, emission)
                        for i, (p, s) in enumerate(zip(prefixes, states)))

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
        upper bounds ``lo <= score <= hi`` to ``keep``, at most once per
        call, which returns the mask of cells that must be exact. Every
        other cell may hold its upper bound instead of its score; the
        caller must not select its state. A call that does not consult
        ``keep`` scores every cell. The default ignores ``keep`` and scores
        every cell.
        """
        return self.batch_score_partial(prefixes, candidates, states, emission)


class TableScorer(FullScorer):
    """Order-k Markov scorer over token ids, backed by an explicit table.

    Each row is a normalised V-vector of log-probs keyed by the last-k
    emitted token ids (shorter contexts occur near the start of a prefix);
    a key longer than k could never be reached and is a ConfigError.
    Unknown contexts fall back to a configurable row, uniform by default, so
    toy models stay total without full context coverage. ``rows`` and
    ``fallback`` hold the caller's C-contiguous float64 arrays themselves,
    made read-only (other rows become read-only float64 copies);
    ``batch_score`` gathers the looked-up rows into a new matrix.
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
        longer = [ctx for ctx in rows if len(ctx) > context_order]
        if longer:
            raise ConfigError(f"table context {tuple(longer[0])} is longer than "
                              f"context_order {context_order}")
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

    def select_states(self, scored, rows, tokens):
        k = self.context_order
        if k == 0:
            return [()] * len(rows)
        return [(*scored[r], t)[-k:] for r, t in zip(rows.tolist(), tokens.tolist())]

    def batch_score(self, prefixes, states, emission):
        get, fallback = self.rows.get, self.fallback
        return np.array([get(tuple(s), fallback) for s in states]), list(states)

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


@dataclass(eq=False)
class CTCPrefixState:
    """Per-hypothesis CTC forward variables.

    r_nb[t] / r_b[t] are the log-probabilities that the prefix is realised by
    frame t with the last emission being non-blank / blank respectively, and
    r_sum[t] their log-sum, which scoring reads. prefix_score is the
    accumulated log prefix probability (0.0 for the empty prefix, whose
    prefix set is everything), prefix_len the prefix's label count, and
    table the decode's ``_label_blocks(x)``, shared by all its states.

    ``select_state`` (and item k of a ``_CTCBatch``) fills in the variables
    at once from the recursion for its one cell, bit for bit the cell's
    column in a recursion over any cells of its call (``_recursion``). An
    eos cell's state is terminal: it ends its hypothesis, and its variables
    are None."""

    r_nb: Optional[np.ndarray]
    r_b: Optional[np.ndarray]
    r_sum: Optional[np.ndarray]
    prefix_score: float
    prefix_len: int
    table: Tuple[np.ndarray, np.ndarray]


@dataclass(eq=False)
class _CTCScoredState:
    """What one scoring call keeps for building its selected successors:
    the parents' forward variables, not the (T, B, C) recursion. It is the
    call's sequence of scored states: item i is (self, i), parent i's
    scored state, which ``select_state`` takes."""

    emission: EmissionMatrix
    blank_id: int
    eos_id: int
    candidates: np.ndarray  # (B, C)
    psi: np.ndarray  # (B, C) log prefix probability of prefix + candidate
    repeat: np.ndarray  # (B, C) candidate repeats the parent's last label
    r_b: np.ndarray  # (T, B) parents' blank variable
    r_sum: np.ndarray  # (T, B) parents' total
    prefix_lens: np.ndarray  # (B,) parents' label counts
    table: Tuple[np.ndarray, np.ndarray]  # the decode's _label_blocks(x), for the successors

    def __len__(self) -> int:
        return len(self.prefix_lens)

    def __getitem__(self, row: int) -> Tuple["_CTCScoredState", int]:
        if not 0 <= row < len(self):
            raise IndexError(row)
        return self, row


def _successor(scored: _CTCScoredState, row: int, col: int) -> CTCPrefixState:
    """The successor state of cell (row, col) of a scoring call: the
    recursion's one column, or a terminal state for an eos cell."""
    score, n = float(scored.psi[row, col]), int(scored.prefix_lens[row]) + 1
    if scored.candidates[row, col] == scored.eos_id:
        return CTCPrefixState(None, None, None, score, n, scored.table)
    r_nb, r_b, r_sum = _recursion(scored, np.array([row]), np.array([col]))[:, :, 0]
    return CTCPrefixState(r_nb, r_b, r_sum, score, n, scored.table)


class _CTCBatch(Sequence):
    """The successor states of the cells (rows, cols) of one scoring call,
    as one batch: the next scoring call runs the recursion once for all of
    them and reads r_b and r_sum as rows of its (3, T, k) result, with no
    per-state work. Item k is cell k's ``CTCPrefixState``, built when asked
    for (``_successor``)."""

    def __init__(self, scored: _CTCScoredState, rows: np.ndarray, cols: np.ndarray):
        self.scored, self.rows, self.cols = scored, rows, cols
        self.prefix_scores = scored.psi[rows, cols]
        self.prefix_lens = scored.prefix_lens[rows] + 1

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, k: int) -> CTCPrefixState:
        return _successor(self.scored, self.rows[k], self.cols[k])


# a scanned r_nb / r_b entry is within _SCAN_TOL * (|r| - _SCAN_FLOOR) of
# the frame loop's r: the scan's rounding grows with the magnitudes it
# handles, |r| and the emission sums, so a column whose label or blank
# emissions sum to less than _SCAN_FLOOR over a recursion's frames (-inf
# emissions left out) scans in blocks of frames whose sums stay above it.
# On random and peaked emissions of 100-1600 frames the scan stayed within
# 4e-15 * (|r| + 1) of the loop
_SCAN_FLOOR = -float(1 << 16)
_SCAN_TOL = 1e-13

# a scan restarted at a -inf emission lifts each segment's terms this far
# above every running sum before it: exp of the difference underflows to 0
# (it does below about -745.2), so logaddexp drops the earlier segments
# exactly
_RESTART_GAP = 800.0


def _recursion(scored: _CTCScoredState, rows: np.ndarray, cols: np.ndarray):
    """Forward variables r_nb, r_b, r_sum (T, k) of the successors at cells
    (rows, cols).

    Frame t of the recursion is r_nb[t] = logaddexp(r_nb[t-1], phi[t-1]) +
    x[t, c] and r_b[t] = r_sum[t-1] + x[t, blank], with r_sum[t] =
    logaddexp(r_nb[t], r_b[t]): first-order linear in the probability
    domain. So with c[t] and d[t] the label's and the blank's emissions
    summed from the column's first frame, r_nb[t] = c[t] +
    logaddexp.accumulate(r_nb[t0-1], phi[t-1] - c[t-1]), r_sum[t] = d[t] +
    q[t] with q = logaddexp.accumulate(r_nb - d) from t0 - 1, and r_b[t] =
    d[t] + q[t-1]: two scans over frames per call, not two ufunc calls per
    frame, and r_sum comes without a third.

    Where the label's (blank's) emission is -inf, r_nb (r_b) is exactly
    -inf, so that scan restarts there with no carry: a segmented scan
    (Blelloch 1990), still one accumulate per scan over all columns and
    segments (``_scan``). A call none of whose columns has a -inf emission
    (``EmissionMatrix.neg_inf_columns``, an O(k) lookup) skips the segments'
    work. A column whose sums fall below ``_SCAN_FLOOR`` scans again in
    blocks of frames of its own (``_floor_blocks``), carrying the state
    from block to block.

    The scan rounds differently from the frame loop: each entry is within
    ``_SCAN_TOL * (|r| - _SCAN_FLOOR)`` of the loop's r, and -inf exactly
    where the loop's is. Frames before a column's first frame, max(1,
    parent's label count), are -inf whatever the emissions (a prefix of n+1
    labels needs n+1 frames), and its sums start there, so a column's result
    does not depend on which other columns share the call.
    """
    emission = scored.emission
    T = emission.frames
    labels = scored.candidates[rows, cols]
    xs = emission[:, labels]  # (T, k)
    x_blank = emission[:, scored.blank_id]
    n = scored.prefix_lens[rows]
    phi = scored.r_sum[:, rows]
    rep = np.flatnonzero(scored.repeat[rows, cols])  # a repeat connects through r_b only
    phi[:, rep] = scored.r_b[:, rows[rep]]
    t0 = max(1, int(n.min()))
    r = np.empty((3,) + xs.shape)  # r_nb, r_b, r_sum
    r[:, :t0] = NEG_INF  # the scans write every frame from t0 on
    if t0 == 1:  # only then may a parent be empty
        r[0, 0, n == 0] = r[2, 0, n == 0] = xs[0, n == 0]
    if t0 >= T:
        return r
    first = np.maximum(n, 1)
    neg_inf = emission.neg_inf_columns
    segmented = bool(neg_inf[scored.blank_id] or neg_inf[labels].any())
    low = _scan(phi, xs, x_blank, first, segmented, r, t0, T)
    # a column whose sums fall below the floor scans again in blocks of its
    # own (``_floor_blocks``), with the columns whose blocks are the same
    groups: Dict[Tuple[int, ...], List[int]] = {}
    for j in low.tolist():
        groups.setdefault(_floor_blocks(xs[:, j], x_blank, int(first[j])), []).append(j)
    for bounds, js in groups.items():
        sub = r[:, :, js]
        for s, e in zip(bounds, bounds[1:]):
            _scan(phi[:, js], xs[:, js], x_blank, first[js], segmented, sub, s, e)
            # each block hands on r_sum = logaddexp(r_nb, r_b), so a block
            # of one frame is the frame loop's step
            np.logaddexp(sub[0, e - 1], sub[1, e - 1], out=sub[2, e - 1])
        r[:, :, js] = sub
    return r


def _floor_blocks(x_label: np.ndarray, x_blank: np.ndarray, first: int) -> Tuple[int, ...]:
    """Frames at which the blocks of one column's scan start and end, from
    its label's and the blank's emissions and its first frame: a function
    of the column alone, so its values do not depend on the other columns
    of its call.

    A block spans at most K frames, K times the column's worst emission
    above ``_SCAN_FLOOR`` at least ``_SCAN_FLOOR``, so its sums stay above
    the floor before its last frame, whose emissions the scans only add. A
    frame with a finite emission below the floor (-1e10 standing for a
    masked token, say) ends its block. A column that also has a -inf
    emission takes blocks of one frame, the frame loop's steps: a restart's
    offset spans every term of its block, and a state carried in from such
    a frame is one of them.
    """
    T = len(x_label)
    ex = np.column_stack((x_label[first:], x_blank[first:]))
    below = ((ex < _SCAN_FLOOR) & (ex > NEG_INF)).any(axis=1)
    if below.any() and np.isneginf(ex).any():
        return tuple(range(first, T + 1))
    K = max(1, int(_SCAN_FLOOR / np.min(ex, where=ex >= _SCAN_FLOOR, initial=-1.0)))
    bounds = [first]
    for stop in (first + np.flatnonzero(below)).tolist() + [T - 1]:
        while bounds[-1] <= stop:
            bounds.append(min(bounds[-1] + K, stop + 1))
    return tuple(bounds)


def _scan(phi, xs, x_blank, first, segmented, r, s, e):
    """Frames s..e-1 of the recursion in place in r = (r_nb, r_b, r_sum),
    from its values at frame s - 1, as two scans over the frames. If
    ``segmented``, each scan whose own emissions (the label's for r_nb, the
    blank's for r_b and r_sum) have a -inf in frames s..e-1 restarts there;
    the other runs plain, where its offsets would all be 0.0 and a running
    log-sum is at least every finite term before it, so never stale.
    Returns the columns whose label or blank sums fall below
    ``_SCAN_FLOOR``; their values are not to be used.
    """
    r_nb, r_b, r_sum = r[0, s - 1:e], r[1, s - 1:e], r[2, s - 1:e]
    # sums[:, j] = the (label, blank) emissions summed over frames
    # s..s-1+j, from each column's first frame on
    sums = np.empty((2, e - s + 1, xs.shape[1]))
    sums[:, 0] = 0.0
    sums[0, 1:] = xs[s:e]
    sums[1, 1:] = x_blank[s:e, None]
    if first.max() > s:
        sums[:, 1:][:, np.arange(s, e)[:, None] < first] = 0.0
    seg_nb = seg_b = False
    if segmented:
        restart = np.isneginf(sums)
        seg_nb, seg_b = restart.any(axis=(1, 2)).tolist()
    if seg_nb or seg_b:
        sums[restart] = 0.0
        # a column's finite terms lie from the later of s and its first
        # frame to e: a count the column fixes, whatever shares the call
        # (one bounds a column that starts past e, which has none)
        terms = np.maximum(e + 1 - np.maximum(first, s), 1).tolist()
        gap = np.array([math.log(n) + _RESTART_GAP for n in terms])
    np.cumsum(sums, axis=1, out=sums)
    c, d = sums
    with np.errstate(invalid="ignore"):  # columns below the floor may come out nan
        acc = np.empty(c.shape)
        acc[0] = r_nb[0]
        np.subtract(phi[s - 1:e - 1], c[:-1], out=acc[1:])
        if seg_nb:
            acc[restart[0]] = NEG_INF  # r_nb is -inf there
            off, stale = _offsets(acc, restart[0], gap)
            acc += off
        np.logaddexp.accumulate(acc, axis=0, out=acc)
        if seg_nb:
            acc -= off
            acc[acc < stale] = NEG_INF
        np.add(acc[1:], c[1:], out=r_nb[1:])
        q = np.subtract(r_nb, d)
        q[0] = r_sum[0]
        if seg_b:
            off, stale = _offsets(q, restart[1], gap)
            q += off
        np.logaddexp.accumulate(q, axis=0, out=q)
        if seg_b:
            # r_b[t] reads the running sum before t in t's own segment:
            # -inf at a restart, where r_b is -inf
            prev = q[:-1] - off[1:]
            prev[prev < stale] = NEG_INF
            q -= off
            q[q < stale] = NEG_INF
        else:
            prev = q[:-1]
        np.add(prev, d[1:], out=r_b[1:])
        np.add(q[1:], d[1:], out=r_sum[1:])
    last = sums[:, -1]
    if last.min() >= _SCAN_FLOOR:  # a nan fails this and takes the full check
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(~(last >= _SCAN_FLOOR).all(axis=0))


def _offsets(a: np.ndarray, restart: np.ndarray, gap: np.ndarray) -> Tuple[np.ndarray, ...]:
    """(off, stale) for one segmented scan of the (L, k) terms ``a``, a
    segment starting at each True of ``restart``; ``gap`` is log(n) +
    ``_RESTART_GAP`` per column, n a bound on its count of finite terms.

    A segment's offset exceeds the one before by the column's spread of
    finite terms plus its gap, so its first finite term sits
    ``_RESTART_GAP`` above any running sum of earlier segments, which
    logaddexp then drops exactly. Less its offset, a running sum that has
    met its segment's first finite term is at least the column's smallest
    term, and one that has not (it still holds earlier segments) is
    ``_RESTART_GAP`` below it: ``stale`` splits the two. A column without
    restarts gets offsets of 0.0, which leave its terms bit for bit.
    """
    hi = a.max(axis=0)
    lo = np.min(a, axis=0, where=a > NEG_INF, initial=np.inf)
    step = np.maximum(hi - lo, 0.0) + gap
    return np.cumsum(restart, axis=0) * step, lo - _RESTART_GAP / 2


# a pruned call with at least this many frame terms, (T - t0) * B * P, bounds
# its cells from the column peaks first and computes psi only for the cells
# those bounds keep. Timing both ways every pruned call of the benchmark's
# searches at seed 777 (2 vCPUs, numpy 2.4.6), the peak bounds took 0.25-0.76
# of the time of psi for every cell from 65,536 terms up and 0.80-0.94 from
# 49,152 (four wide-beam calls); between 24,576 and 49,152 they were a wash
# on wide-beam (0.90-1.08) and lost on long-form and char-word-lm
# (1.10-1.71), and below they lost everywhere (1.07-2.09): their fixed cost
# does not pay there
_TIERED_MIN_TERMS = 1 << 16

# frames per block of the product: a cell's psi is a log-sum over blocks of
# _BLOCK absolute frames, each the log of a sum of _BLOCK products
_BLOCK = 16

# a block whose two shifts sum to more than _UNDERFLOW_GAP above the cell's
# best block log-sum may have lost to underflow mass the cell needs, so the
# cell takes the frame-order fold instead. Below the gap a block loses at
# most 3 * _BLOCK * 2^-1074 * e^640 < 2^-144 of the cell's mass: an
# exponential or a product of at most 1 that underflows loses less than
# 2^-1074 of its block's scale
_UNDERFLOW_GAP = 640.0


def _margin(n: int, at: np.ndarray) -> np.ndarray:
    """Float slack of a log-sum of n terms near ``at``: a few ulps of the
    running sum per term, covered many times over."""
    return 1e-9 + n * (np.abs(at) + 1.0) * 1e-15


def _psi_tol(T: int, at: np.ndarray) -> np.ndarray:
    """Bound on how far a cell's psi by blocks (``_block_psi``) lies from
    the frame-order fold of its T frame terms, for psi near ``at``.

    With u = 2^-53, log-probabilities at most 0 and numpy's exp and log
    within 4 ulps, each against the real log-sum of the float terms:

    - psi by blocks strays by at most 2u (6 |psi| + 10 ln nb + nb / 16 +
      20), nb = ceil(T / _BLOCK): a product's exponent is rounded by at
      most u times its distance below the block's shifts, which the terms'
      shares average to at most u (|psi| + ln T); the shift sums, logs and
      exponentials add u to 8u of |psi| each over the blocks' shares, the
      sums of _BLOCK products and of nb blocks their pairwise rounding, and
      underflow less than 2^-144 (``_UNDERFLOW_GAP``);
    - the fold strays by at most u (T + 1) (|psi| + 3.1) + u ln T: each
      logaddexp rounds by at most u |r| + 2.7u of a running sum r, each
      error reaches the end scaled by at most 1, and each term's own
      rounding counts at its share.

    Their sum is below 2u (T + 8) (|psi| + 4) for every T >= 1.
    """
    return 2.0 ** -52 * (T + 8) * (np.abs(at) + 4.0)


def _blocks(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(e, shift) of the (L, n) log-domain columns ``a`` in nb blocks of
    ``_BLOCK`` frames, padded with -inf: shift (n, nb) is each block's
    largest entry (-inf for a block without mass), and e (n, nb, _BLOCK)
    its entries less that shift, exponentiated, so at most 1 (0 where
    -inf)."""
    L, n = a.shape
    nb = -(-L // _BLOCK)
    e = np.full((nb * _BLOCK, n), NEG_INF)
    e[:L] = a
    e = e.reshape(nb, _BLOCK, n)
    shift = e.max(axis=1)
    e -= np.where(shift > NEG_INF, shift, 0.0)[:, None]
    np.exp(e, out=e)
    return np.ascontiguousarray(e.transpose(2, 0, 1)), shift.T


def _label_blocks(x: EmissionMatrix) -> Tuple[np.ndarray, np.ndarray]:
    """``_blocks(x)`` of a decode's (T, V) emissions, the table its CTC
    states hold, built 256 labels at a time: the build's scratch is that of
    one such slice, not a second (V, nb, _BLOCK) array. Here and in
    ``_block_psi`` and ``_peak_bounds``, ``x`` is read only by indexing,
    which gives float64 values from an ``EmissionMatrix`` (or from a
    float64 array)."""
    T, V = x.shape
    nb = -(-T // _BLOCK)
    e, shift = np.empty((V, nb, _BLOCK)), np.empty((V, nb))
    for j in range(0, V, 256):
        e[j:j + 256], shift[j:j + 256] = _blocks(x[:, j:j + 256])
    return e, shift


def _block_psi(x: EmissionMatrix, table: Tuple[np.ndarray, np.ndarray], phi: np.ndarray,
               labels: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """psi of k cells, the log-sum over frames t of ``phi[t, row] + x[t,
    label]`` given per cell (phi the (T, n) parent columns), as a blocked
    product: per block of ``_BLOCK`` frames, the log of the sum of the
    label's and the parent's exponentiated block entries multiplied, plus
    their two shifts; then a log-sum over the blocks. ``table`` is
    ``_label_blocks(x)``.

    Every step is elementwise or a reduction along a cell's own last axis,
    so a cell's psi does not depend on the other cells of the call. It is
    within ``_psi_tol`` of the frame-order fold and -inf exactly where the
    fold is: a cell with a block whose shifts lie more than
    ``_UNDERFLOW_GAP`` above its best block (which covers a finite cell
    whose blocks all underflowed) takes the fold itself.
    """
    e, shift = table[0][labels], table[1][labels]
    pe, ps = _blocks(phi)
    a = shift + ps[rows]  # (k, nb) the blocks' shifts; -inf where a block has no mass
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.log(np.einsum("ijk,ijk->ij", e, pe[rows]))
        z += a
        best = z.max(axis=1)
        base = np.where(best > NEG_INF, best, 0.0)
        # a block more than 700 below the best adds under 2^-1009 to a sum
        # of at least 1 whatever it holds; clipped there, exp skips its slow
        # underflow path
        z -= base[:, None]
        np.maximum(z, -700.0, out=z)
        psi = np.log(np.exp(z).sum(axis=1))
        psi += base
        psi[best == NEG_INF] = NEG_INF
        exposed = np.flatnonzero(a.max(axis=1) - best > _UNDERFLOW_GAP)
    if exposed.size:
        psi[exposed] = np.logaddexp.reduce(
            phi[:, rows[exposed]] + x[:, labels[exposed]], axis=0)
    return psi


def _peak_bounds(peaks, x, cands, repeat, psi0, r_sum, r_b, t0):
    """(lo, hi) with lo <= psi <= hi for every (B, P) cell, without its
    frame terms: O(T B + B P) work against O((T - t0) B P) for psi.

    hi bounds each term by ``r_sum[t-1] + max_t x[t, c]`` (r_sum >= r_b,
    so this holds for repeats too): psi <= logaddexp(psi0,
    logsumexp_t r_sum[t-1] + max_t x[t, c]). That log-sum over frames,
    the log of a sum of exponentials shifted by the parent's peak, strays by
    far less than ``_margin`` (an underflowing term is below 2^-1074 of the
    peak's) and psi by blocks by ``_psi_tol``, so hi carries both. Only the
    rows with a finite psi0 (empty prefixes) take the logaddexp. Where all
    terms are -inf, hi is exactly -inf.

    lo is the larger of psi0 and two of the cell's own float terms, each at
    most the frame-order fold, less ``_psi_tol``: one at the frame where
    column c peaks (or t0, if that is earlier), one just after the frame
    where the parent's phi peaks. A repeat uses r_b in both, as its terms
    do.
    """
    T = x.shape[0]
    B = cands.shape[0]
    col_max, col_peak = peaks
    phi = r_sum[t0 - 1:T - 1]
    tb = t0 + phi.argmax(axis=0)
    flat, b = np.ravel(r_sum), np.arange(B)  # r_sum[t, b] is flat[t * B + b]
    peak = flat.take((tb - 1) * B + b)
    shift = np.where(peak > NEG_INF, peak, 0.0)
    with np.errstate(divide="ignore"):
        top = (np.log(np.exp(phi - shift).sum(axis=0)) + shift)[:, None] + col_max[cands]
    first = np.flatnonzero((psi0 > NEG_INF).any(axis=1))
    top[first] = np.logaddexp(psi0[first], top[first])
    with np.errstate(invalid="ignore"):
        hi = top + (_margin(T - t0, top) + _psi_tol(T, top))
    hi[top == NEG_INF] = NEG_INF

    tc = np.maximum(col_peak[cands], t0)
    lo = np.maximum(flat.take((tc - 1) * B + b[:, None]) + x[tc, cands],
                    peak[:, None] + x[tb[:, None], cands])
    rows, cols = np.nonzero(repeat)
    labels, tc = cands[rows, cols], tc[rows, cols]
    tb = t0 + r_b[t0 - 1:T - 1, rows].argmax(axis=0)
    lo[rows, cols] = np.maximum(r_b[tc - 1, rows] + x[tc, labels],
                                r_b[tb - 1, rows] + x[tb, labels])
    lo = np.maximum(lo, psi0)
    return lo - _psi_tol(T, lo), hi


def _minus(psi: np.ndarray, prefix_scores: np.ndarray) -> np.ndarray:
    """Scores psi - prefix_score; -inf for a prefix that has no mass."""
    if (prefix_scores > NEG_INF).all():
        return psi - prefix_scores
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
    log-sum over frames t of ``phi[t-1] + x[t, c]``. Each cell's psi is
    that log-sum as a blocked product (``_block_psi``): per block of
    ``_BLOCK`` frames, the parent's and the label's exponentiated entries
    multiplied and summed, then a log-sum over the blocks. The label's
    entries come from a table of every label's blocks (``_label_blocks``),
    built once per decode by ``init_state`` and held by its states. psi is
    within ``_psi_tol`` of the frame-order fold, -inf exactly where the
    fold is, and does not depend on the other cells of the call; a cell a
    block's underflow could have cost mass takes the fold itself. The
    recursion runs only for the successors the search keeps, as two scans
    over frames restarted at -inf emissions, whose values are within a
    stated bound of the frame loop (``_recursion``): ``select_state`` runs
    it for its one cell at once, and ``select_states`` keeps one call's
    successors as one ``_CTCBatch``, whose recursion the next call runs
    whole and reads as its parents' arrays. An eos cell's state is terminal
    and cannot be scored. ``score_partial`` is the batched kernel at B=1.

    ``batch_score_partial_pruned`` runs the same kernel. On a call of at
    least ``_TIERED_MIN_TERMS`` frame terms it first bounds every cell
    without its terms (``_peak_bounds``): the upper bound from the parent's
    log-sum over frames plus the column's peak over frames, the lower bound
    from two of the cell's own terms, each with its float margins. It
    consults ``keep`` once with those bounds and computes psi only for the
    cells it keeps. A smaller call computes every cell and does not consult
    ``keep``. Eos cells (the parent's full-sequence probability) and cells
    whose bounds meet (all terms -inf) are exact whatever ``keep`` says.
    Every other cell ``keep`` dropped holds its upper bound, in the scores
    and in the scored state's psi, so its successor state must not be
    selected.
    """

    def __init__(self, blank_id: int, eos_id: int):
        if blank_id == eos_id:
            raise ConfigError("blank_id and eos_id must differ")
        self.blank_id = blank_id
        self.eos_id = eos_id

    def init_state(self, emission: EmissionMatrix) -> CTCPrefixState:
        r_b = np.cumsum(emission[:, self.blank_id])
        r_nb = np.full(emission.frames, NEG_INF)
        return CTCPrefixState(r_nb=r_nb, r_b=r_b, r_sum=r_b, prefix_score=0.0, prefix_len=0,
                              table=_label_blocks(emission))

    def score_partial(self, prefix, candidates, state, emission):
        scores, scored = self.batch_score_partial(
            [prefix], np.asarray(candidates)[None, :], [state], emission
        )
        return scores[0], scored[0]

    def select_state(self, scored_state, token: int) -> CTCPrefixState:
        scored, row = scored_state
        return _successor(scored, row, scored.candidates[row].tolist().index(token))

    def select_states(self, scored, rows, tokens):
        """One ``_CTCBatch`` of the cells, given the sequence of one
        scoring call; rows of separate calls (the sequential search's, a
        wrapper's) take the default loop."""
        if not isinstance(scored, _CTCScoredState):
            return super().select_states(scored, rows, tokens)
        # a row's candidates are distinct, so its token's column is its first match
        cols = np.argmax(scored.candidates[rows] == tokens[:, None], axis=1)
        return _CTCBatch(scored, rows, cols)

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
        T = emission.frames
        B, P = cands.shape

        if isinstance(states, _CTCBatch):
            _, r_b, r_sum = _recursion(states.scored, states.rows, states.cols)  # (T, B) each
            table = states.scored.table
            prefix_lens, prefix_scores = states.prefix_lens, states.prefix_scores
        else:
            if any(s.r_sum is None for s in states):
                raise ValueError("an eos state ends its hypothesis and cannot be scored")
            table = states[0].table
            prefix_lens = np.array([s.prefix_len for s in states])
            prefix_scores = np.array([s.prefix_score for s in states])
            if len(states) == 1:  # a view of its columns, no copy
                r_b, r_sum = states[0].r_b[:, None], states[0].r_sum[:, None]
            else:
                r_b = np.stack([s.r_b for s in states], axis=1)
                r_sum = np.stack([s.r_sum for s in states], axis=1)
        prefix_scores = prefix_scores[:, None]
        last = np.array([p[-1] if p else -1 for p in prefixes])
        last[prefix_lens == 0] = -1
        repeat = cands == last[:, None]  # (B, C)
        eos_mask = cands == self.eos_id
        eos_psi = r_sum[T - 1, np.flatnonzero(eos_mask) // P]

        # psi = log-sum over t of phi[t-1] + x[t, c], the frame-0 term x[0, c]
        # for the empty prefix; frames before t0 add only -inf
        empty = prefix_lens == 0
        any_empty = bool(empty.any())
        if any_empty:
            psi = np.where(empty[:, None], emission[0, cands], NEG_INF)  # (B, C)
        else:
            psi = np.full(cands.shape, NEG_INF)
        t0 = max(1, int(prefix_lens.min()))
        if t0 < T:
            built = np.flatnonzero(~eos_mask)  # the cells whose psi is computed
            if keep is not None and (T - t0) * cands.size >= _TIERED_MIN_TERMS:
                lo, hi = _peak_bounds(
                    emission.column_peaks, emission, cands, repeat, psi, r_sum, r_b, t0)
                lo[eos_mask] = hi[eos_mask] = eos_psi
                kept = keep(_minus(lo, prefix_scores), _minus(hi, prefix_scores))
                built = np.flatnonzero(kept & (lo < hi))
                psi = hi  # stands in for psi where no psi is computed
            # phi by absolute frame, one column per parent: r_sum, then r_b
            # of each parent with a repeat, which connects through r_b only;
            # frame 0 holds the empty prefix's x[0, c] term
            rows, cols = np.divmod(built, P)
            rep = np.flatnonzero(repeat[rows, cols])
            phi = np.empty((T, B + rep.size))
            phi[0] = NEG_INF
            if any_empty:
                phi[0, :B][empty] = 0.0
            phi[1:, :B] = r_sum[:T - 1]
            phi[1:, B:] = r_b[:T - 1, rows[rep]]
            rows[rep] = B + np.arange(rep.size)
            psi.ravel()[built] = _block_psi(emission, table, phi, cands.ravel()[built], rows)
        psi[eos_mask] = eos_psi

        scored = _CTCScoredState(
            emission=emission, blank_id=self.blank_id, eos_id=self.eos_id, candidates=cands,
            psi=psi, repeat=repeat,
            r_b=r_b, r_sum=r_sum, prefix_lens=prefix_lens, table=table,
        )
        return _minus(psi, prefix_scores), scored
