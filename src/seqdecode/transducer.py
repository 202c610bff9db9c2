"""Transducer decoding: greedy plus four beam procedures (Graves-style beam
without prefix search, time-synchronous, alignment-length-synchronous, and
n-step constrained), all over a joint-network contract.

Sequence probability is the sum over monotonic alignments, so hypotheses
with identical label sequences are merged by log-sum-exp wherever they meet;
that makes merged beam scores directly comparable to brute-force alignment
sums. Optional shallow fusion adds a weighted LM score to label expansions
(blank expansions are never LM-scored).

No search builds a hypothesis it does not keep. Each round's joint rows,
plus the parents' scores, hold the blank completions in one column and the
label expansions in the rest (``_fuse``, the only place fusion arithmetic
lives). The loop that walks a round's parents enters their completions in
a yseq -> [score, hypothesis] map, merging by ``_logaddexp`` (np.logaddexp
bit for bit, on two floats); ``_prune`` builds the survivors. TSD and ALSD
rank a round's cells by (-score, child yseq) and ``_keep`` builds the top
B, each with the LM's select_state, then pred_step; NSC is TSD with
n_steps rounds. The Graves beam keeps the label expansions of each popped
parent as one array of V cells with one heap entry, at its best pending
cell; a pop of it builds that child and its completion inline.
"""

from __future__ import annotations

import abc
import heapq
import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    NEG_INF,
    ConfigError,
    DecodeError,
    NBestEntry,
    NBestList,
    format_key,
    log_rows,
    parse_key,
    read_json,
    write_json,
)
from .scorers import FullScorer


class TransducerModel(abc.ABC):
    """Joint-network contract: maps (frame, prediction state) to a
    (V+1)-vector of log-probs over labels plus blank (blank is index V)."""

    @property
    @abc.abstractmethod
    def num_labels(self) -> int:
        ...

    @abc.abstractmethod
    def pred_init(self) -> Any:
        ...

    @abc.abstractmethod
    def pred_step(self, state: Any, label: int) -> Any:
        ...

    @abc.abstractmethod
    def joint(self, t: int, state: Any) -> np.ndarray:
        ...

    def joint_batch(self, t: int, states: Sequence[Any]) -> np.ndarray:
        """(len(states), V+1) joint outputs; default loops over states."""
        return np.stack([self.joint(t, s) for s in states], axis=0)

    @property
    def blank_id(self) -> int:
        return self.num_labels


class TableTransducer(TransducerModel):
    """Reference model: per-frame (V+1)-rows keyed by the last-k emitted
    labels. Exercises prediction-state threading without neural inference.
    It keeps the caller's row arrays without a copy and makes them
    read-only."""

    def __init__(self, context_order: int, frames: int, num_labels: int,
                 rows: Dict[Tuple[int, ...], np.ndarray]):
        if context_order < 0:
            raise ConfigError("context_order must be >= 0")
        if frames < 1 or num_labels < 1:
            raise ConfigError("need frames >= 1 and num_labels >= 1")
        self.context_order = context_order
        self.frames = frames
        self._num_labels = num_labels
        longer = [ctx for ctx in rows if len(ctx) > context_order]
        if longer:
            raise ConfigError(f"transducer context {tuple(longer[0])} is longer than "
                              f"context_order {context_order}")
        self.rows: Dict[Tuple[int, ...], np.ndarray] = {
            tuple(ctx): log_rows(mat, (frames, num_labels + 1),
                                 lambda: f"transducer rows for context {ctx}")
            for ctx, mat in rows.items()
        }

    @property
    def num_labels(self) -> int:
        return self._num_labels

    def pred_init(self) -> Tuple[int, ...]:
        return ()

    def pred_step(self, state: Tuple[int, ...], label: int) -> Tuple[int, ...]:
        if self.context_order == 0:
            return ()
        return (tuple(state) + (label,))[-self.context_order:]

    def joint(self, t: int, state: Tuple[int, ...]) -> np.ndarray:
        key = tuple(state)
        if key not in self.rows:
            raise ConfigError(f"transducer table has no row for context {key}")
        return self.rows[key][t]

    def joint_batch(self, t: int, states: Sequence[Any]) -> np.ndarray:
        try:
            return np.array([self.rows[tuple(s)][t] for s in states])
        except KeyError as e:
            raise ConfigError(f"transducer table has no row for context {e.args[0]}") from None

    def save(self, path: str) -> None:
        write_json(path, {
            "context_order": self.context_order,
            "T": self.frames,
            "vocab_size": self._num_labels,
            "rows": {format_key(ctx): mat.tolist() for ctx, mat in self.rows.items()},
        })

    @classmethod
    def load(cls, path: str) -> "TableTransducer":
        return read_json(path, "transducer", lambda payload: cls(
            context_order=int(payload["context_order"]),
            frames=int(payload["T"]),
            num_labels=int(payload["vocab_size"]),
            rows={parse_key(k): mat for k, mat in payload["rows"].items()},
        ))


@dataclass(slots=True)
class TransducerHypothesis:
    """Label sequence (blank excluded) with its merged alignment-sum score."""

    yseq: Tuple[int, ...]
    score: float
    pred_state: Any
    lm_state: Any = None
    lm_score: float = 0.0  # raw (unweighted) accumulated LM part


@dataclass(frozen=True)
class TransducerBeamConfig:
    beam_size: int = 4
    algorithm: str = "beam"
    max_exp_per_step: int = 2  # tsd: label-expansion rounds before blank
    u_max_ratio: float = 1.0  # alsd: U_max = ceil(ratio * T)
    n_steps: int = 2  # nsc: label emissions per frame
    lm: Optional[FullScorer] = None
    lm_weight: float = 0.0
    u_max: Optional[int] = None  # explicit ALSD cap, overrides the ratio
    # beam: pops per frame; reaching it ends (truncates) the frame with the
    # hypotheses completed so far, and the n-best says ``truncated``
    max_pops_per_frame: int = 100_000

    def __post_init__(self) -> None:
        if self.beam_size < 1:
            raise ConfigError("beam_size must be >= 1")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm must be one of {tuple(ALGORITHMS)}")
        if self.max_exp_per_step < 1:
            raise ConfigError("max_exp_per_step must be >= 1")
        if self.u_max_ratio <= 0:
            raise ConfigError("u_max_ratio must be > 0")
        if self.n_steps < 1:
            raise ConfigError("n_steps must be >= 1")
        if self.u_max is not None and self.u_max < 0:
            raise ConfigError("u_max must be >= 0")
        if self.lm_weight < 0:
            raise ConfigError("lm_weight must be >= 0")
        if self.lm is None and self.lm_weight > 0:
            raise ConfigError("lm_weight is set but no lm is given to fuse")
        if self.lm is not None and self.algorithm == "greedy":
            raise ConfigError("greedy decoding fuses no lm; use a beam algorithm")
        if self.max_pops_per_frame < 1:
            raise ConfigError("max_pops_per_frame must be >= 1")


Pool = Dict[Tuple[int, ...], TransducerHypothesis]


_LN2 = math.log(2.0)


def _logaddexp(x: float, y: float) -> float:
    """np.logaddexp of two Python floats, bit for bit: the same branches
    over the same libm exp and log1p, without numpy's per-call cost."""
    if x == y:  # equal infinities too
        return x + _LN2
    d = x - y
    if d > 0:
        return x + math.log1p(math.exp(-d))
    if d <= 0:
        return y + math.log1p(math.exp(d))
    return d  # nan


def _prune(pool: Dict[Tuple[int, ...], list], beam: int) -> Pool:
    """The beam best of a yseq -> [score, hypothesis] pool by (-score, yseq),
    in that order; only these are built at their merged scores."""
    ranked = sorted([(-score, yseq, hyp) for yseq, (score, hyp) in pool.items()])[:beam]
    return {yseq: TransducerHypothesis(yseq, -neg, hyp.pred_state, hyp.lm_state, hyp.lm_score)
            for neg, yseq, hyp in ranked}


def _nan_error(config: TransducerBeamConfig, lm_row: Any, frame: int) -> DecodeError:
    """A nan among a round's cells: the fusion LM's if the parent's LM row holds one."""
    source = "fusion LM" if config.lm is not None and np.isnan(lm_row).any() else "transducer model"
    return DecodeError(f"frame {frame}: {source} returned nan")


def transducer_greedy(model: TransducerModel, frames: int) -> TransducerHypothesis:
    """Decoding constrained to one expansion step per frame: emit the argmax
    if it is a label, then move to the next frame.

    Moving to frame t+1 is the blank transition, so after an emission the
    post-label blank is charged as well; the score is then the probability of
    one complete alignment and can never exceed a merged beam score for the
    same model."""
    state = model.pred_init()
    yseq: Tuple[int, ...] = ()
    score = 0.0
    for t in range(frames):
        logp = model.joint(t, state)
        k = int(np.argmax(logp))
        score += float(logp[k])
        if k != model.blank_id:
            yseq = yseq + (k,)
            state = model.pred_step(state, k)
            score += float(model.joint(t, state)[model.blank_id])
    return TransducerHypothesis(yseq=yseq, score=score, pred_state=state)


def _init_pool(model: TransducerModel, config: TransducerBeamConfig) -> Pool:
    hyp = TransducerHypothesis(
        yseq=(), score=0.0, pred_state=model.pred_init(),
        lm_state=config.lm.init_state(None) if config.lm is not None else None,
    )
    return {(): hyp}


def _fuse(model: TransducerModel, config: TransducerBeamConfig,
          parents: Sequence[TransducerHypothesis], total: np.ndarray
          ) -> Tuple[np.ndarray, Any, Sequence[Any]]:
    """(cells, LM rows, LM scored states) of n parents' label expansions from
    ``total``, their scores plus their (n, V+1) joint rows (or one parent's
    row). Each cell is ``score + joint[label]``, plus ``weight * lm[label]``
    under fusion, added in that order, so it equals the score the child gets.
    The LM rows, from one ``batch_score`` call, take the cells' shape;
    without an LM both are n Nones."""
    n_labels = model.num_labels
    cells = total[..., :n_labels]
    if config.lm is None or not parents:
        return cells, (None,) * len(parents), (None,) * len(parents)
    sos = n_labels  # stand-in outside the label range
    lm_rows, scored = config.lm.batch_score(
        [(sos,) + h.yseq for h in parents], [h.lm_state for h in parents], None)
    if lm_rows.shape[-1] != n_labels:
        raise ConfigError(
            f"fusion LM scores {lm_rows.shape[-1]} tokens but the model has {n_labels} labels"
        )
    lm_rows = lm_rows.reshape(cells.shape)
    term = config.lm_weight * lm_rows
    if not config.lm_weight:
        # 0 * -inf is nan: a label the LM rules out is no expansion, so its
        # term is -inf; a nan of the LM or the model stays a nan cell
        term = np.where(np.isneginf(lm_rows), NEG_INF, term)
    return cells + term, lm_rows, scored


def _keep(model: TransducerModel, config: TransducerBeamConfig,
          parents: Sequence[TransducerHypothesis], fused: tuple, k: int,
          frame_of: Callable[[TransducerHypothesis], int],
          built: Optional[Dict[Tuple[int, ...], list]] = None) -> Pool:
    """The k best of the finite cells of ``fused`` (from ``_fuse``) and the
    yseq -> [score, hypothesis] entries of ``built`` (whose yseqs must not
    be cells), by (-score, yseq) and in that order. Only these become
    hypotheses: a cell's child takes the LM's select_state, then pred_step.
    Parents differ in length, so ties are broken on the whole child tuple,
    not on (parent, label). A nan cell is a DecodeError naming its parent's
    frame (``frame_of``)."""
    cells, lm_rows, lm_scored = fused
    n_labels = cells.shape[1]
    flat = cells.ravel()
    if k < flat.size:
        ordered = np.sort(flat)  # nan sorts last
        kth, nan = ordered[flat.size - k], math.isnan(ordered[-1])
    else:
        kth, nan = NEG_INF, np.isnan(flat).any()
    if nan:
        r = int(np.isnan(cells).any(axis=1).argmax())
        raise _nan_error(config, lm_rows[r], frame_of(parents[r]))
    idx = (flat >= kth if kth > NEG_INF else flat > NEG_INF).nonzero()[0]
    ranked = [(-score, parents[r].yseq + (label,), r, label)
              for score, (r, label) in zip(flat[idx].tolist(),
                                           [divmod(i, n_labels) for i in idx.tolist()])]
    if built:
        ranked += [(-score, yseq, -1, hyp) for yseq, (score, hyp) in built.items()]
    lm, kept = config.lm, {}
    for neg, yseq, r, item in sorted(ranked)[:k]:
        if r < 0:  # an entry of ``built``
            pred_state, lm_state, lm_raw = item.pred_state, item.lm_state, item.lm_score
        else:
            parent = parents[r]
            lm_state, lm_raw = parent.lm_state, parent.lm_score
            if lm is not None:
                lm_raw = lm_raw + float(lm_rows[r, item])
                lm_state = lm.select_state(lm_scored[r], item)
            pred_state = model.pred_step(parent.pred_state, item)
        kept[yseq] = TransducerHypothesis(yseq, -neg, pred_state, lm_state, lm_raw)
    return kept


def transducer_beam(model: TransducerModel, frames: int,
                    config: TransducerBeamConfig) -> NBestList:
    """Breadth-first beam over output labels (Graves 2012, arXiv:1211.3711,
    without prefix search): blank completes a hypothesis for the frame,
    labels expand it within the frame, identical sequences merge by
    log-sum-exp. Returns the top-B hypotheses completed at t = T.

    Within a frame the best active hypothesis is popped from a heap keyed
    by (-score, yseq, version); a merge pushes a new version and the stale
    entry is skipped when it surfaces. The label expansions of a popped
    parent are one row of V cell scores, and the row has one heap entry,
    at its best pending cell (ties go to the lower label, so the child
    yseq orders them). Popping it builds that one child, consumes the
    cell and pushes the row again at its next best cell. A parent popped
    again merges its new row into the pending cells; a pool hypothesis
    that is a child of the popped parent absorbs its cell instead. A
    frame ends once B completed hypotheses beat every active one, or
    after max_pops_per_frame pops, which truncates it: the n-best then
    says ``truncated``. A row whose best cell is nan is a DecodeError.

    Completed scores only rise, so their B-th best (``floor``) does too,
    and an active entry below it can never be popped: the frame ends
    before it surfaces. Such an entry stays in ``active`` or its row,
    where later expansions merge into it, but goes on the heap only once
    a merge lifts it to the floor."""
    beam, lm = config.beam_size, config.lm
    pool = _init_pool(model, config)
    blank = model.blank_id
    version = 0
    truncated = False

    def push_row(parent: Tuple[int, ...], row: list) -> None:
        """New version for the row; push it at its best pending cell if
        that cell can still be popped (reads this frame's heap and floor)."""
        nonlocal version
        version += 1
        row[0] = version
        label = int(row[1].argmax())  # the first best cell: the lowest label, or a nan
        best = row[1].item(label)
        if best > NEG_INF and best >= floor:
            heapq.heappush(heap, (-best, parent + (label,), version, row))
        elif math.isnan(best):
            raise _nan_error(config, row[2][1], t)

    for t in range(frames):
        # Nodes: yseq -> [version, score, hypothesis] for pool hypotheses
        # not yet popped, parent yseq -> [version, cell scores (-inf once
        # popped or absorbed), (parent, LM row, LM scored state)] for rows.
        # Heap entries are (-score, yseq, version, node), live while
        # node[0] == version.
        active = {yseq: [0, hyp.score, hyp] for yseq, hyp in pool.items()}
        rows: Dict[Tuple[int, ...], list] = {}
        pool_children: Dict[Tuple[int, ...], List[int]] = {}
        for yseq in pool:
            if yseq:
                pool_children.setdefault(yseq[:-1], []).append(yseq[-1])
        heap = [(-node[1], yseq, 0, node) for yseq, node in active.items()]
        heapq.heapify(heap)
        completed: Dict[Tuple[int, ...], list] = {}
        floor = NEG_INF  # the B-th best completed score
        pops = 0
        while True:
            while heap and heap[0][3][0] != heap[0][2]:
                heapq.heappop(heap)
            if not heap or floor > -heap[0][0]:
                break
            if pops == config.max_pops_per_frame:  # an entry could still be popped
                truncated = True
                break
            neg_score, yseq, _, node = heapq.heappop(heap)
            pops += 1
            score = -neg_score
            if isinstance(node[2], TransducerHypothesis):
                del active[yseq]
                hyp = node[2]  # ``score`` holds its merges, hyp.score may not
            else:  # the row's child: the LM's select_state, then pred_step
                parent, lm_row, lm_scored = node[2]
                label = yseq[-1]
                lm_state, lm_raw = parent.lm_state, parent.lm_score
                if lm is not None:
                    lm_raw = lm_raw + float(lm_row[label])
                    lm_state = lm.select_state(lm_scored, label)
                hyp = TransducerHypothesis(yseq, score, model.pred_step(parent.pred_state, label),
                                           lm_state, lm_raw)
                node[1][label] = NEG_INF
                push_row(parent.yseq, node)

            # in float64: under NEP 50, score + a float32 row stays float32
            total = np.add(score, model.joint(t, hyp.pred_state), dtype=np.float64)
            blank_score = total.item(blank)
            done = completed.get(yseq)
            if done is None:
                done = completed[yseq] = [blank_score, hyp]
            else:
                done[0] = _logaddexp(done[0], blank_score)
            if len(completed) >= beam and done[0] > floor:
                floor = sorted([c[0] for c in completed.values()])[-beam]
            # this pop's own cells (a slice of ``total`` or a new array): the row keeps them
            cells, lm_row, lm_scored = _fuse(model, config, (hyp,), total)
            for label in pool_children.get(yseq, ()):
                child = yseq + (label,)
                kid = active.get(child)
                if kid is not None and cells[label] > NEG_INF:
                    version += 1
                    kid[0], kid[1] = version, _logaddexp(kid[1], cells.item(label))
                    if kid[1] >= floor:
                        heapq.heappush(heap, (-kid[1], child, version, kid))
                    cells[label] = NEG_INF
            row = rows.get(yseq)
            if row is None:
                row = rows[yseq] = [0, cells, (hyp, lm_row, lm_scored[0])]
            else:
                row[1] = np.logaddexp(row[1], cells)
            push_row(yseq, row)
        pool = _prune(completed, beam)
    return replace(_nbest_from_pool(pool, config), truncated=truncated)


def transducer_tsd(model: TransducerModel, frames: int,
                   config: TransducerBeamConfig) -> NBestList:
    """Time-synchronous decoding (Saon et al. 2020): within each frame up to
    max_exp_per_step label-expansion rounds, a blank completion is available
    after every round, duplicates merge by log-sum-exp, top-B kept per
    frame. Each round keeps the B best label expansions of the round's
    hypotheses, chosen from their score matrix before any is built; the
    last round only completes with the frame-advancing blank, so merged
    scores stay alignment sums."""
    beam = config.beam_size
    pool = _init_pool(model, config)
    blank = model.blank_id

    for t in range(frames):
        completed: Dict[Tuple[int, ...], list] = {}
        current = pool
        for round_idx in range(config.max_exp_per_step + 1):
            parents = list(current.values())
            total = np.array([h.score for h in parents])[:, None] + model.joint_batch(
                t, [h.pred_state for h in parents])
            for hyp, score in zip(parents, total[:, blank].tolist()):
                entry = completed.get(hyp.yseq)
                if entry is None:
                    completed[hyp.yseq] = [score, hyp]
                else:
                    entry[0] = _logaddexp(entry[0], score)
            if round_idx == config.max_exp_per_step:
                break
            # children of distinct parents never share a yseq: nothing to merge
            current = _keep(model, config, parents, _fuse(model, config, parents, total), beam,
                            lambda h: t)
            if not current:
                break
        pool = _prune(completed, beam)
    return _nbest_from_pool(pool, config)


def transducer_alsd(model: TransducerModel, frames: int,
                    config: TransducerBeamConfig) -> NBestList:
    """Alignment-length-synchronous decoding (Saon et al. 2020): hypotheses
    advance in i = t + u; blanks advance time, labels grow the sequence up to
    U_max = ceil(u_max_ratio * T) (or the explicit u_max override).
    Hypotheses are final once every frame is consumed. Each step keeps the
    B best of the blank advances and the label expansions, choosing the
    expansions from their score matrix before any is built."""
    beam = config.beam_size
    blank = model.blank_id
    u_max = config.u_max if config.u_max is not None else math.ceil(
        config.u_max_ratio * frames)

    current = _init_pool(model, config)  # all entries satisfy t + u == i
    # with no frames to consume, the initial hypothesis is already final
    final = {yseq: [h.score, h] for yseq, h in current.items()} if frames == 0 else {}
    for i in range(frames + u_max):
        live = [h for h in current.values() if i - len(h.yseq) < frames]
        if not live:
            break
        total = np.array([h.score for h in live])[:, None] + np.array(
            [model.joint(i - len(h.yseq), h.pred_state) for h in live])
        nxt: Dict[Tuple[int, ...], list] = {}
        for hyp, score in zip(live, total[:, blank].tolist()):
            # a yseq meets its last frame at one i only, once: nothing to merge
            if i - len(hyp.yseq) < frames - 1:
                nxt[hyp.yseq] = [score, hyp]
            else:
                final[hyp.yseq] = [score, hyp]
        grow = [r for r, h in enumerate(live) if len(h.yseq) < u_max]
        parents = [live[r] for r in grow]
        fused = _fuse(model, config, parents, total if len(grow) == len(live) else total[grow])
        # a label expansion may reach the yseq of a blank advance (parents
        # differ in length): merge the pair into the blank advance
        index = {h.yseq: r for r, h in enumerate(parents)}
        pairs = [(yseq, index[yseq[:-1]], yseq[-1]) for yseq in nxt
                 if yseq and yseq[:-1] in index]
        if pairs:
            ys, rs, ls = zip(*pairs)
            cells = fused[0][rs, ls]
            if math.isnan(sum(cells.tolist())):  # _keep never sees merged cells
                r = rs[int(np.isnan(cells).argmax())]
                raise _nan_error(config, fused[1][r], i - len(parents[r].yseq))
            for yseq, score in zip(ys, np.logaddexp([nxt[y][0] for y in ys], cells).tolist()):
                nxt[yseq][0] = score
            fused[0][rs, ls] = NEG_INF
        current = _keep(model, config, parents, fused, beam, lambda h: i - len(h.yseq), nxt)
        if not current:
            break
    return _nbest_from_pool(_prune(final, beam), config)


def transducer_nsc(model: TransducerModel, frames: int,
                   config: TransducerBeamConfig) -> NBestList:
    """N-step constrained beam search (after Kim et al. 2020, modified): per
    frame at most n_steps label emissions, the last of them force-completed
    with the frame-advancing blank. That is TSD with n_steps expansion
    rounds, so it runs transducer_tsd."""
    return transducer_tsd(model, frames, replace(config, max_exp_per_step=config.n_steps))


def _nbest_from_pool(pool: Dict[Tuple[int, ...], TransducerHypothesis],
                     config: TransducerBeamConfig) -> NBestList:
    entries = []
    for yseq, hyp in pool.items():
        scores = {"transducer": hyp.score}
        if config.lm is not None:
            scores = {
                "transducer": hyp.score - config.lm_weight * hyp.lm_score,
                "lm": hyp.lm_score,
            }
        entries.append(NBestEntry(yseq=yseq, score=hyp.score, scores=scores))
    return NBestList.from_entries(entries)


def _greedy_nbest(model: TransducerModel, frames: int,
                  config: TransducerBeamConfig) -> NBestList:
    """transducer_greedy wrapped as a 1-best list."""
    hyp = transducer_greedy(model, frames)
    return _nbest_from_pool({hyp.yseq: hyp}, config)


ALGORITHMS = {"greedy": _greedy_nbest, "beam": transducer_beam, "tsd": transducer_tsd,
              "alsd": transducer_alsd, "nsc": transducer_nsc}


def transducer_decode(model: TransducerModel, frames: int,
                      config: TransducerBeamConfig) -> NBestList:
    """Dispatch on config.algorithm (checked by the config)."""
    return ALGORITHMS[config.algorithm](model, frames, config)
