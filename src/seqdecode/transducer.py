"""Transducer decoding: greedy plus four beam procedures (Graves-style beam
without prefix search, time-synchronous, alignment-length-synchronous, and
n-step constrained), all over a joint-network contract.

Sequence probability is the sum over monotonic alignments, so hypotheses
with identical label sequences are merged by log-sum-exp wherever they meet;
that makes merged beam scores directly comparable to brute-force alignment
sums. Optional shallow fusion adds a weighted LM score to label expansions
(blank expansions are never LM-scored).

No search builds a hypothesis it does not keep. TSD and ALSD score the label
expansions of a round as one (n, V) matrix (``_Expansions``, the only place
fusion arithmetic lives), pick the top B cells by (-score, child yseq), and
only then call pred_step and the LM's select_state for those; NSC is TSD
with n_steps expansion rounds. The Graves beam keeps the label expansions
of each popped parent as one row of V scores with one heap entry, at its
best pending cell, and builds an expansion only when it is popped.
"""

from __future__ import annotations

import abc
import heapq
import math
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    NEG_INF,
    ConfigError,
    NBestEntry,
    NBestList,
    format_key,
    hypothesis_sort_key,
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
    labels. Exercises prediction-state threading without neural inference."""

    def __init__(self, context_order: int, frames: int, num_labels: int,
                 rows: Dict[Tuple[int, ...], np.ndarray]):
        if context_order < 0:
            raise ConfigError("context_order must be >= 0")
        if frames < 1 or num_labels < 1:
            raise ConfigError("need frames >= 1 and num_labels >= 1")
        self.context_order = context_order
        self.frames = frames
        self._num_labels = num_labels
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


@dataclass
class TransducerHypothesis:
    """Label sequence (blank excluded) with its merged alignment-sum score."""

    yseq: Tuple[int, ...]
    score: float
    pred_state: Any
    lm_state: Any = None
    lm_score: float = 0.0  # raw (unweighted) accumulated LM part

    def rescored(self, score: float) -> "TransducerHypothesis":
        """This hypothesis with another score (a cheap dataclasses.replace)."""
        return TransducerHypothesis(self.yseq, score, self.pred_state,
                                    self.lm_state, self.lm_score)


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
    # hypotheses completed so far
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


def _prune(pool: Dict[Tuple[int, ...], TransducerHypothesis], beam: int
           ) -> Dict[Tuple[int, ...], TransducerHypothesis]:
    ranked = sorted(pool.values(), key=hypothesis_sort_key)[:beam]
    return {hyp.yseq: hyp for hyp in ranked}


def _merge(pool: Dict[Tuple[int, ...], TransducerHypothesis],
           hyp: TransducerHypothesis) -> None:
    """Insert hyp, log-sum-exp-merging with an existing identical yseq."""
    old = pool.get(hyp.yseq)
    if old is None:
        pool[hyp.yseq] = hyp
    else:
        pool[hyp.yseq] = old.rescored(float(np.logaddexp(old.score, hyp.score)))


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


def _init_pool(model: TransducerModel, config: TransducerBeamConfig
               ) -> Dict[Tuple[int, ...], TransducerHypothesis]:
    hyp = TransducerHypothesis(
        yseq=(), score=0.0, pred_state=model.pred_init(),
        lm_state=config.lm.init_state(None) if config.lm is not None else None,
    )
    return {(): hyp}


class _Expansions:
    """Label expansions of n parents as one (n, V) score matrix.

    Each cell is ``parent.score + joint[label]``, plus ``weight * lm[label]``
    under fusion, added in that order, so it equals the score the child
    hypothesis gets. Only the cells a search keeps are built into
    hypotheses: pred_step, the LM's select_state and the TransducerHypothesis
    happen for those alone."""

    def __init__(self, model: TransducerModel, config: TransducerBeamConfig,
                 parents: Sequence[TransducerHypothesis], rows: Sequence[np.ndarray]):
        self.model = model
        self.lm = config.lm
        self.parents = parents
        joint = np.asarray(rows, dtype=np.float64)[:, :model.num_labels]
        self.scores = np.array([h.score for h in parents], dtype=np.float64)[:, None] + joint
        if self.lm is not None:
            sos = model.num_labels  # stand-in outside the label range
            vecs, self.lm_scored = [], []
            for h in parents:
                vec, scored = self.lm.score((sos,) + h.yseq, h.lm_state, None)
                if len(vec) != model.num_labels:
                    raise ConfigError(
                        f"fusion LM scores {len(vec)} tokens but the model has "
                        f"{model.num_labels} labels"
                    )
                vecs.append(vec)
                self.lm_scored.append(scored)
            self.lm_rows = np.array(vecs, dtype=np.float64)
            self.scores = self.scores + config.lm_weight * self.lm_rows
            # 0 * -inf is nan: a label the LM rules out is no expansion
            self.scores[np.isnan(self.scores)] = NEG_INF

    def _top_cells(self, k: int) -> List[Tuple[float, Tuple[int, ...], int, int]]:
        """The k best finite cells as (-score, child yseq, row, label), in
        (-score, child yseq) order. Parents differ in length, so ties are
        broken on the whole child tuple, not on (parent, label)."""
        flat = self.scores.ravel()
        k = min(k, int(np.count_nonzero(flat > NEG_INF)))
        if k == 0:
            return []
        kth = np.partition(flat, flat.size - k)[flat.size - k]
        rows, labels = np.nonzero(self.scores >= kth)
        yseqs = [h.yseq for h in self.parents]
        cells = sorted(
            (-score, yseqs[r] + (label,), r, label)
            for score, r, label in zip(
                self.scores[rows, labels].tolist(), rows.tolist(), labels.tolist())
        )
        return cells[:k]

    def child(self, r: int, label: int, score: Optional[float] = None
              ) -> TransducerHypothesis:
        """Build the expansion of parent r by label; ``score`` overrides the
        cell's when merges have raised it."""
        parent = self.parents[r]
        lm_state, lm_raw = parent.lm_state, parent.lm_score
        if self.lm is not None:
            lm_raw = lm_raw + float(self.lm_rows[r, label])
            lm_state = self.lm.select_state(self.lm_scored[r], label)
        return TransducerHypothesis(
            yseq=parent.yseq + (label,),
            score=float(self.scores[r, label]) if score is None else score,
            pred_state=self.model.pred_step(parent.pred_state, label),
            lm_state=lm_state,
            lm_score=lm_raw,
        )

    def best(self, k: int, built: Sequence[TransducerHypothesis] = ()
             ) -> Dict[Tuple[int, ...], TransducerHypothesis]:
        """The k best of the finite cells and the hypotheses in ``built``
        (whose yseqs must not be cells), ranked by (-score, yseq); children
        are built for the selected cells only."""
        ranked = sorted(
            [(-h.score, h.yseq, -1, h) for h in built] + self._top_cells(k)
        )[:k]
        return {
            yseq: (item if r < 0 else self.child(r, item))
            for _, yseq, r, item in ranked
        }


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
    after max_pops_per_frame pops, which truncates it.

    Completed scores only rise, so their B-th best (``floor``) does too,
    and an active entry below it can never be popped: the frame ends
    before it surfaces. Such an entry stays in ``active`` or its row,
    where later expansions merge into it, but goes on the heap only once
    a merge lifts it to the floor."""
    beam = config.beam_size
    pool = _init_pool(model, config)
    blank = model.blank_id
    version = 0

    def push_row(parent: Tuple[int, ...], row: list) -> None:
        """New version for the row; push it at its best pending cell if
        that cell can still be popped (reads this frame's heap and floor)."""
        nonlocal version
        version += 1
        row[0] = version
        best = max(row[1])
        if best > NEG_INF and best >= floor:
            heapq.heappush(heap, (-best, parent + (row[1].index(best),), version, row))

    for t in range(frames):
        # Nodes: yseq -> [version, score, hypothesis] for pool hypotheses
        # not yet popped, parent yseq -> [version, cell scores (-inf once
        # popped or absorbed), _Expansions] for rows. Heap entries are
        # (-score, yseq, version, node), live while node[0] == version.
        active = {yseq: [0, hyp.score, hyp] for yseq, hyp in pool.items()}
        rows: Dict[Tuple[int, ...], list] = {}
        pool_children: Dict[Tuple[int, ...], List[int]] = {}
        for yseq in pool:
            if yseq:
                pool_children.setdefault(yseq[:-1], []).append(yseq[-1])
        heap = [(-node[1], yseq, 0, node) for yseq, node in active.items()]
        heapq.heapify(heap)
        completed: Dict[Tuple[int, ...], TransducerHypothesis] = {}
        floor = NEG_INF  # the B-th best completed score
        pops = 0
        while pops < config.max_pops_per_frame:
            while heap and heap[0][3][0] != heap[0][2]:
                heapq.heappop(heap)
            if not heap or floor > -heap[0][0]:
                break
            neg_score, yseq, _, node = heapq.heappop(heap)
            pops += 1
            if isinstance(node[2], TransducerHypothesis):
                del active[yseq]
                hyp = node[2] if node[2].score == node[1] else node[2].rescored(node[1])
            else:
                hyp = node[2].child(0, yseq[-1], -neg_score)
                node[1][yseq[-1]] = NEG_INF
                push_row(yseq[:-1], node)

            joint_row = model.joint(t, hyp.pred_state)
            _merge(completed, hyp.rescored(hyp.score + float(joint_row[blank])))
            if len(completed) >= beam and completed[yseq].score > floor:
                floor = sorted([h.score for h in completed.values()])[-beam]
            expansions = _Expansions(model, config, [hyp], [joint_row])
            cells = expansions.scores[0].tolist()
            for label in pool_children.get(yseq, ()):
                child = yseq + (label,)
                kid = active.get(child)
                if kid is not None and cells[label] > NEG_INF:
                    version += 1
                    kid[0], kid[1] = version, float(np.logaddexp(kid[1], cells[label]))
                    if kid[1] >= floor:
                        heapq.heappush(heap, (-kid[1], child, version, kid))
                    cells[label] = NEG_INF
            row = rows.get(yseq)
            if row is None:
                row = rows[yseq] = [0, cells, expansions]
            else:
                row[1] = np.logaddexp(row[1], cells).tolist()
            push_row(yseq, row)
        pool = _prune(completed, beam)
        if not pool:
            break
    return _nbest_from_pool(pool, config)


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
        completed: Dict[Tuple[int, ...], TransducerHypothesis] = {}
        current = pool
        for round_idx in range(config.max_exp_per_step + 1):
            items = sorted(current.values(), key=hypothesis_sort_key)
            rows = model.joint_batch(t, [h.pred_state for h in items])
            for hyp, joint_row in zip(items, rows):
                _merge(completed, hyp.rescored(hyp.score + float(joint_row[blank])))
            if round_idx == config.max_exp_per_step:
                break
            # children of distinct parents never share a yseq: nothing to merge
            current = _Expansions(model, config, items, rows).best(beam)
            if not current:
                break
        pool = _prune(completed, beam)
        if not pool:
            break
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
    if config.u_max is not None:
        u_max = config.u_max
    else:
        u_max = math.ceil(config.u_max_ratio * frames)

    current = _init_pool(model, config)  # all entries satisfy t + u == i
    final: Dict[Tuple[int, ...], TransducerHypothesis] = {}
    for i in range(frames + u_max):
        nxt: Dict[Tuple[int, ...], TransducerHypothesis] = {}
        parents: List[TransducerHypothesis] = []
        rows: List[np.ndarray] = []
        for hyp in sorted(current.values(), key=hypothesis_sort_key):
            u = len(hyp.yseq)
            t = i - u
            if t >= frames:
                continue
            joint_row = model.joint(t, hyp.pred_state)
            blank_hyp = hyp.rescored(hyp.score + float(joint_row[blank]))
            if t == frames - 1:
                _merge(final, blank_hyp)
            else:
                nxt[hyp.yseq] = blank_hyp
            if u < u_max:
                parents.append(hyp)
                rows.append(joint_row)
        if not parents:
            current = _prune(nxt, beam)
        else:
            expansions = _Expansions(model, config, parents, rows)
            # a label expansion may reach the yseq of a blank advance (parents
            # differ in length): merge the pair into the blank advance
            index = {h.yseq: r for r, h in enumerate(parents)}
            pairs = [(yseq, index[yseq[:-1]], yseq[-1]) for yseq in nxt
                     if yseq and yseq[:-1] in index]
            if pairs:
                ys, rs, ls = zip(*pairs)
                merged = np.logaddexp([nxt[y].score for y in ys],
                                      expansions.scores[rs, ls]).tolist()
                for yseq, score in zip(ys, merged):
                    nxt[yseq] = nxt[yseq].rescored(score)
                expansions.scores[rs, ls] = NEG_INF
            current = expansions.best(beam, list(nxt.values()))
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
    return NBestList.from_entries(
        [NBestEntry(yseq=hyp.yseq, score=hyp.score, scores={"transducer": hyp.score})]
    )


ALGORITHMS = {"greedy": _greedy_nbest, "beam": transducer_beam, "tsd": transducer_tsd,
              "alsd": transducer_alsd, "nsc": transducer_nsc}


def transducer_decode(model: TransducerModel, frames: int,
                      config: TransducerBeamConfig) -> NBestList:
    """Dispatch on config.algorithm (checked by the config)."""
    return ALGORITHMS[config.algorithm](model, frames, config)
