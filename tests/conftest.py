"""Shared generators for randomized tests.

Everything here is seeded; tests derive instance seeds from a base so runs
are reproducible.
"""

from __future__ import annotations

import importlib
import itertools
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import settings

from seqdecode import EmissionMatrix, FullScorer, PartialScorer, TableScorer, Vocabulary
from seqdecode import scorers as scorers_mod
from seqdecode.transducer import TableTransducer

# property tests draw the same examples on every run, keep no example
# database and have no deadline, so a slow host cannot fail them; each
# test keeps its own max_examples
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def make_vocab(n_labels: int, with_mask: bool = False, extra: Sequence[str] = ()) -> Vocabulary:
    """<blank> l0 l1 ... <eos> <sos> [<mask>] [extra]."""
    tokens = ["<blank>"] + [f"l{i}" for i in range(n_labels)] + ["<eos>", "<sos>"]
    mask_id = None
    if with_mask:
        mask_id = len(tokens)
        tokens.append("<mask>")
    tokens.extend(extra)
    return Vocabulary(
        tokens=tuple(tokens),
        blank_id=0,
        sos_id=n_labels + 2,
        eos_id=n_labels + 1,
        mask_id=mask_id,
    )


def random_emission(rng: np.random.Generator, frames: int, vocab_size: int,
                    scale: float = 1.5) -> EmissionMatrix:
    return EmissionMatrix.from_logits(scale * rng.normal(size=(frames, vocab_size)))


def random_table_scorer(rng: np.random.Generator, context_order: int,
                        vocab_size: int, n_contexts: Optional[int] = None) -> TableScorer:
    """Random normalised rows for every context up to the given order (or a
    random subset, leaving the rest to the uniform fallback)."""
    contexts: List[Tuple[int, ...]] = [()]
    for k in range(1, context_order + 1):
        contexts.extend(itertools.product(range(vocab_size), repeat=k))
    if n_contexts is not None and n_contexts < len(contexts):
        keep = rng.choice(len(contexts), size=n_contexts, replace=False)
        contexts = [contexts[i] for i in sorted(keep)] + [()]
    rows = {ctx: np.log(rng.dirichlet(np.ones(vocab_size))) for ctx in set(contexts)}
    return TableScorer(context_order, vocab_size, rows)


def validate_hypothesis(hyp, weights: Dict[str, float]) -> bool:
    """True iff hyp.score equals the weighted sum of its per-scorer scores
    within 1e-9. Pure predicate; -inf totals compare equal to -inf."""
    total = 0.0
    for name, value in hyp.scores.items():
        total += weights[name] * value
    if math.isinf(hyp.score) or math.isinf(total):
        return hyp.score == total
    return abs(hyp.score - total) <= 1e-9


def collapse(path: Sequence[int], blank_id: int) -> Tuple[int, ...]:
    out: List[int] = []
    prev = -1
    for p in path:
        if p != prev and p != blank_id:
            out.append(int(p))
        prev = p
    return tuple(out)


def brute_prefix_prob(emission: EmissionMatrix, prefix: Sequence[int], blank_id: int) -> float:
    """Linear-domain probability that the collapsed label sequence starts
    with ``prefix``, by exhaustive path enumeration."""
    prefix = tuple(prefix)
    x = np.exp(emission.data)
    total = 0.0
    for path in itertools.product(range(emission.vocab_size), repeat=emission.frames):
        seq = collapse(path, blank_id)
        if seq[: len(prefix)] == prefix:
            p = 1.0
            for t, tok in enumerate(path):
                p *= x[t, tok]
            total += p
    return total


def brute_ctc_prob(emission: EmissionMatrix, labels: Sequence[int], blank_id: int) -> float:
    labels = tuple(labels)
    x = np.exp(emission.data)
    total = 0.0
    for path in itertools.product(range(emission.vocab_size), repeat=emission.frames):
        if collapse(path, blank_id) != labels:
            continue
        p = 1.0
        for t, tok in enumerate(path):
            p *= x[t, tok]
        total += p
    return total


def ctc_states_equal(a, b) -> bool:
    """Two CTCPrefixStates hold the same prefix length, prefix score (nan
    equal to nan) and forward variables r_nb and r_b."""
    return (a.prefix_len == b.prefix_len
            and (a.prefix_score == b.prefix_score
                 or (math.isnan(a.prefix_score) and math.isnan(b.prefix_score)))
            and np.array_equal(a.r_nb, b.r_nb) and np.array_equal(a.r_b, b.r_b))


def ctc_state(state):
    """A CTCPrefixState as the (r_nb, r_b, r_sum, prefix_score, prefix_len)
    tuple ``frame_loop_reference`` takes."""
    return state.r_nb, state.r_b, state.r_sum, state.prefix_score, state.prefix_len


def frame_loop_reference(prefixes, cands, states, x, blank_id, eos_id):
    """Reference: the per-frame loop over a (T, 2, B, C) tensor that the
    kernel was first written as, scoring from the parents' r_b and r_sum.
    ``states`` are ``ctc_state`` tuples; returns (scores, r, psi), r the
    successors' (r_nb, r_b) per frame."""
    T = x.shape[0]
    B, C = cands.shape
    prefix_lens = np.array([s[4] for s in states])
    r_b_prev = np.stack([s[1] for s in states], axis=1)
    r_sum = np.stack([s[2] for s in states], axis=1)
    prefix_scores = np.array([s[3] for s in states])
    xs = x[:, cands]
    r = np.full((T, 2, B, C), -np.inf)
    empty = prefix_lens == 0
    r[0, 0, empty] = xs[0, empty]
    last = np.array([p[-1] if s[4] > 0 else -1 for p, s in zip(prefixes, states)])
    repeat = cands == last[:, None]
    log_phi = np.where(repeat[None], r_b_prev[:, :, None], r_sum[:, :, None])
    psi = r[0, 0].copy()
    for t in range(1, T):
        r[t, 0] = np.logaddexp(r[t - 1, 0], log_phi[t - 1]) + xs[t]
        r[t, 1] = np.logaddexp(r[t - 1, 0], r[t - 1, 1]) + x[t, blank_id]
        psi = np.logaddexp(psi, log_phi[t - 1] + xs[t])
    eos_mask = cands == eos_id
    psi[eos_mask] = np.broadcast_to(r_sum[T - 1][:, None], (B, C))[eos_mask]
    with np.errstate(invalid="ignore"):
        scores = np.where(prefix_scores[:, None] == -np.inf, -np.inf,
                          psi - prefix_scores[:, None])
    return scores, r, psi


def psi_near(got, want, frames, psi=None):
    """Whether CTC psi (or scores, psi less the prefix score, given the
    reference's psi) are within the block product's stated bound
    (``_psi_tol``) of the frame-loop reference's ``want``, and -inf exactly
    where ``want`` is. A score carries the bound through its subtraction:
    plus an ulp of the score."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    dead = want == -np.inf
    if not np.array_equal(got == -np.inf, dead) or np.isnan(got).any():
        return False
    at = want if psi is None else np.asarray(psi, dtype=float)
    tol = scorers_mod._psi_tol(frames, at) * (1 + 2.0 ** -52) + 2.0 ** -52 * np.abs(want)
    return bool((np.abs(got[~dead] - want[~dead]) <= tol[~dead]).all())


def check_keep_calls(calls, scores, full_scores, ref):
    """The contract of one scoring call's ``keep`` calls, given as
    (lo, hi, kept) triples: at most one, whose bounds contain the
    scores of the unpruned call ``full_scores`` and the frame-loop
    reference ``ref`` (scores, psi, frames). The cells it kept whose bounds
    differ are built and equal the unpruned call's; cells with lo == hi are
    exact; every other cell holds its upper bound. With no call every cell
    is built. The unpruned call is within the stated bound of the
    reference. Returns the built mask."""
    ref_scores, ref_psi, frames = ref
    assert psi_near(full_scores, ref_scores, frames, ref_psi)
    assert len(calls) <= 1
    if not calls:
        assert np.array_equal(scores, full_scores)
        return np.ones(scores.shape, dtype=bool)
    (lo, hi, kept), = calls
    for exact in (full_scores, ref_scores):
        assert (lo <= exact).all() and (exact <= hi).all()
    built = kept & (lo < hi)
    assert np.array_equal(scores[built], full_scores[built])
    assert np.array_equal(scores[lo == hi], ref_scores[lo == hi])
    held = ~built & (lo < hi)
    assert np.array_equal(scores[held], hi[held])
    return built


def counting_fold(monkeypatch):
    """Log the cells of each call that take the frame-order fold in place
    of the product: the only ``logaddexp.reduce`` of an unpruned call, over
    a (T, cells) array."""
    cells = []

    class Logaddexp:
        def __call__(self, *args, **kwargs):
            return np.logaddexp(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(np.logaddexp, name)

        def reduce(self, a, axis=0):
            cells.append(a.shape[1])
            return np.logaddexp.reduce(a, axis=axis)

    class Numpy:
        def __getattr__(self, name):
            return Logaddexp() if name == "logaddexp" else getattr(np, name)

    monkeypatch.setattr(scorers_mod, "np", Numpy())
    return cells


@pytest.fixture(params=["dense", "tiered"])
def ctc_tier(request, monkeypatch):
    """Run a test with every pruned CTC call below the size switch (psi
    for every cell), then with every call above it (peak bounds first)."""
    monkeypatch.setattr(scorers_mod, "_TIERED_MIN_TERMS",
                        math.inf if request.param == "dense" else 0)
    return request.param


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's ``run`` and ``smoke`` modules. They import their siblings
    by bare names (``run``, ``layers``, ``tracing``, ...), so perfbench/ is
    on sys.path and those names are in sys.modules only while the
    requesting module's tests run; both are restored afterwards."""
    names = {p.stem for p in PERFBENCH.glob("*.py")}
    saved_path = list(sys.path)
    saved = {name: sys.modules.pop(name) for name in names if name in sys.modules}
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("run"), importlib.import_module("smoke")
    finally:
        sys.path[:] = saved_path
        for name in names:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


class WrappedPartialScorer(PartialScorer):
    """Adapter presenting a full scorer through the partial-scoring contract.

    score_partial gathers the requested indices from the full V-vector, so it
    is bit-identical to the wrapped scorer on those indices.
    """

    def __init__(self, full: FullScorer):
        self.full = full

    def init_state(self, emission):
        return self.full.init_state(emission)

    def score_partial(self, prefix, candidates, state, emission):
        vec, scored = self.full.score(prefix, state, emission)
        cands = np.asarray(candidates, dtype=np.int64)
        return vec[cands], scored

    def select_state(self, scored_state, token):
        return self.full.select_state(scored_state, token)

    def final_score(self, prefix, state, emission):
        return self.full.final_score(prefix, state, emission)

    def batch_score_partial(self, prefixes, candidates, states, emission):
        mat, scored = self.full.batch_score(prefixes, states, emission)
        cands = np.asarray(candidates, dtype=np.int64)
        gathered = np.take_along_axis(mat, cands, axis=1)
        return gathered, scored


def dag_transducer(rng: np.random.Generator, n_labels: int, frames: int) -> TableTransducer:
    """Finite-support transducer: with k=1 contexts, label j may only follow
    contexts of strictly smaller rank, so reachable sequences are strictly
    increasing label sequences (a finite set) and beam sums are exactly
    checkable against enumeration."""
    contexts: List[Tuple[int, ...]] = [()] + [(j,) for j in range(n_labels)]
    rows: Dict[Tuple[int, ...], np.ndarray] = {}
    for ctx in contexts:
        rank = ctx[0] if ctx else -1
        mat = np.full((frames, n_labels + 1), -np.inf)
        for t in range(frames):
            allowed = [j for j in range(n_labels) if j > rank]
            weights = rng.dirichlet(np.ones(len(allowed) + 1))
            blank_share = 0.25 + 0.5 * rng.random()
            mat[t, n_labels] = math.log(blank_share)
            rest = 1.0 - blank_share
            for j, w in zip(allowed, weights[:-1]):
                mat[t, j] = math.log(rest * (w + 1e-3) / (1.0 + 1e-3 * len(allowed)))
            # renormalise exactly
            mat[t] -= np.logaddexp.reduce(mat[t])
        rows[ctx] = mat
    return TableTransducer(context_order=1, frames=frames, num_labels=n_labels, rows=rows)


def increasing_sequences(n_labels: int) -> List[Tuple[int, ...]]:
    """All strictly increasing label sequences (the dag_transducer support)."""
    seqs: List[Tuple[int, ...]] = [()]
    for r in range(1, n_labels + 1):
        seqs.extend(itertools.combinations(range(n_labels), r))
    return seqs


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
