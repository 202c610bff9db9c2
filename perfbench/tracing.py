"""Outside-in tracing: spans and tallies recorded around the package's
public entry points, from the benchmark's own files.

Coarse calls (a decode, a scorer's batched call, an alignment) become spans
with a name, start, end, parent and request id. Fine-grained calls that run
thousands of times per request (``select_state``, the pre-beam top-k, n-gram
lookups, transducer model steps) are tallied as call count plus time, and
their time is charged to the enclosing span as child time, so every span's
self time is its duration minus what its children covered.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Sequence

import numpy as np

from seqdecode.maskctc import MLMScorer
from seqdecode.scorers import FullScorer, PartialScorer
from seqdecode.transducer import TransducerModel

# the package re-exports the function under the module's own name
bs_mod = importlib.import_module("seqdecode.beam_search")
lm_mod = importlib.import_module("seqdecode.lm")
mc_mod = importlib.import_module("seqdecode.maskctc")

NAME, START, END, PARENT, REQUEST, CHILD = range(6)


class Tracer:
    """In-memory span and counter store for one benchmark run."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.request = -1
        # (request, name) -> [calls, seconds] for tallied calls
        self.tallies: Dict[tuple, list] = defaultdict(lambda: [0, 0.0])
        # (request, name) -> count
        self.counts: Dict[tuple, float] = defaultdict(float)
        self.decode: Optional[DecodeStats] = None
        self.frame_pops: Dict[int, int] = defaultdict(int)

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.request, 0.0])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        now = perf_counter()
        rec = self.spans[idx]
        rec[END] = now
        self.stack.pop()
        if self.stack:
            self.spans[self.stack[-1]][CHILD] += now - rec[START]

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def tally(self, name: str, seconds: float) -> None:
        entry = self.tallies[(self.request, name)]
        entry[0] += 1
        entry[1] += seconds
        if self.stack:
            self.spans[self.stack[-1]][CHILD] += seconds

    def count(self, name: str, n: float = 1) -> None:
        self.counts[(self.request, name)] += n

    def dump(self, path: str) -> None:
        """Write spans (one JSON object per line) and the tallies."""
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, request, child in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "request": request,
                                    "self": end - start - child}) + "\n")
            for (request, name), (calls, seconds) in sorted(self.tallies.items()):
                f.write(json.dumps({"tally": name, "request": request,
                                    "calls": calls, "seconds": seconds}) + "\n")


class DecodeStats:
    """Step and stop bookkeeping for one beam-search decode, fed by the
    step-counting full scorer's proxy and the module wrappers.

    A successor is counted where it is built: the search calls every full
    scorer's ``select_state`` once per successor. The successors a step kept
    are observed, not derived: the live prefixes the next step scores plus
    the ``final_score`` calls of the step. So the kept count, and the built
    count it is compared with, cover every step that another step follows.
    """

    def __init__(self) -> None:
        self.steps = 0
        self.built = 0
        self.observed_built = 0
        self.kept = 0
        self.finals = 0
        self.step_built = 0
        self.step_finals = 0
        self.early_stop = False

    def new_step(self, live: int) -> None:
        if self.steps:
            self.observed_built += self.step_built
            self.kept += live + self.step_finals
        self.steps += 1
        self.step_built = self.step_finals = 0

    def built_one(self) -> None:
        self.built += 1
        self.step_built += 1

    def finished_one(self) -> None:
        self.finals += 1
        self.step_finals += 1


def _timed(tracer: Tracer, name: str, fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    tracer.tally(name, perf_counter() - t0)
    return out


class TracedFullScorer(FullScorer):
    """Delegating full scorer; ``batch_score`` forwards to the inner
    scorer's own batched method, never to the base-class loop."""

    def __init__(self, inner: FullScorer, tracer: Tracer, layer: str, counts_steps: bool):
        self.inner = inner
        self.tracer = tracer
        self.layer = layer
        self.counts_steps = counts_steps

    def init_state(self, emission):
        return self.inner.init_state(emission)

    def score(self, prefix, state, emission):
        self.tracer.count(f"{self.layer}.score_calls")
        return _timed(self.tracer, f"{self.layer}.score", self.inner.score, prefix, state, emission)

    def select_state(self, scored_state, token):
        if self.counts_steps and self.tracer.decode is not None:
            self.tracer.decode.built_one()
        return _timed(self.tracer, f"{self.layer}.select_state",
                      self.inner.select_state, scored_state, token)

    def final_score(self, prefix, state, emission):
        if self.counts_steps and self.tracer.decode is not None:
            self.tracer.decode.finished_one()
        return _timed(self.tracer, f"{self.layer}.final_score",
                      self.inner.final_score, prefix, state, emission)

    def batch_score(self, prefixes, states, emission):
        if self.counts_steps and self.tracer.decode is not None:
            self.tracer.decode.new_step(len(prefixes))
        with self.tracer.span(f"{self.layer}.batch_score"):
            return self.inner.batch_score(prefixes, states, emission)


class TracedPartialScorer(PartialScorer):
    """Delegating partial scorer; ``batch_score_partial`` is the kernel span
    and forwards to the inner scorer's batched method."""

    def __init__(self, inner: PartialScorer, tracer: Tracer, layer: str):
        self.inner = inner
        self.tracer = tracer
        self.layer = layer

    def init_state(self, emission):
        return self.inner.init_state(emission)

    def score_partial(self, prefix, candidates, state, emission):
        self.tracer.count(f"{self.layer}.cells", emission.frames * len(candidates))
        return _timed(self.tracer, f"{self.layer}.kernel", self.inner.score_partial,
                      prefix, candidates, state, emission)

    def select_state(self, scored_state, token):
        return _timed(self.tracer, f"{self.layer}.select_state",
                      self.inner.select_state, scored_state, token)

    def final_score(self, prefix, state, emission):
        return _timed(self.tracer, f"{self.layer}.final_score",
                      self.inner.final_score, prefix, state, emission)

    def batch_score_partial(self, prefixes, candidates, states, emission):
        self.tracer.count(f"{self.layer}.cells", emission.frames * np.size(candidates))
        with self.tracer.span(f"{self.layer}.kernel"):
            return self.inner.batch_score_partial(prefixes, candidates, states, emission)


class TracedTransducerModel(TransducerModel):
    """Delegating joint network; ``joint_batch`` forwards to the inner
    model's batched method. Joint calls are counted per frame so a beam
    search that pops many hypotheses in one frame shows."""

    def __init__(self, inner: TransducerModel, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    @property
    def num_labels(self) -> int:
        return self.inner.num_labels

    def pred_init(self):
        return self.inner.pred_init()

    def pred_step(self, state, label):
        self.tracer.count("transducer.model.pred_step_calls")
        return _timed(self.tracer, "transducer.model.pred_step", self.inner.pred_step, state, label)

    def joint(self, t, state):
        self.tracer.count("transducer.model.joint_rows")
        self.tracer.frame_pops[t] += 1
        return _timed(self.tracer, "transducer.model.joint", self.inner.joint, t, state)

    def joint_batch(self, t, states: Sequence[Any]):
        self.tracer.count("transducer.model.joint_rows", len(states))
        return _timed(self.tracer, "transducer.model.joint_batch",
                      self.inner.joint_batch, t, states)


class TracedMLM(MLMScorer):
    def __init__(self, inner: MLMScorer, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def predict(self, tokens):
        self.tracer.count("maskctc.mlm_calls")
        with self.tracer.span("maskctc.mlm"):
            return self.inner.predict(tokens)


@contextmanager
def module_wrappers(tracer: Tracer) -> Iterator[None]:
    """Swap the module-global helpers the package calls internally for
    tallying wrappers; restore the originals on exit."""
    top_candidate_ids = bs_mod.top_candidate_ids
    end_detect = bs_mod.end_detect
    ngram_score = lm_mod.ngram_score
    collapse = mc_mod.ctc_confidence_collapse

    def traced_topk(scores, ids, k):
        return _timed(tracer, "beam_search.topk", top_candidate_ids, scores, ids, k)

    def traced_end_detect(*args, **kwargs):
        stop = _timed(tracer, "beam_search.end_detect", end_detect, *args, **kwargs)
        if tracer.decode is not None:
            tracer.decode.early_stop = bool(stop)
        return stop

    def traced_ngram(*args):
        return _timed(tracer, "lm.ngram_score", ngram_score, *args)

    def traced_collapse(*args):
        return _timed(tracer, "maskctc.collapse", collapse, *args)

    bs_mod.top_candidate_ids = traced_topk
    bs_mod.end_detect = traced_end_detect
    lm_mod.ngram_score = traced_ngram
    mc_mod.ctc_confidence_collapse = traced_collapse
    try:
        yield
    finally:
        bs_mod.top_candidate_ids = top_candidate_ids
        bs_mod.end_detect = end_detect
        lm_mod.ngram_score = ngram_score
        mc_mod.ctc_confidence_collapse = collapse
