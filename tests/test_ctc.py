import itertools
import math
import tracemalloc

import numpy as np
import pytest

from seqdecode import (
    EmissionMatrix,
    InfeasibleError,
    ctc_forced_align,
    ctc_forward,
    ctc_vad,
)
from seqdecode import ctc as ctc_mod
from seqdecode import maskctc as maskctc_mod
from seqdecode.ctc import Segment, TokenSpan, ctc_confidence_collapse, merge_runs

from conftest import brute_ctc_prob, collapse, random_emission


def emission_from_probs(rows) -> EmissionMatrix:
    return EmissionMatrix(np.log(np.array(rows, dtype=np.float64)))


class TestCtcForward:
    def test_single_frame_single_label(self):
        em = emission_from_probs([[0.5, 0.5]])
        assert ctc_forward(em, [1], 0) == pytest.approx(math.log(0.5), abs=1e-12)

    def test_two_frames_uniform(self):
        # paths a., .a, aa (of four) realise "a": 3/4
        em = emission_from_probs([[0.5, 0.5], [0.5, 0.5]])
        assert ctc_forward(em, [1], 0) == pytest.approx(math.log(0.75), abs=1e-12)

    def test_unreachable_returns_neg_inf(self):
        em = emission_from_probs([[0.5, 0.5]])
        assert ctc_forward(em, [1, 1], 0) == float("-inf")

    def test_blank_label_is_usage_error(self):
        em = emission_from_probs([[0.5, 0.5]])
        with pytest.raises(ValueError):
            ctc_forward(em, [0], 0)

    def test_empty_labels_are_blank_runs(self):
        em = emission_from_probs([[0.8, 0.2], [0.8, 0.2]])
        assert ctc_forward(em, [], 0) == pytest.approx(math.log(0.64), abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_path_sum(self, seed):
        rng = np.random.default_rng(3000 + seed)
        frames = int(rng.integers(1, 6))
        em = random_emission(rng, frames, 3)
        for length in range(0, 4):
            for labels in itertools.product((1, 2), repeat=length):
                expected = brute_ctc_prob(em, labels, 0)
                got = math.exp(ctc_forward(em, labels, 0))
                assert got == pytest.approx(expected, abs=1e-9)

    def test_repeated_labels_require_blank(self):
        # "aa" needs a separating blank: only path a-blank-a works in T=3
        em = emission_from_probs([[0.2, 0.8], [0.6, 0.4], [0.2, 0.8]])
        expected = 0.8 * 0.6 * 0.8
        assert math.exp(ctc_forward(em, [1, 1], 0)) == pytest.approx(expected, abs=1e-12)


class TestCtcGreedy:
    def test_all_blank(self):
        em = emission_from_probs([[0.9, 0.1], [0.9, 0.1]])
        assert ctc_confidence_collapse(em, 0)[0] == ()

    def test_collapse_and_blank_split(self):
        rows = [
            [0.1, 0.9, 0.0001],
            [0.1, 0.9, 0.0001],
            [0.9, 0.1, 0.0001],
            [0.1, 0.0001, 0.9],
        ]
        em = EmissionMatrix.from_logits(np.log(np.array(rows)))
        assert ctc_confidence_collapse(em, 0)[0] == (1, 2)


class TestForcedAlign:
    def test_blank_then_label(self):
        em = emission_from_probs([[0.9, 0.1], [0.1, 0.9]])
        alignment = ctc_forced_align(em, [1], 0)
        assert alignment.path == (0, 1)
        assert alignment.spans == tuple([type(alignment.spans[0])(token=1, start=1, end=2)])

    def test_forced_diagonal_unique_path(self):
        # T equals the expanded length: the only feasible path is b a b
        em = emission_from_probs([[0.9, 0.1], [0.1, 0.9], [0.9, 0.1]])
        alignment = ctc_forced_align(em, [1], 0)
        assert len(alignment.path) == 3
        assert collapse(alignment.path, 0) == (1,)

    def test_tight_diagonal_two_labels(self):
        em = emission_from_probs([[0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        alignment = ctc_forced_align(em, [1, 2], 0)
        assert alignment.path == (1, 2)
        assert [(s.token, s.start, s.end) for s in alignment.spans] == [(1, 0, 1), (2, 1, 2)]

    def test_unreachable_raises(self):
        em = emission_from_probs([[0.5, 0.5]])
        with pytest.raises(InfeasibleError):
            ctc_forced_align(em, [1, 1], 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_viterbi_is_max_over_feasible_paths(self, seed):
        rng = np.random.default_rng(5000 + seed)
        frames = int(rng.integers(2, 6))
        em = random_emission(rng, frames, 3)
        labels = (1, 2) if frames >= 2 else (1,)
        best = -np.inf
        for path in itertools.product(range(3), repeat=frames):
            if collapse(path, 0) != labels:
                continue
            best = max(best, sum(float(em.data[t, p]) for t, p in enumerate(path)))
        alignment = ctc_forced_align(em, labels, 0)
        assert alignment.score == pytest.approx(best, abs=1e-9)
        assert collapse(alignment.path, 0) == labels

    @pytest.mark.parametrize("seed", range(8))
    def test_path_prob_bounded_by_forward(self, seed):
        rng = np.random.default_rng(6000 + seed)
        em = random_emission(rng, 5, 3)
        alignment = ctc_forced_align(em, (1, 2), 0)
        assert alignment.score <= ctc_forward(em, (1, 2), 0) + 1e-12

    def test_spans_disjoint_ordered_and_consistent(self, rng):
        em = random_emission(rng, 6, 4)
        alignment = ctc_forced_align(em, (1, 2, 1), 0)
        spans = alignment.spans
        assert [s.token for s in spans] == [1, 2, 1]
        for s in spans:
            assert 0 <= s.start < s.end <= 6
        for a, b in zip(spans, spans[1:]):
            assert a.end <= b.start

    def test_peak_memory_is_about_one_score_table(self):
        # the (T, S) float64 scores are the only table the alignment keeps:
        # its backtrace reads them, with no table of predecessors
        rng = np.random.default_rng(5100)
        em = random_emission(rng, 400, 50)
        labels = [int(v) for v in rng.integers(1, 50, size=100)]  # S = 201
        tracemalloc.start()
        try:
            ctc_forced_align(em, labels, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 400 * 201 * 8


@pytest.mark.parametrize("blank_id", [-1, 3, 9])
@pytest.mark.parametrize("run", [
    lambda em, blank: ctc_vad(em, blank, on_threshold=0.5),
    lambda em, blank: ctc_forward(em, [1], blank),
    lambda em, blank: ctc_forced_align(em, [1], blank),
], ids=["vad", "forward", "align"])
def test_blank_id_outside_emission_is_value_error(run, blank_id):
    em = EmissionMatrix.from_logits(np.log(np.array([[0.8, 0.1, 0.1]] * 3)))
    with pytest.raises(ValueError, match="blank_id"):
        run(em, blank_id)


class TestVad:
    def test_all_blank_is_one_nonspeech_segment(self):
        em = EmissionMatrix.from_logits(np.log(np.array([[0.999, 0.001]] * 4)))
        segments = ctc_vad(em, 0, on_threshold=0.5)
        assert [(s.start, s.end, s.kind) for s in segments] == [(0, 4, "nonspeech")]

    def test_no_blank_is_one_speech_segment(self):
        em = EmissionMatrix.from_logits(np.log(np.array([[0.001, 0.999]] * 3)))
        segments = ctc_vad(em, 0, on_threshold=0.5)
        assert [(s.start, s.end, s.kind) for s in segments] == [(0, 3, "speech")]

    def test_short_gap_merges(self):
        rows = [[0.1, 0.9], [0.1, 0.9], [0.9, 0.1], [0.1, 0.9]]
        em = emission_from_probs(rows)
        segments = ctc_vad(em, 0, on_threshold=0.5, min_gap_frames=2)
        assert [(s.start, s.end, s.kind) for s in segments] == [(0, 4, "speech")]

    def test_margin_widens_and_clips(self):
        rows = [[0.9, 0.1], [0.9, 0.1], [0.1, 0.9], [0.9, 0.1], [0.9, 0.1]]
        em = emission_from_probs(rows)
        segments = ctc_vad(em, 0, on_threshold=0.5, margin_frames=1)
        assert [(s.start, s.end, s.kind) for s in segments] == [
            (0, 1, "nonspeech"), (1, 4, "speech"), (4, 5, "nonspeech"),
        ]

    @pytest.mark.parametrize("seed", range(10))
    def test_segments_tile_frames(self, seed):
        rng = np.random.default_rng(7000 + seed)
        frames = int(rng.integers(1, 12))
        em = random_emission(rng, frames, 3)
        segments = ctc_vad(
            em, 0,
            on_threshold=float(rng.uniform(0.1, 0.9)),
            min_gap_frames=int(rng.integers(0, 3)),
            margin_frames=int(rng.integers(0, 3)),
        )
        assert segments[0].start == 0
        assert segments[-1].end == frames
        for a, b in zip(segments, segments[1:]):
            assert a.end == b.start
        for s in segments:
            assert s.start < s.end

    def test_merge_runs_idempotent(self, rng):
        runs = [(0, 2), (3, 4), (8, 9), (10, 12)]
        once = merge_runs(runs, 2)
        twice = merge_runs(once, 2)
        assert once == twice


from hypothesis import given, settings
from hypothesis import strategies as st


def logits_matrix(max_frames=4, vocab_size=3):
    return st.lists(
        st.lists(st.floats(min_value=-3, max_value=3), min_size=vocab_size,
                 max_size=vocab_size),
        min_size=1, max_size=max_frames,
    )


class TestCtcProperties:
    @given(logits_matrix(), st.lists(st.integers(min_value=1, max_value=2),
                                     min_size=0, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_forward_is_a_probability(self, logits, labels):
        em = EmissionMatrix.from_logits(np.array(logits))
        logp = ctc_forward(em, labels, 0)
        assert logp <= 1e-9  # never exceeds probability one

    @given(logits_matrix(max_frames=4), st.lists(st.integers(min_value=1, max_value=2),
                                                 min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_viterbi_never_beats_forward(self, logits, labels):
        em = EmissionMatrix.from_logits(np.array(logits))
        forward = ctc_forward(em, labels, 0)
        if forward == float("-inf"):
            with pytest.raises(InfeasibleError):
                ctc_forced_align(em, labels, 0)
        else:
            alignment = ctc_forced_align(em, labels, 0)
            assert alignment.score <= forward + 1e-12


def scalar_ctc_forward(emission, labels, blank_id):
    """Reference: one scalar logaddexp per (frame, state), as the forward
    pass was first written."""
    x = emission.data
    expanded = [blank_id]
    for lab in labels:
        expanded += [lab, blank_id]
    S = len(expanded)
    alpha = np.full(S, -np.inf)
    alpha[0] = x[0, blank_id]
    if S > 1:
        alpha[1] = x[0, expanded[1]]
    for t in range(1, emission.frames):
        prev = alpha
        alpha = np.full(S, -np.inf)
        for s in range(S):
            acc = prev[s]
            if s >= 1:
                acc = np.logaddexp(acc, prev[s - 1])
            if s >= 2 and expanded[s] != blank_id and expanded[s] != expanded[s - 2]:
                acc = np.logaddexp(acc, prev[s - 2])
            alpha[s] = acc + x[t, expanded[s]]
    if S == 1:
        return float(alpha[0])
    return float(np.logaddexp(alpha[S - 1], alpha[S - 2]))


def scalar_ctc_viterbi(emission, labels, blank_id):
    """Reference: the scalar Viterbi pass and backtrack; returns (score,
    state path), or None when no path fits."""
    x = emission.data
    T = emission.frames
    expanded = [blank_id]
    for lab in labels:
        expanded += [lab, blank_id]
    S = len(expanded)
    delta = np.full((T, S), -np.inf)
    back = np.zeros((T, S), dtype=np.int64)
    delta[0, 0] = x[0, blank_id]
    if S > 1:
        delta[0, 1] = x[0, expanded[1]]
    for t in range(1, T):
        for s in range(S):
            best_prev, best = s, delta[t - 1, s]
            if s >= 1 and delta[t - 1, s - 1] > best:
                best, best_prev = delta[t - 1, s - 1], s - 1
            if (s >= 2 and expanded[s] != blank_id and expanded[s] != expanded[s - 2]
                    and delta[t - 1, s - 2] > best):
                best, best_prev = delta[t - 1, s - 2], s - 2
            delta[t, s] = best + x[t, expanded[s]]
            back[t, s] = best_prev
    if S == 1:
        end, score = 0, delta[T - 1, 0]
    elif delta[T - 1, S - 1] >= delta[T - 1, S - 2]:
        end, score = S - 1, delta[T - 1, S - 1]
    else:
        end, score = S - 2, delta[T - 1, S - 2]
    if score == -np.inf:
        return None
    states = [end]
    for t in range(T - 1, 0, -1):
        states.append(int(back[t, states[-1]]))
    return float(score), [expanded[s] for s in reversed(states)]


def spans_of(path, blank_id):
    """(token, start, end) runs of non-blank path entries, a new span
    whenever a blank or a different token intervenes."""
    spans = []
    for t, tok in enumerate(path):
        if tok != blank_id and t > 0 and path[t - 1] == tok:
            spans[-1] = (tok, spans[-1][1], t + 1)
        elif tok != blank_id:
            spans.append((tok, t, t + 1))
    return spans


def reference_instances():
    """Random emissions (some with -inf entries, ties from quantised
    logits) and label sequences with repeats, no labels, T=1 and lengths
    that cannot fit; then a few long ones, T >= 100 with up to T/2 labels,
    as a long-form request aligns."""
    rng = np.random.default_rng(4242)
    for case in range(126):
        long = case >= 120
        frames = int(rng.choice([100, 160] if long else [1, 2, 3, 7, 15, 40]))
        vocab = int(rng.integers(2 + long, 6 + 2 * long))
        logits = 1.5 * rng.normal(size=(frames, vocab))
        if case % 3 == 0:
            logits = np.round(logits)  # exact ties between paths
        if case % 2 == 0:
            dead = rng.random(logits.shape) < (0.05 if long else 0.2)
            dead[:, 0] = False  # keep every row normalisable
            logits[dead] = -np.inf
        em = EmissionMatrix.from_logits(logits)
        n = int(rng.integers(frames // 4, frames // 2 + 1) if long
                else rng.integers(0, frames + 2))
        yield em, [int(v) for v in rng.integers(1, vocab, size=n)]


REFERENCE_CASES = list(reference_instances())


class TestVectorisedMatchesScalarReference:
    @pytest.mark.parametrize("case", range(len(REFERENCE_CASES)))
    def test_forward_and_alignment_bit_equal(self, case):
        em, labels = REFERENCE_CASES[case]
        assert ctc_forward(em, labels, 0) == scalar_ctc_forward(em, labels, 0)
        ref = scalar_ctc_viterbi(em, labels, 0)
        if ref is None:
            with pytest.raises(InfeasibleError):
                ctc_forced_align(em, labels, 0)
            return
        ali = ctc_forced_align(em, labels, 0)
        assert ali.score == ref[0]
        assert list(ali.path) == ref[1]
        assert [(s.token, s.start, s.end) for s in ali.spans] == spans_of(ref[1], 0)
        assert all(type(s.token) is int for s in ali.spans)

    def test_instances_cover_the_edges(self):
        cases = REFERENCE_CASES
        assert any(em.frames == 1 for em, _ in cases)
        assert any(not labels for _, labels in cases)
        assert any(np.isinf(em.data).any() for em, _ in cases)
        assert any(any(a == b for a, b in zip(lab, lab[1:])) for _, lab in cases)
        assert any(scalar_ctc_viterbi(em, lab, 0) is None for em, lab in cases)
        long = [(em, lab) for em, lab in cases if em.frames >= 100]
        assert any(np.isinf(em.data).any() for em, _ in long)
        assert any(len(np.unique(em.data)) < em.data.size / 2 for em, _ in long)  # ties
        assert any(scalar_ctc_viterbi(em, lab, 0) is not None for em, lab in long)


# The run rule: greedy decoding, the Mask-CTC collapse, VAD and the
# alignment spans all read maximal runs of one value along the frames from
# ``ctc._runs``. The references below are the per-frame loops the collapse,
# VAD and the spans were first written as; every output must equal theirs
# exactly, and greedy decoding must return the collapse's tokens.


def collapse_loop_reference(emission, blank_id):
    """Reference: the per-frame collapse with confidences."""
    ids = np.argmax(emission.data, axis=1)
    probs = np.exp(np.max(emission.data, axis=1))
    tokens, confidences = [], []
    prev = -1
    for t, tok in enumerate(ids):
        tok = int(tok)
        if tok == blank_id:
            prev = tok
            continue
        if tok != prev:
            tokens.append(tok)
            confidences.append(float(probs[t]))
        else:
            confidences[-1] = max(confidences[-1], float(probs[t]))
        prev = tok
    return tuple(tokens), tuple(confidences)


def active_runs_reference(active):
    """Reference: the per-frame scan for runs of active frames."""
    runs, start = [], None
    for t, a in enumerate(active):
        if a and start is None:
            start = t
        elif not a and start is not None:
            runs.append((start, t))
            start = None
    if start is not None:
        runs.append((start, len(active)))
    return runs


def vad_loop_reference(emission, blank_id, on_threshold, min_gap_frames, margin_frames):
    """Reference: active runs merged by the gap, widened, merged again where
    they touch, and tiled with a cursor. Also returns the widened runs."""
    T = emission.frames
    active = 1.0 - np.exp(emission.data[:, blank_id]) >= on_threshold
    runs = merge_runs(active_runs_reference(active), min_gap_frames)
    widened = [(max(0, s - margin_frames), min(T, e + margin_frames)) for s, e in runs]
    segments, cursor = [], 0
    for start, end in merge_runs(widened, 1):
        if start > cursor:
            segments.append(Segment(cursor, start, "nonspeech"))
        segments.append(Segment(start, end, "speech"))
        cursor = end
    if cursor < T:
        segments.append(Segment(cursor, T, "nonspeech"))
    return segments, widened


def states_of(path, blank_id):
    """Expanded-state path of a CTC label path: blanks sit in even states,
    and a label enters the next odd state unless it repeats the frame before
    (a repeated label needs a blank between its two states)."""
    states, k = [], 0
    for t, tok in enumerate(path):
        if tok != blank_id and (t == 0 or path[t - 1] != tok):
            k += 1
        states.append(2 * k if tok == blank_id else 2 * k - 1)
    return states


def span_loop_reference(states, expanded):
    """Reference: the per-frame span loop over the Viterbi state path."""
    spans, cur_state = [], -1
    for t, s in enumerate(states):
        if s % 2 == 1:
            if s != cur_state:
                spans.append(TokenSpan(token=int(expanded[s]), start=t, end=t + 1))
            else:
                spans[-1] = TokenSpan(spans[-1].token, spans[-1].start, t + 1)
        cur_state = s
    return tuple(spans)


def run_rule_cases():
    """Emissions over blank id 0: the edges by hand, then random ones (some
    with tied maxima, some with -inf entries, the blank column included)."""
    p = [[0.1, 0.8, 0.1]]  # label 1 wins
    b = [[0.8, 0.1, 0.1]]  # blank wins
    yield emission_from_probs([[0.2, 0.5, 0.3]])  # T=1
    yield emission_from_probs(b * 4)  # all blank
    yield emission_from_probs(p * 5)  # one run over every frame
    yield emission_from_probs(p + b + p * 2 + b + p)  # blank-separated repeats
    yield emission_from_probs(p * 2 + b * 2 + p * 2 + b * 3 + p)  # widened runs touch
    with np.errstate(divide="ignore"):  # -inf entries, blank -inf twice
        dead = emission_from_probs([[0, 1, 0], [1, 0, 0], [0.5, 0.5, 0], [0, 0.2, 0.8]])
    yield dead
    rng = np.random.default_rng(1212)
    for case in range(40):
        frames = int(rng.choice([1, 2, 5, 12, 30]))
        vocab = int(rng.integers(2, 6))
        logits = 1.5 * rng.normal(size=(frames, vocab))
        logits[:, 0] += float(rng.choice([-1.0, 0.0, 1.0]))
        if case % 3 == 0:
            logits = np.round(logits)  # tied maxima
        if case % 2 == 0:
            dead = rng.random(logits.shape) < 0.25
            dead[:, 1] = False  # keep every row normalisable
            logits[dead] = -np.inf
        yield EmissionMatrix.from_logits(logits)


RUN_RULE_CASES = list(run_rule_cases())
VAD_GRID = list(itertools.product((0.0, 0.3, 0.5, 0.9, 1.0), (0, 1, 2, 1000), (0, 1, 2, 6)))


class TestRunRule:
    @pytest.mark.parametrize("values", [
        [7], [0, 0, 0], [1, 2, 2, 1, 1, 1], [True, False, False, True], [3, 3, 4],
    ])
    def test_runs_are_maximal(self, values):
        value, start, end = ctc_mod._runs(np.array(values))
        expected = []
        for t, v in enumerate(values):
            if expected and expected[-1][0] == v:
                expected[-1] = (v, expected[-1][1], t + 1)
            else:
                expected.append((v, t, t + 1))
        assert list(zip(value.tolist(), start.tolist(), end.tolist())) == expected

    @pytest.mark.parametrize("case", range(len(RUN_RULE_CASES)))
    def test_collapse_and_greedy_equal_the_frame_loop(self, case):
        em = RUN_RULE_CASES[case]
        tokens, confidences = ctc_mod.ctc_confidence_collapse(em, 0)
        assert (tokens, confidences) == collapse_loop_reference(em, 0)
        assert all(type(v) is int for v in tokens)
        assert all(type(v) is float for v in confidences)

    def test_maskctc_reads_the_ctc_collapse(self):
        assert maskctc_mod.ctc_confidence_collapse is ctc_mod.ctc_confidence_collapse

    @pytest.mark.parametrize("case", range(len(RUN_RULE_CASES)))
    def test_vad_equals_the_cursor_tiling(self, case):
        em = RUN_RULE_CASES[case]
        for on, gap, margin in VAD_GRID:
            got = ctc_vad(em, 0, on_threshold=on, min_gap_frames=gap, margin_frames=margin)
            assert got == vad_loop_reference(em, 0, on, gap, margin)[0], (on, gap, margin)
            assert all(type(s.start) is int and type(s.end) is int for s in got)

    @pytest.mark.parametrize("case", range(len(RUN_RULE_CASES)))
    def test_alignment_spans_equal_the_span_loop(self, case):
        em = RUN_RULE_CASES[case]
        rng = np.random.default_rng(3100 + case)
        label_sets = [[1], [1, 1], [1, 1, 1]]
        label_sets += [rng.integers(1, em.vocab_size, size=n).tolist() for n in (2, 3, 5)]
        for labels in label_sets:
            try:
                ali = ctc_forced_align(em, labels, 0)
            except InfeasibleError:
                continue
            expanded = [0] + [x for lab in labels for x in (lab, 0)]
            assert ali.spans == span_loop_reference(states_of(ali.path, 0), expanded)
            assert [s.token for s in ali.spans] == labels
            assert all(type(v) is int for s in ali.spans for v in (s.token, s.start, s.end))
            assert all(type(v) is int for v in ali.path)

    def test_repeated_labels_get_one_span_each(self):
        a, blank = [[0.05, 0.9, 0.05]], [[0.9, 0.05, 0.05]]
        ali = ctc_forced_align(emission_from_probs(a * 2 + blank + a * 3), [1, 1], 0)
        assert ali.spans == (TokenSpan(1, 0, 2), TokenSpan(1, 3, 6))

    def test_cases_cover_the_edges(self):
        ems = RUN_RULE_CASES
        assert any(em.frames == 1 for em in ems)
        assert any(collapse_loop_reference(em, 0)[0] == () for em in ems if em.frames > 1)
        assert any(em.frames > 1 and set(np.argmax(em.data, axis=1).tolist()) == {1}
                   for em in ems)
        assert any(len(set(toks := collapse_loop_reference(em, 0)[0])) < len(toks) for em in ems)
        assert any(np.isneginf(em.data[:, 0]).any() for em in ems)
        assert any(np.isneginf(em.data[:, 1:]).any() for em in ems)
        touch = overlap = False
        for em in ems:
            for on, gap, margin in VAD_GRID:
                widened = vad_loop_reference(em, 0, on, gap, margin)[1]
                for (_, e), (s, _) in zip(widened, widened[1:]):
                    touch |= s == e
                    overlap |= s < e
        assert touch and overlap
