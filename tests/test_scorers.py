import math

import numpy as np
import pytest

from seqdecode import (
    CTCPrefixScorer,
    EmissionMatrix,
    TableScorer,
    ctc_forward,
)

from seqdecode import scorers as scorers_mod

from conftest import (
    WrappedPartialScorer,
    brute_prefix_prob,
    check_keep_calls,
    frame_loop_reference,
    random_emission,
)

NEG_INF = float("-inf")


def uniform_emission(frames: int, vocab_size: int) -> EmissionMatrix:
    return EmissionMatrix(np.full((frames, vocab_size), -math.log(vocab_size)))


class TestTableScorer:
    def test_order_zero_scores_every_prefix_identically(self):
        row = np.log([0.7, 0.3])
        ts = TableScorer(0, 2, {(): row})
        state = ts.init_state(None)
        for prefix in [(9,), (9, 0), (9, 1, 0)]:
            vec, _ = ts.score(prefix, state, None)
            assert np.array_equal(vec, row)

    def test_order_one_context_row(self):
        rows = {
            (): np.log([0.5, 0.5]),
            (0,): np.log([0.1, 0.9]),
        }
        ts = TableScorer(1, 2, rows)
        state = ts.init_state(None)
        state = ts.select_state(state, 0)
        vec, _ = ts.score((9, 0), state, None)
        assert np.array_equal(vec, rows[(0,)])

    def test_unseen_context_uses_fallback_bit_exact(self):
        fallback = np.log([0.25, 0.75])
        ts = TableScorer(1, 2, {(): np.log([0.5, 0.5])}, fallback=fallback)
        vec, _ = ts.score((9, 1), (1,), None)
        assert np.array_equal(vec, fallback)

    def test_rows_must_normalise(self):
        from seqdecode import ConfigError
        with pytest.raises(ConfigError):
            TableScorer(0, 2, {(): np.log([0.5, 0.3])})

    def test_json_round_trip(self, tmp_path, rng):
        rows = {(): np.log(rng.dirichlet(np.ones(3))), (1,): np.log(rng.dirichlet(np.ones(3)))}
        ts = TableScorer(1, 3, rows)
        path = tmp_path / "table.json"
        ts.save(str(path))
        ts2 = TableScorer.load(str(path))
        for ctx in rows:
            assert np.array_equal(ts.rows[ctx], ts2.rows[ctx])
        assert np.array_equal(ts.fallback, ts2.fallback)


class TestCTCPrefixInit:
    def test_single_frame_blank_run(self):
        # T=1, p(blank)=0.5: r_b = [ln 0.5]
        em = uniform_emission(1, 2)
        scorer = CTCPrefixScorer(blank_id=0, eos_id=1)
        state = scorer.init_state(em)
        assert state.r_b[0] == pytest.approx(math.log(0.5))
        assert state.r_nb[0] == NEG_INF
        assert state.prefix_score == 0.0

    def test_two_frames_blank_product(self):
        em = uniform_emission(2, 2)
        scorer = CTCPrefixScorer(blank_id=0, eos_id=1)
        state = scorer.init_state(em)
        assert np.allclose(state.r_b, [math.log(0.5), math.log(0.25)])

    def test_blank_run_matches_all_blank_alignment(self, rng):
        em = random_emission(rng, 3, 3)
        scorer = CTCPrefixScorer(blank_id=0, eos_id=2)
        state = scorer.init_state(em)
        blanks = em.data[:, 0]
        for t in range(3):
            assert state.r_b[t] == pytest.approx(float(blanks[: t + 1].sum()), abs=1e-12)


class TestCTCPrefixScoring:
    def make(self, frames, vocab_size, blank=0, eos=None):
        eos = vocab_size - 1 if eos is None else eos
        return CTCPrefixScorer(blank_id=blank, eos_id=eos)

    def test_single_frame_single_label(self):
        # T=1, p(a)=p(blank)=0.5: prefix prob of "a..." is ln 0.5
        em = uniform_emission(1, 2)  # ids: 0=blank, 1=a (a doubles as eos elsewhere)
        scorer = CTCPrefixScorer(blank_id=0, eos_id=99)
        state = scorer.init_state(em)
        scores, _ = scorer.score_partial((9,), np.array([1]), state, em)
        assert scores[0] == pytest.approx(math.log(0.5), abs=1e-12)

    def test_two_frame_uniform_prefix_prob(self):
        # alignments a., .a, aa out of 4 equally likely: 3/4
        em = uniform_emission(2, 2)
        scorer = CTCPrefixScorer(blank_id=0, eos_id=99)
        state = scorer.init_state(em)
        scores, _ = scorer.score_partial((9,), np.array([1]), state, em)
        assert scores[0] == pytest.approx(math.log(0.75), abs=1e-12)

    def test_eos_scores_full_sequence_probability(self):
        em = uniform_emission(2, 3)  # 0=blank, 1=a, 2=eos
        scorer = CTCPrefixScorer(blank_id=0, eos_id=2)
        state = scorer.init_state(em)
        scores, scored = scorer.score_partial((9,), np.array([1]), state, em)
        state_a = scorer.select_state(scored, 1)
        eos_scores, _ = scorer.score_partial((9, 1), np.array([2]), state_a, em)
        total = float(scores[0] + eos_scores[0])
        assert total == pytest.approx(ctc_forward(em, [1], 0), abs=1e-12)

    def test_blank_candidate_is_usage_error(self):
        em = uniform_emission(2, 2)
        scorer = CTCPrefixScorer(blank_id=0, eos_id=99)
        state = scorer.init_state(em)
        with pytest.raises(ValueError):
            scorer.score_partial((9,), np.array([0, 1]), state, em)

    @pytest.mark.parametrize("seed", range(8))
    def test_prefix_prob_matches_path_enumeration(self, seed):
        rng = np.random.default_rng(1000 + seed)
        frames = int(rng.integers(1, 6))
        em = random_emission(rng, frames, 3)  # 0=blank, labels 1..2
        scorer = CTCPrefixScorer(blank_id=0, eos_id=99)
        state = scorer.init_state(em)
        scores, scored = scorer.score_partial((9,), np.array([1, 2]), state, em)
        for idx, cand in enumerate((1, 2)):
            expected = brute_prefix_prob(em, (cand,), 0)
            assert math.exp(scores[idx]) == pytest.approx(expected, abs=1e-9)
        # one step deeper
        state1 = scorer.select_state(scored, 1)
        scores2, _ = scorer.score_partial((9, 1), np.array([1, 2]), state1, em)
        for idx, cand in enumerate((1, 2)):
            expected = brute_prefix_prob(em, (1, cand), 0)
            got = math.exp(state1.prefix_score + scores2[idx])
            assert got == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_monotone_in_extension(self, seed):
        rng = np.random.default_rng(2000 + seed)
        em = random_emission(rng, 4, 3)
        scorer = CTCPrefixScorer(blank_id=0, eos_id=99)
        state = scorer.init_state(em)
        prefix = (9,)
        for _ in range(3):
            scores, scored = scorer.score_partial(prefix, np.array([1, 2]), state, em)
            nxt = int(rng.integers(1, 3))
            new_state = scorer.select_state(scored, nxt)
            assert new_state.prefix_score <= state.prefix_score + 1e-12
            state = new_state
            prefix = prefix + (nxt,)

    def test_deterministic_rescoring(self, rng):
        em = random_emission(rng, 5, 3)
        scorer = CTCPrefixScorer(blank_id=0, eos_id=2)
        state = scorer.init_state(em)
        a, _ = scorer.score_partial((9,), np.array([1]), state, em)
        b, _ = scorer.score_partial((9,), np.array([1]), state, em)
        assert np.array_equal(a, b)

    def test_state_cache_equals_recompute(self, rng):
        """Scoring token-by-token with carried states equals recomputing the
        whole prefix from scratch."""
        em = random_emission(rng, 5, 4)  # blank=0, labels 1..2, eos=3
        scorer = CTCPrefixScorer(blank_id=0, eos_id=3)
        prefix_labels = (1, 2, 1)
        state = scorer.init_state(em)
        prefix = (9,)
        carried_total = 0.0
        for tok in prefix_labels:
            scores, scored = scorer.score_partial(prefix, np.array([tok]), state, em)
            carried_total += float(scores[0])
            state = scorer.select_state(scored, tok)
            prefix = prefix + (tok,)
        assert carried_total == pytest.approx(state.prefix_score, abs=1e-9)
        assert math.exp(state.prefix_score) == pytest.approx(
            brute_prefix_prob(em, prefix_labels, 0), abs=1e-9
        )

    def test_batch_matches_sequential_bitwise(self, rng):
        em = random_emission(rng, 6, 5)
        scorer = CTCPrefixScorer(blank_id=0, eos_id=4)
        s0 = scorer.init_state(em)
        # two different prefixes with their own states
        sc_a, scored_a = scorer.score_partial((9,), np.array([1, 2, 3]), s0, em)
        st_a = scorer.select_state(scored_a, 2)
        sc_b, scored_b = scorer.score_partial((9,), np.array([1, 2, 3]), s0, em)
        st_b = scorer.select_state(scored_b, 3)

        cands = np.array([[1, 2, 4], [3, 2, 4]])
        seq_scores = []
        for prefix, st, row in (((9, 2), st_a, cands[0]), ((9, 3), st_b, cands[1])):
            s, _ = scorer.score_partial(prefix, row, st, em)
            seq_scores.append(s)
        batch_scores, _ = scorer.batch_score_partial(
            [(9, 2), (9, 3)], cands, [st_a, st_b], em
        )
        assert np.array_equal(np.stack(seq_scores), batch_scores)


class TestWrapFullAsPartial:
    def test_gather_matches_full_row(self, rng):
        ts = TableScorer(0, 4, {(): np.log(rng.dirichlet(np.ones(4)))})
        wrapped = WrappedPartialScorer(ts)
        state = wrapped.init_state(None)
        full_vec, _ = ts.score((9,), state, None)
        got, _ = wrapped.score_partial((9,), np.array([2]), state, None)
        assert got[0] == full_vec[2]

    def test_request_order_preserved(self, rng):
        ts = TableScorer(0, 4, {(): np.log(rng.dirichlet(np.ones(4)))})
        wrapped = WrappedPartialScorer(ts)
        state = wrapped.init_state(None)
        full_vec, _ = ts.score((9,), state, None)
        got, _ = wrapped.score_partial((9,), np.array([3, 1, 0]), state, None)
        assert np.array_equal(got, full_vec[[3, 1, 0]])

    def test_all_candidates_equals_row(self, rng):
        ts = TableScorer(0, 5, {(): np.log(rng.dirichlet(np.ones(5)))})
        wrapped = WrappedPartialScorer(ts)
        state = wrapped.init_state(None)
        full_vec, _ = ts.score((9,), state, None)
        got, _ = wrapped.score_partial((9,), np.arange(5), state, None)
        assert np.array_equal(got, full_vec)


from hypothesis import given, settings
from hypothesis import strategies as st


class TestCtcPrefixProperties:
    @given(
        st.lists(
            st.lists(st.floats(min_value=-3, max_value=3), min_size=3, max_size=3),
            min_size=1, max_size=4,
        ),
        st.lists(st.integers(min_value=1, max_value=2), min_size=1, max_size=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_extension_never_gains_mass(self, logits, extensions):
        """prefix_score(g + c) <= prefix_score(g): extending a prefix can only
        shrink the set of matching sequences."""
        from seqdecode import EmissionMatrix
        em = EmissionMatrix.from_logits(np.array(logits))
        scorer = CTCPrefixScorer(blank_id=0, eos_id=99)
        state = scorer.init_state(em)
        prefix = (9,)
        for tok in extensions:
            _, scored = scorer.score_partial(prefix, np.array([tok]), state, em)
            new_state = scorer.select_state(scored, tok)
            assert new_state.prefix_score <= state.prefix_score + 1e-12
            state = new_state
            prefix = prefix + (tok,)


class TestStateContract:
    def test_ctc_states_equality_comparable(self, rng):
        em = random_emission(rng, 4, 3)
        scorer = CTCPrefixScorer(blank_id=0, eos_id=2)
        a = scorer.init_state(em)
        b = scorer.init_state(em)
        assert a == b
        _, scored = scorer.score_partial((9,), np.array([1]), a, em)
        advanced = scorer.select_state(scored, 1)
        assert advanced != a
        # same advance from an equal state reproduces an equal state
        _, scored_b = scorer.score_partial((9,), np.array([1]), b, em)
        assert scorer.select_state(scored_b, 1) == advanced


def assert_state_equals(state, ref):
    assert np.array_equal(state.r_nb, ref[0])
    assert np.array_equal(state.r_b, ref[1])
    assert state.prefix_score == ref[2]
    assert state.prefix_len == ref[3]


# each edge the lazy kernel could break, on top of random sizes
KERNEL_EDGES = {
    "random": {},
    "neg_inf_columns": {"dead_labels": 2},
    "t1": {"frames": 1},
    "all_labels": {"all_labels": True},  # B x P >= V, eos always a candidate
    "long_prefix": {"frames": 5, "steps": 8},
}


def drive_kernel(edge, seed, via):
    """Expand random prefixes step by step, checking every scoring call and
    every successor state against the frame-loop reference. Successors are
    random cells (eos included); some states are read as soon as they are
    selected, the rest are filled in by the next scoring call."""
    spec = KERNEL_EDGES[edge]
    rng = np.random.default_rng(7100 + 31 * seed + len(edge))
    V = int(rng.integers(3, 8))
    T = spec.get("frames", int(rng.integers(2, 10)))
    logits = 1.5 * rng.normal(size=(T, V))
    logits[:, rng.choice(np.arange(1, V), size=spec.get("dead_labels", 0), replace=False)] = -np.inf
    em = EmissionMatrix.from_logits(logits)
    x, eos = em.data, V - 1
    scorer = CTCPrefixScorer(blank_id=0, eos_id=eos)
    P = V - 1 if spec.get("all_labels") else int(rng.integers(1, V))
    beam = V + 1 if spec.get("all_labels") else int(rng.integers(1, 5))
    init = scorer.init_state(em)
    hyps = [((V,), init, (init.r_nb, init.r_b, 0.0, 0))]
    seen = {"dead_prefix": False, "eos": False, "beyond_half": False, "no_frames": False}
    for _ in range(spec.get("steps", T + 2)):
        cands = np.stack([rng.choice(np.arange(1, V), size=P, replace=False) for _ in hyps])
        prefixes = [h[0] for h in hyps]
        ref_scores, r, psi = frame_loop_reference(
            prefixes, cands, [h[2] for h in hyps], x, 0, eos)
        if via == "batch":
            scores, scored = scorer.batch_score_partial(
                prefixes, cands, [h[1] for h in hyps], em)
        elif via == "pruned":
            scores, scored = check_pruned_entry(
                scorer, prefixes, cands, [h[1] for h in hyps], em, ref_scores)
        else:
            rows = [scorer.score_partial(p, c, h[1], em)
                    for p, c, h in zip(prefixes, cands, hyps)]
            scores, scored = np.stack([s for s, _ in rows]), [st for _, st in rows]
        assert np.array_equal(scores, ref_scores)
        for _, state, ref in hyps:  # the states this call filled in
            assert_state_equals(state, ref)
        seen["dead_prefix"] |= any(h[2][2] == NEG_INF for h in hyps)
        seen["beyond_half"] |= any(h[2][3] > T / 2 for h in hyps)
        seen["no_frames"] |= max(1, min(h[2][3] for h in hyps)) >= T  # no frame terms
        successors = []
        for cell in rng.permutation(cands.size)[:beam]:
            i, j = divmod(int(cell), P)
            tok = int(cands[i, j])
            state = scorer.select_state(scored[i], tok)
            ref = (r[:, 0, i, j], r[:, 1, i, j], float(psi[i, j]), hyps[i][2][3] + 1)
            assert state.prefix_score == ref[2]
            if tok == eos or rng.random() < 0.3:
                assert_state_equals(state, ref)
            if tok == eos:
                seen["eos"] = True
            else:
                successors.append((prefixes[i] + (tok,), state, ref))
        if not successors:
            break
        hyps = successors
    for _, state, ref in hyps:
        assert_state_equals(state, ref)
    return seen


def check_pruned_entry(scorer, prefixes, cands, states, em, ref_scores):
    """The pruned entry against the frame-loop scores: keeping every cell it
    is exact and its bounds hold; keeping a random subset per call, the
    cells kept by every call and the exact-without-fold cells are exact and
    the rest hold their last upper bound (``check_keep_calls``). Returns the
    keep-everything call, for the caller's state checks."""
    bounds = []

    def keep_all(lo, hi):
        bounds.append((lo, hi, np.ones(lo.shape, dtype=bool)))
        return bounds[-1][2]

    scores, scored = scorer.batch_score_partial_pruned(prefixes, cands, states, em, keep_all)
    assert np.array_equal(scores, ref_scores)
    check_keep_calls(bounds, scores, ref_scores)

    mask_rng = np.random.default_rng(int(cands.sum()))
    masks = []

    def keep_some(lo, hi):
        masks.append((lo, hi, mask_rng.random(lo.shape) < 0.5))
        return masks[-1][2]

    part, _ = scorer.batch_score_partial_pruned(prefixes, cands, states, em, keep_some)
    # keep is consulted only when some cell needs the fold over frames
    assert len(masks) == len(bounds)
    check_keep_calls(masks, part, ref_scores)
    return scores, scored


class TestPrefixKernelMatchesFrameLoop:
    @pytest.mark.parametrize("via", ["batch", "single"])
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("edge", sorted(KERNEL_EDGES))
    def test_scores_and_states_bit_equal(self, edge, seed, via):
        drive_kernel(edge, seed, via)

    def test_edges_are_reached(self):
        seen = [drive_kernel(edge, seed, "batch") for edge in KERNEL_EDGES for seed in range(6)]
        for key in ("dead_prefix", "eos", "beyond_half"):
            assert any(s[key] for s in seen), key


class TestPrunedKernel:
    """``batch_score_partial_pruned``: bounds that hold on every cell, folds
    only the cells the caller keeps."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("edge", sorted(KERNEL_EDGES))
    def test_bounds_hold_and_skipped_cells_hold_upper_bound(self, edge, seed, ctc_tier):
        drive_kernel(edge, seed, "pruned")

    def test_edges_are_reached(self, ctc_tier):
        seen = [drive_kernel(edge, seed, "pruned") for edge in KERNEL_EDGES for seed in range(6)]
        for key in ("dead_prefix", "eos", "beyond_half", "no_frames"):
            assert any(s[key] for s in seen), key

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 600, 2000])
    @pytest.mark.parametrize("value", [0.0, -1e-3, -1.0, -7.25, -1e3, -3e4, 2.5])
    def test_equal_terms_are_the_tight_case(self, n, value):
        # the real log-sum is max + log n, exactly the upper bound without
        # its margin; the float fold's rounding must stay inside the margin
        terms = np.full((n, 3), value)
        terms[:, 1] = np.nextafter(value, -np.inf)
        terms[:, 2] = value - 1e-13
        lo, hi = scorers_mod._fold_bounds(terms)
        fold = np.logaddexp.reduce(terms, axis=0)
        assert (lo <= fold).all() and (fold <= hi).all()
        assert (hi - lo <= math.log(n) + 1e-8 + n * (abs(value) + 1.0) * 1e-14).all()

    @pytest.mark.parametrize("seed", range(4))
    def test_random_terms(self, seed):
        rng = np.random.default_rng(7300 + seed)
        for _ in range(40):
            n, cells = int(rng.integers(1, 300)), int(rng.integers(1, 40))
            scale = float(rng.choice([1e-3, 1.0, 10.0, 1e3]))
            terms = scale * rng.normal(size=(n, cells)) + float(rng.normal()) * 10 * scale
            if rng.random() < 0.5:  # clusters of near-equal terms
                terms = np.round(terms, int(rng.integers(0, 3)))
            terms[rng.random(terms.shape) < 0.2] = -np.inf
            terms[:, 0] = -np.inf  # a cell with no mass folds to exactly -inf
            lo, hi = scorers_mod._fold_bounds(terms)
            fold = np.logaddexp.reduce(terms, axis=0)
            assert (lo <= fold).all() and (fold <= hi).all()
            assert lo[0] == hi[0] == -np.inf
            finite = lo > -np.inf
            assert (lo[finite] < hi[finite]).all()


class TestPeakBounds:
    """Tier 1 of the pruned entry: bounds on every cell from the column
    peaks and the parent's log-sum over frames, without its frame terms."""

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 600, 2000])
    @pytest.mark.parametrize("value", [0.0, -1e-3, -1.0, -7.25, -1e3, -3e4, 2.5])
    def test_x_constant_over_frames_is_the_tight_case(self, n, value):
        # with x and phi constant over frames, the real log-sum is exactly
        # the upper bound without its margin; the float fold's rounding must
        # stay inside the margin, and the margin is about all the slack left
        x = np.tile(np.log([0.1, 0.2, 0.3, 0.4]), (n + 1, 1))
        cands = np.array([[1, 2, 3]])
        repeat = np.array([[False, False, True]])  # a repeat: looser, through r_b
        psi0 = np.full(cands.shape, NEG_INF)
        r_sum = np.full((n + 1, 1), value)
        r_b = r_sum - 0.5
        peaks = (x.max(axis=0), x.argmax(axis=0))
        lo, hi = scorers_mod._peak_bounds(peaks, x, cands, repeat, psi0, r_sum, r_b, 1)
        terms = scorers_mod._frame_terms(
            x, r_sum, r_b, 1, cands.ravel(), np.zeros(3, dtype=int), repeat.ravel(),
            psi0.ravel())
        fold = np.logaddexp.reduce(terms, axis=0).reshape(cands.shape)
        assert (lo <= fold).all() and (fold <= hi).all()
        # hi carries twice the margin; the float folds stray by far less than one
        assert (hi[0, :2] - fold[0, :2] <= 3 * scorers_mod._margin(n, hi[0, :2])).all()

    def test_repeat_lower_bound_comes_from_r_b(self, ctc_tier):
        # frames favouring a keep the prefix (a) in r_nb, so r_sum is far
        # above r_b: a repeat's lower bound built from r_sum would exceed
        # its score
        em = EmissionMatrix.from_logits(np.array([[0.0, 6.0, 0.0, 0.0]] * 6))
        scorer = CTCPrefixScorer(blank_id=0, eos_id=3)
        init = scorer.init_state(em)
        _, scored = scorer.batch_score_partial([(9,)], np.array([[1, 2]]), [init], em)
        state = scorer.select_state(scored[0], 1)
        cands = np.array([[1, 2, 3]])
        ref = frame_loop_reference([(9, 1)], cands,
                                   [(state.r_nb, state.r_b, state.prefix_score, 1)],
                                   em.data, 0, 3)[0]
        calls = []

        def keep_all(lo, hi):
            calls.append((lo, hi, np.ones(lo.shape, dtype=bool)))
            return calls[-1][2]

        scores, _ = scorer.batch_score_partial_pruned([(9, 1)], cands, [state], em, keep_all)
        assert np.array_equal(scores, ref)
        check_keep_calls(calls, scores, ref)
        assert len(calls) == (2 if ctc_tier == "tiered" else 1)
        r_sum = np.logaddexp(state.r_nb, state.r_b)
        peak = max(1, int(em.data[:, 1].argmax()))
        assert r_sum[peak - 1] + em.data[peak, 1] - state.prefix_score > ref[0, 0] + 1.0

