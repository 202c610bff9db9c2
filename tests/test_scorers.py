import math
import tracemalloc

import numpy as np
import pytest

from seqdecode import (
    CTCPrefixScorer,
    EmissionMatrix,
    TableScorer,
    batch_beam_search,
    ctc_forward,
)

from seqdecode import scorers as scorers_mod

from conftest import (
    WrappedPartialScorer,
    brute_prefix_prob,
    check_keep_calls,
    counting_fold,
    ctc_state,
    ctc_states_equal,
    frame_loop_reference,
    psi_near,
    random_emission,
    random_table_scorer,
)
from test_beam_search import nbest_rows, selection_instance

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

    @pytest.mark.parametrize("order, key", [(0, (1,)), (1, (1, 2)), (2, (0, 1, 2))])
    def test_key_longer_than_the_order_is_a_config_error(self, order, key):
        # such a row could never be reached: every context would silently
        # take the fallback
        from seqdecode import ConfigError
        row = np.log(np.full(3, 1 / 3))
        with pytest.raises(ConfigError, match="longer than context_order"):
            TableScorer(order, 3, {(): row, key: row})

    def test_rows_and_fallback_are_the_callers_arrays_made_read_only(self):
        row = np.log([0.1, 0.2, 0.3, 0.4])
        fallback = np.log(np.full(4, 0.25))
        ts = TableScorer(1, 4, {(1,): row}, fallback=fallback)
        assert ts.rows[(1,)] is row and ts.fallback is fallback
        assert not row.flags.writeable and not fallback.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 0.0
        with pytest.raises(ValueError):
            ts.fallback[0] = 0.0

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_batch_score_equals_stacked_score_rows(self, order, rng):
        V = 4
        ts = random_table_scorer(rng, order, V, n_contexts=3 if order else None)
        contexts = [()] + [(a,) for a in range(V)] + [(a, b) for a in range(V) for b in range(V)]
        states = [ctx[len(ctx) - order:] if order else () for ctx in contexts]
        assert any(s not in ts.rows for s in states) == (order > 0)  # fallback contexts
        prefixes = [(9,) + s for s in states]
        mat, scored = ts.batch_score(prefixes, states, None)
        want = np.stack([ts.score(p, s, None)[0] for p, s in zip(prefixes, states)])
        assert np.array_equal(mat, want) and scored == states

    def test_batch_score_gathers_into_a_new_writeable_matrix(self):
        row = np.log([0.1, 0.2, 0.3, 0.4])
        ts = TableScorer(1, 4, {(1,): row})
        mat, _ = ts.batch_score([(9, 1), (9, 2), (9, 1)], [(1,), (2,), (1,)], None)
        assert mat.shape == (3, 4) and mat.dtype == np.float64 and mat.flags.writeable
        assert not np.shares_memory(mat, row) and not np.shares_memory(mat, ts.fallback)
        mat[:] = 0.0
        assert np.array_equal(ts.rows[(1,)], np.log([0.1, 0.2, 0.3, 0.4]))
        assert np.array_equal(ts.fallback, np.full(4, -math.log(4)))

    @pytest.mark.parametrize("bad, message", [
        (np.log([0.5, 0.3]), "table row for context \\(\\) not normalised"),
        (np.log([0.5, 0.25, 0.25]), "table row for context \\(\\) has shape \\(3,\\)"),
    ])
    def test_bad_rows_keep_their_messages(self, bad, message):
        from seqdecode import ConfigError
        with pytest.raises(ConfigError, match=message):
            TableScorer(0, 2, {(): bad})
        with pytest.raises(ConfigError, match="table fallback row"):
            TableScorer(0, 2, {(): np.log([0.5, 0.5])}, fallback=bad)

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_select_states_equals_the_select_state_loop(self, order, rng):
        # the reference: the last ``order`` ids of the scored state plus the token
        V = 5
        ts = random_table_scorer(rng, order, V, n_contexts=4)
        scored = [(), (3,), (1, 4), (2, 0, 1)]
        scored = [s[len(s) - order:] if order else () for s in scored]
        rows = rng.integers(0, len(scored), size=12)
        tokens = rng.integers(0, V, size=12)
        got = ts.select_states(scored, rows, tokens)
        emitted = [[*scored[r], t] for r, t in zip(rows.tolist(), tokens.tolist())]
        assert got == [tuple(ids[max(0, len(ids) - order):]) for ids in emitted]
        assert all(isinstance(s, tuple) and len(s) <= order for s in got)


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
        assert ctc_states_equal(a, b)
        _, scored = scorer.score_partial((9,), np.array([1]), a, em)
        advanced = scorer.select_state(scored, 1)
        assert not ctc_states_equal(advanced, a)
        # same advance from an equal state reproduces an equal state
        _, scored_b = scorer.score_partial((9,), np.array([1]), b, em)
        assert ctc_states_equal(scorer.select_state(scored_b, 1), advanced)


class TestTerminalEosState:
    """An eos cell's successor ends its hypothesis: it keeps its prefix
    score (the parent's full-sequence probability) and length, has no
    forward variables, costs no recursion and cannot be scored."""

    @pytest.mark.parametrize("select", ["select_state", "select_states"])
    def test_eos_state_has_no_variables_and_runs_no_recursion(self, select, monkeypatch):
        rng = np.random.default_rng(7540)
        em = random_emission(rng, 9, 6)
        scorer = CTCPrefixScorer(blank_id=0, eos_id=5)
        hyps = [extend(scorer, em, [2]), extend(scorer, em, [1, 3])]
        cands = np.array([[5, 1, 3], [4, 2, 5]])
        _, scored = scorer.batch_score_partial([h[0] for h in hyps], cands, [h[1] for h in hyps], em)
        calls = []
        recursion = scorers_mod._recursion
        monkeypatch.setattr(scorers_mod, "_recursion", lambda *a: calls.append(a) or recursion(*a))
        if select == "select_state":
            states = [scorer.select_state(scored[row], 5) for row in range(2)]
        else:
            batch = scorer.select_states(scored, np.array([0, 1]), np.array([5, 5]))
            states = [batch[k] for k in range(len(batch))]
        assert calls == []
        for row, (col, (prefix, parent), state) in enumerate(zip([0, 2], hyps, states)):
            assert_terminal(state, parent.prefix_len + 1)
            assert state.prefix_score == scored.psi[row, col] == parent.r_sum[-1]
            for given in ([state], [parent, state]):
                with pytest.raises(ValueError, match="eos state"):
                    scorer.batch_score_partial([prefix + (5,)] * len(given),
                                               np.array([[1]] * len(given)), given, em)


def loop_variables(ref):
    """(r_nb, r_b, r_sum) of the frame loop's (r_nb, r_b)."""
    return ref[0], ref[1], np.logaddexp(ref[0], ref[1])


def assert_near_loop(state, ref):
    """A state's forward variables against the frame loop's (r_nb, r_b):
    -inf exactly where the loop's are, every other entry within the scan's
    bound."""
    for got, want in zip((state.r_nb, state.r_b, state.r_sum), loop_variables(ref)):
        assert np.array_equal(got == NEG_INF, want == NEG_INF)
        finite = want > NEG_INF
        err = np.abs(got[finite] - want[finite])
        assert (err <= scorers_mod._SCAN_TOL * (np.abs(want[finite]) - scorers_mod._SCAN_FLOOR)).all()


def assert_equals_loop(state, ref):
    for got, want in zip((state.r_nb, state.r_b, state.r_sum), loop_variables(ref)):
        assert np.array_equal(got, want)


def assert_state_near(state, ref):
    assert_near_loop(state, ref)
    assert psi_near(state.prefix_score, ref[2], len(ref[0]))
    assert state.prefix_len == ref[3]


def assert_terminal(state, prefix_len):
    """An eos cell's state: no forward variables, its prefix length kept."""
    assert state.r_nb is None and state.r_b is None and state.r_sum is None
    assert state.prefix_len == prefix_len


def assert_columns(states, r):
    """Each state's r_nb, r_b, r_sum bit for bit column k of the (3, T, k)
    recursion ``r``."""
    for k, state in enumerate(states):
        for got, want in zip((state.r_nb, state.r_b, state.r_sum), r[:, :, k]):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def variables(recursion):
    """``_recursion``'s (buffer, r_nb) as the (3, T, k) array of r_nb, r_b
    and r_sum, one column per successor."""
    fw, r_nb = recursion
    T = len(r_nb)
    return np.stack((r_nb, fw[1, 1:T + 1], fw[0, 1:T + 1]))


def padded(phi):
    """The (T, n) columns ``phi`` as ``_block_psi`` reads its parents: a
    (1, L, n) array, -inf padded to whole blocks."""
    T, n = phi.shape
    columns = np.full((1, -(-T // scorers_mod._BLOCK) * scorers_mod._BLOCK, n), NEG_INF)
    columns[0, :T] = phi
    return columns


def forward_buffer(r_sum, r_b):
    """The (T, B) parents' r_sum and r_b as one ``_buffer``."""
    T, B = r_sum.shape
    fw = scorers_mod._buffer(B, T)
    fw[0, 1:T + 1], fw[1, 1:T + 1] = r_sum, r_b
    return fw


def peaked_logits(rng, frames, vocab_size, peak=8.0, noise=0.5):
    """Logits with a peak on a random token per frame, as a trained model's."""
    logits = noise * rng.normal(size=(frames, vocab_size))
    logits[np.arange(frames), rng.integers(0, vocab_size, size=frames)] += peak
    return logits


# each edge the kernel could break, on top of random sizes
KERNEL_EDGES = {
    "random": {},
    "neg_inf_columns": {"dead_labels": 2},
    "masked_columns": {"masked_labels": 2},  # -1e10 at about a third of their frames
    "t1": {"frames": 1},
    "all_labels": {"all_labels": True},  # B x P >= V, eos always a candidate
    "long_prefix": {"frames": 5, "steps": 8},
    "peaked_t1600": {"frames": 1600, "steps": 5, "peaked": True},
}


def drive_kernel(edge, seed, via):
    """Expand random prefixes step by step, checking every scoring call
    against the frame-loop reference on its parents' states (scores within
    the block product's bound), and every successor state against the
    frame-loop recursion (within the scan's bound). The call under test
    and a random cell scored alone are bit-equal to the batched call.
    Successors are random cells (eos included): a non-eos cell's state,
    filled in when selected, is bit for bit its column of one recursion
    over all the cells kept from its call; an eos cell's is terminal."""
    spec = KERNEL_EDGES[edge]
    rng = np.random.default_rng(7100 + 31 * seed + len(edge))
    V = int(rng.integers(3, 8))
    T = spec.get("frames", int(rng.integers(2, 10)))
    logits = peaked_logits(rng, T, V) if spec.get("peaked") else 1.5 * rng.normal(size=(T, V))
    logits[:, rng.choice(np.arange(1, V), size=spec.get("dead_labels", 0), replace=False)] = -np.inf
    if "masked_labels" in spec:
        masked = rng.choice(np.arange(1, V), size=spec["masked_labels"], replace=False)
        logits[:, masked] = np.where(rng.random((T, masked.size)) < 0.3, -1e10, logits[:, masked])
    em = EmissionMatrix.from_logits(logits)
    x, eos = em.data, V - 1
    scorer = CTCPrefixScorer(blank_id=0, eos_id=eos)
    P = V - 1 if spec.get("all_labels") else int(rng.integers(1, V))
    beam = V + 1 if spec.get("all_labels") else int(rng.integers(1, 5))
    init = scorer.init_state(em)
    hyps = [((V,), init, (init.r_nb, init.r_b, 0.0, 0))]
    seen = {"dead_prefix": False, "eos": False, "beyond_half": False, "no_frames": False,
            "repeat": False}
    for _ in range(spec.get("steps", T + 2)):
        cands = np.stack([rng.choice(np.arange(1, V), size=P, replace=False) for _ in hyps])
        prefixes, states = [h[0] for h in hyps], [h[1] for h in hyps]

        def reference():  # on the parents' states
            return frame_loop_reference(prefixes, cands, [ctc_state(s) for s in states], x, 0, eos)

        if via == "batch":
            scores, scored = scorer.batch_score_partial(prefixes, cands, states, em)
        elif via == "pruned":
            scores, scored = check_pruned_entry(scorer, prefixes, cands, states, em, reference)
        else:
            rows = [scorer.score_partial(p, c, s, em)
                    for p, c, s in zip(prefixes, cands, states)]
            scores, scored = np.stack([s for s, _ in rows]), [st for _, st in rows]
        ref_scores, r, psi = reference()
        assert psi_near(scores, ref_scores, T, psi)
        full = scorer.batch_score_partial(prefixes, cands, states, em)[0]
        assert np.array_equal(scores, full)
        i, j = divmod(int(rng.integers(cands.size)), P)
        alone = scorer.batch_score_partial([prefixes[i]], cands[i:i + 1, j:j + 1], [states[i]], em)
        assert alone[0][0, 0] == full[i, j]
        for _, state, ref in hyps:
            assert_state_near(state, ref)
        seen["dead_prefix"] |= any(h[2][2] == NEG_INF for h in hyps)
        seen["beyond_half"] |= any(h[2][3] > T / 2 for h in hyps)
        seen["no_frames"] |= max(1, min(h[2][3] for h in hyps)) >= T  # no frame terms
        successors, kept = [], {}
        for cell in rng.permutation(cands.size)[:beam]:
            i, j = divmod(int(cell), P)
            tok = int(cands[i, j])
            state = scorer.select_state(scored[i], tok)
            ref = (r[:, 0, i, j], r[:, 1, i, j], float(psi[i, j]), hyps[i][2][3] + 1)
            call, row = scored[i]
            assert state.prefix_score == call.psi[row, j]
            assert psi_near(state.prefix_score, ref[2], T)
            if tok == eos:
                assert_terminal(state, ref[3])
                seen["eos"] = True
            else:
                assert_state_near(state, ref)
                kept.setdefault(id(call), (call, []))[1].append((row, j, state))
                seen["repeat"] |= bool(call.repeat[row, j])
                successors.append((prefixes[i] + (tok,), state, ref))
        for call, cells in kept.values():
            rows, cols, selected = zip(*cells)
            assert_columns(selected, variables(
                scorers_mod._recursion(call, np.array(rows), np.array(cols))))
        if not successors:
            break
        hyps = successors
    for _, state, ref in hyps:
        assert_state_near(state, ref)
    return seen


def check_pruned_entry(scorer, prefixes, cands, states, em, reference):
    """The kernel given ``keep`` against the unpruned call and the frame-loop
    reference ``reference()``: keeping every cell it equals the unpruned
    call and its bounds hold; keeping a random subset, the cells it kept
    and the exact cells equal the unpruned call and the rest hold their
    upper bound (``check_keep_calls``). Returns the keep-everything call,
    for the caller's state checks."""
    bounds = []

    def keep_all(lo, hi):
        bounds.append((lo, hi, np.ones(lo.shape, dtype=bool)))
        return bounds[-1][2]

    scores, scored = scorer.batch_score_partial(prefixes, cands, states, em, keep_all)
    ref_scores, _, ref_psi = reference()
    ref = (ref_scores, ref_psi, em.frames)
    full = scorer.batch_score_partial(prefixes, cands, states, em)[0]
    assert np.array_equal(scores, full)
    check_keep_calls(bounds, scores, full, ref)

    mask_rng = np.random.default_rng(int(cands.sum()))
    masks = []

    def keep_some(lo, hi):
        masks.append((lo, hi, mask_rng.random(lo.shape) < 0.5))
        return masks[-1][2]

    part, _ = scorer.batch_score_partial(prefixes, cands, states, em, keep_some)
    # keep is consulted only on a call that bounds its cells
    assert len(masks) == len(bounds)
    check_keep_calls(masks, part, full, ref)
    return scores, scored


class TestPrefixKernelMatchesFrameLoop:
    @pytest.mark.parametrize("via", ["batch", "single"])
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("edge", sorted(KERNEL_EDGES))
    def test_scores_bit_equal_states_within_bound(self, edge, seed, via):
        drive_kernel(edge, seed, via)

    def test_edges_are_reached(self):
        seen = [drive_kernel(edge, seed, "batch") for edge in KERNEL_EDGES for seed in range(6)]
        for key in ("dead_prefix", "eos", "beyond_half", "repeat"):
            assert any(s[key] for s in seen), key


def expand_all(scorer, em, hyps, cands):
    """Score hyps, (prefix, state) pairs, on the (B, P) cands in one call and
    select every cell. Returns (prefix, state, (r_nb, r_b) of the
    frame-loop recursion) per cell, in C order."""
    prefixes, states = [h[0] for h in hyps], [h[1] for h in hyps]
    _, scored = scorer.batch_score_partial(prefixes, cands, states, em)
    r = frame_loop_reference(prefixes, cands, [ctc_state(s) for s in states],
                             em.data, scorer.blank_id, scorer.eos_id)[1]
    return [(prefixes[i] + (int(cands[i, j]),), scorer.select_state(scored[i], int(cands[i, j])),
             (r[:, 0, i, j], r[:, 1, i, j]))
            for i, j in np.ndindex(*cands.shape)]


def call_recursion(scorer, em, hyps, cands):
    """A function that runs one ``_recursion`` over every (B, P) cell of
    one scoring call of the parents ``hyps`` on ``cands``: its
    ``variables``, (3, T, B * P), columns in C order as ``expand_all``
    lists the cells."""
    _, scored = scorer.batch_score_partial([h[0] for h in hyps], cands, [h[1] for h in hyps], em)
    rows, cols = np.divmod(np.arange(cands.size), cands.shape[1])
    return lambda: variables(scorers_mod._recursion(scored, rows, cols))


def extend(scorer, em, labels):
    """(prefix, state) of ``labels``, one scoring call per label."""
    hyp = ((99,), scorer.init_state(em))
    for label in labels:
        prefix, state, _ = expand_all(scorer, em, [hyp], np.array([[label]]))[0]
        hyp = (prefix, state)
    return hyp


def scan_reference(hyps, cands, x, blank_id):
    """The recursion as two scans over frames, in the arithmetic the kernel
    uses for every column with no -inf emission from its first frame on and
    sums above ``_SCAN_FLOOR``: one call for all (B, P) cells of the parents
    ``hyps``, (prefix, state) pairs. Returns r_nb, r_b, r_sum (T, B * P) per
    cell in C order, as ``expand_all`` lists them."""
    T = x.shape[0]
    states = [h[1] for h in hyps]
    n = np.repeat([s.prefix_len for s in states], cands.shape[1])
    phi = np.stack([s.r_b if s.prefix_len > 0 and c == p[-1] else s.r_sum
                    for (p, s), row in zip(hyps, cands) for c in row], axis=1)
    xs = x[:, cands.ravel()]
    r_nb, r_b, r_sum = np.full((3,) + xs.shape, NEG_INF)
    r_nb[0, n == 0] = r_sum[0, n == 0] = xs[0, n == 0]
    t0 = max(1, int(n.min()))
    if t0 >= T:
        return r_nb, r_b, r_sum
    sums = np.empty((2, T - t0 + 1, xs.shape[1]))
    sums[:, 0] = 0.0
    sums[0, 1:] = xs[t0:]
    sums[1, 1:] = x[t0:, blank_id, None]
    sums[:, 1:][:, np.arange(t0, T)[:, None] < np.maximum(n, 1)] = 0.0
    np.cumsum(sums, axis=1, out=sums)
    c, d = sums
    with np.errstate(invalid="ignore"):  # columns with -inf come out nan
        acc = np.empty(c.shape)
        acc[0] = r_nb[t0 - 1]
        np.subtract(phi[t0 - 1:T - 1], c[:-1], out=acc[1:])
        np.logaddexp.accumulate(acc, axis=0, out=acc)
        np.add(acc[1:], c[1:], out=r_nb[t0:])
        q = np.subtract(r_nb[t0 - 1:], d)
        np.logaddexp.accumulate(q, axis=0, out=q)
        np.add(q[:-1], d[1:], out=r_b[t0:])
        np.add(q, d, out=r_sum[t0 - 1:])
    return r_nb, r_b, r_sum


def assert_equals_scan(cells, ref, keep=None):
    """The ``expand_all`` cells at indices ``keep`` (all by default)
    bit-equal to ``scan_reference``'s columns."""
    for k in range(len(cells)) if keep is None else keep:
        state = cells[k][1]
        for got, want in zip((state.r_nb, state.r_b, state.r_sum), ref):
            assert np.array_equal(got, want[:, k])


def clean_from_first_frame(x, hyps, cands, blank_id):
    """(B * P,) per cell in C order: no -inf label or blank emission from the
    successor's first frame, max(1, parent's label count), on."""
    first = np.repeat([max(1, h[1].prefix_len) for h in hyps], cands.shape[1])
    on = np.arange(x.shape[0])[:, None] >= first
    dead = np.isneginf(x[:, cands.ravel()]) | np.isneginf(x[:, [blank_id]])
    return ~(dead & on).any(axis=0)


class TestScanRecursion:
    """The successors' forward variables come from two scans over frames,
    restarted where an emission is -inf: within the bound of the frame loop
    and -inf exactly where it is, bit-equal to the scan's reference in the
    columns with no -inf emission, and a column's result the same whichever
    columns share its call."""

    def test_long_peaked_emission_takes_the_scan(self):
        # the cumulative sums reach about -1e4 over 1600 frames
        rng = np.random.default_rng(7500)
        em = EmissionMatrix.from_logits(peaked_logits(rng, 1600, 6))
        scorer = CTCPrefixScorer(blank_id=0, eos_id=5)
        hyps = [extend(scorer, em, [1, 2])]
        for _ in range(3):
            cands = np.array([[1, 2, 3, 4]] * len(hyps))
            cells = expand_all(scorer, em, hyps, cands)
            assert_equals_scan(cells, scan_reference(hyps, cands, em.data, 0))
            for _, state, ref in cells:
                assert_near_loop(state, ref)
            hyps = [(prefix, state) for prefix, state, _ in cells[::5]]
        assert min(em.data[1:, 1].sum(), em.data[1:, 0].sum()) < -5000

    def test_neg_inf_and_clean_columns_in_one_call(self):
        rng = np.random.default_rng(7501)
        logits = 1.5 * rng.normal(size=(12, 6))
        logits[5, 1] = logits[8, 3] = -np.inf
        em = EmissionMatrix.from_logits(logits)
        scorer = CTCPrefixScorer(blank_id=0, eos_id=5)
        hyps = [extend(scorer, em, [2])]
        cands = np.array([[1, 2, 3, 4]])
        cells = expand_all(scorer, em, hyps, cands)
        assert_columns([state for _, state, _ in cells], call_recursion(scorer, em, hyps, cands)())
        # -inf columns: within the bound; the others: the scan, bit for bit
        assert_equals_scan(cells, scan_reference(hyps, cands, em.data, 0), [1, 3])
        for prefix, state, ref in cells:
            assert_near_loop(state, ref)
            assert not np.isnan(state.r_nb).any() and not np.isnan(state.r_b).any()

    @pytest.mark.parametrize("dead_blank", [False, True])
    def test_only_the_scan_with_a_neg_inf_in_range_segments(self, monkeypatch, dead_blank):
        # labels 1 and 3 are -inf at some frames; the blank only if
        # dead_blank: the blank scan (r_b, r_sum) segments only then
        rng = np.random.default_rng(7509)
        logits = 1.5 * rng.normal(size=(30, 6))
        logits[[4, 11, 17], 1] = logits[[7, 20], 3] = -np.inf
        if dead_blank:
            logits[[9, 22], 0] = -np.inf
        em = EmissionMatrix.from_logits(logits)
        scorer = CTCPrefixScorer(blank_id=0, eos_id=5)
        hyps = [extend(scorer, em, [2])]
        cands = np.array([[1, 2, 3, 4]])
        cells = expand_all(scorer, em, hyps, cands)
        run = call_recursion(scorer, em, hyps, cands)
        calls = []
        scan, offsets = scorers_mod._scan, scorers_mod._offsets
        monkeypatch.setattr(scorers_mod, "_scan",
                            lambda *a: calls.append("scan") or scan(*a))
        monkeypatch.setattr(scorers_mod, "_offsets",
                            lambda *a: calls.append("offsets") or offsets(*a))
        assert_columns([state for _, state, _ in cells], run())
        assert calls == ["scan"] + ["offsets"] * (1 + dead_blank)
        for _, state, ref in cells:
            assert_near_loop(state, ref)

    @pytest.mark.parametrize("mixed", [False, True])
    def test_clean_columns_equal_the_scan_reference(self, mixed):
        # parents of 0, 1 and 3 labels; labels 5 and 6 are -inf at frames
        # 0-2, before the 3-label parent's successors start, and 6 later on
        rng = np.random.default_rng(7506)
        logits = 1.5 * rng.normal(size=(40, 9))
        logits[:3, 5:7] = logits[[9, 20, 21], 6] = -np.inf
        em = EmissionMatrix.from_logits(logits)
        scorer = CTCPrefixScorer(blank_id=0, eos_id=8)
        hyps = [extend(scorer, em, []), extend(scorer, em, [3]), extend(scorer, em, [1, 4, 2])]
        cands = np.array([[1, 2, 3, 4] + [6] * mixed, [2, 3, 4, 1] + [5] * mixed,
                          [2, 5, 3, 4] + [6] * mixed])
        cells = expand_all(scorer, em, hyps, cands)
        assert_columns([state for _, state, _ in cells], call_recursion(scorer, em, hyps, cands)())
        clean = clean_from_first_frame(em.data, hyps, cands, 0).reshape(cands.shape)
        assert clean[2, 1] and clean.all() != mixed
        assert_equals_scan(cells, scan_reference(hyps, cands, em.data, 0),
                           np.flatnonzero(clean))
        for _, state, ref in cells:
            assert_near_loop(state, ref)

    def test_column_below_the_floor_scans_in_blocks(self, monkeypatch):
        rng = np.random.default_rng(7502)
        logits = peaked_logits(rng, 800, 5)
        logits[:, 1] = -100.0  # sums to about -8e4 over the frames
        em = EmissionMatrix.from_logits(logits)
        scorer = CTCPrefixScorer(blank_id=0, eos_id=4)
        assert em.data[1:, 1].sum() < scorers_mod._SCAN_FLOOR < em.data[1:, 2].sum()
        hyps = [extend(scorer, em, [3])]
        cands = np.array([[1, 2]])
        cells = expand_all(scorer, em, hyps, cands)
        run = call_recursion(scorer, em, hyps, cands)
        scans = []  # the column count of each scan: the call, then the blocks
        scan = scorers_mod._scan
        monkeypatch.setattr(scorers_mod, "_scan",
                            lambda *a: scans.append(len(a[2])) or scan(*a))
        assert_columns([state for _, state, _ in cells], run())
        assert scans[0] == 2 and len(scans) > 2 and set(scans[1:]) == {1}
        (_, below, ref), (_, above, ref_above) = cells
        assert_near_loop(below, ref)
        assert_near_loop(above, ref_above)
        assert_equals_scan(cells, scan_reference(hyps, cands, em.data, 0), [1])

    @staticmethod
    def assert_alone_equals_mixed(scorer, em, hyps, cands):
        """Each state of one call for hyps x cands, filled in alone by
        ``select_state``, bit for bit its column of one recursion over all
        of them, and near the frame loop; an eos cell's state terminal."""
        alone = expand_all(scorer, em, hyps, cands)
        live = [k for k, (prefix, _, _) in enumerate(alone) if prefix[-1] != scorer.eos_id]
        r = call_recursion(scorer, em, hyps, cands)()
        assert_columns([alone[k][1] for k in live], r[:, :, live])
        for k, (prefix, state, ref) in enumerate(alone):
            if k in live:
                assert_near_loop(state, ref)
            else:
                assert_terminal(state, len(prefix) - 1)

    @pytest.mark.parametrize("dead", [False, True])
    def test_state_alone_equals_state_in_a_mixed_call(self, dead):
        # parents of 0 and 3 labels: the call's first frame is 1, the longer
        # parent's successors start at frame 3 when read alone
        rng = np.random.default_rng(7503)
        logits = 1.5 * rng.normal(size=(10, 6))
        if dead:
            logits[6, 2] = -np.inf
        em = EmissionMatrix.from_logits(logits)
        scorer = CTCPrefixScorer(blank_id=0, eos_id=5)
        hyps = [extend(scorer, em, []), extend(scorer, em, [1, 3, 1])]
        self.assert_alone_equals_mixed(scorer, em, hyps, np.array([[1, 2, 4], [2, 3, 4]]))

    @pytest.mark.parametrize("seed", range(8))
    def test_state_alone_equals_state_in_a_mixed_call_with_restarts(self, seed):
        # 8% of the label emissions -inf, so columns restart their scans;
        # parents of 0 and of 1-4 labels, 20-120 frames. A restart's offset
        # must come from the column and the emission alone, not from the
        # call's first frame, which the other parent sets
        rng = np.random.default_rng(7520 + seed)
        scorer = CTCPrefixScorer(blank_id=0, eos_id=5)
        for _ in range(5):
            frames = int(rng.integers(20, 121))
            logits = 1.5 * rng.normal(size=(frames, 6))
            logits[:, 1:5][rng.random((frames, 4)) < 0.08] = -np.inf
            em = EmissionMatrix.from_logits(logits)
            labels = rng.integers(1, 5, size=int(rng.integers(1, 5))).tolist()
            hyps = [extend(scorer, em, []), extend(scorer, em, labels)]
            self.assert_alone_equals_mixed(scorer, em, hyps, np.array([[1, 2, 3], [2, 3, 4]]))

    def test_mixed_call_with_parents_past_the_last_frame(self):
        # parents of 0, T and T + 1 labels on an emission with a -inf label
        # entry: the call starts at frame 1, and the successors of the two
        # long parents would start at frames T and T + 1
        rng = np.random.default_rng(7530)
        logits = 1.5 * rng.normal(size=(6, 6))
        logits[2, 3] = -np.inf
        em = EmissionMatrix.from_logits(logits)
        scorer = CTCPrefixScorer(blank_id=0, eos_id=5)
        hyps = [extend(scorer, em, []), extend(scorer, em, [1, 2, 1, 4, 2, 1]),
                extend(scorer, em, [1, 2, 1, 4, 2, 1, 4])]
        self.assert_alone_equals_mixed(scorer, em, hyps,
                                       np.array([[1, 3, 4], [2, 3, 4], [2, 3, 4]]))

    def test_no_frames_left(self):
        # a parent of T labels: its successors need T + 1 frames
        em = EmissionMatrix.from_logits(np.random.default_rng(7504).normal(size=(3, 5)))
        scorer = CTCPrefixScorer(blank_id=0, eos_id=4)
        prefix, parent = extend(scorer, em, [1, 2, 1])
        assert parent.prefix_len == em.frames and parent.r_nb[-1] > NEG_INF
        for _, state, ref in expand_all(scorer, em, [(prefix, parent)], np.array([[1, 2, 3]])):
            assert (state.r_nb == NEG_INF).all() and (state.r_b == NEG_INF).all()
            assert_equals_loop(state, ref)

    def test_empty_parent(self):
        em = EmissionMatrix.from_logits(np.random.default_rng(7505).normal(size=(7, 5)))
        scorer = CTCPrefixScorer(blank_id=0, eos_id=4)
        for prefix, state, ref in expand_all(scorer, em, [extend(scorer, em, [])],
                                             np.array([[1, 2, 3]])):
            assert state.r_nb[0] == state.r_sum[0] == em.data[0, prefix[-1]]
            assert state.r_b[0] == NEG_INF
            assert_near_loop(state, ref)


# each edge a segmented scan could break: (frames, parent labels,
# candidates, -inf (frame, token) cells); token 0 is the blank, and a
# parent of n labels has successors from frame max(1, n) on
SEGMENT_EDGES = {
    "first_and_last_frame": (12, [2], [1, 3], [(1, 1), (11, 1), (1, 0), (11, 0)]),
    "consecutive_frames": (12, [2], [1, 3], [(3, 1), (4, 1), (5, 1), (7, 0), (8, 0)]),
    "label_and_blank_at_one_frame": (12, [2], [1, 3], [(6, 1), (6, 0)]),
    "label_dead_from_its_first_frame": (12, [2], [1, 3], [(t, 1) for t in range(1, 12)]),
    "only_before_the_first_frame": (12, [2, 3, 2, 4], [1, 3],
                                    [(t, 1) for t in range(4)] + [(2, 0)]),
    "repeat": (12, [1], [1, 3], [(4, 1), (7, 1), (5, 0)]),
    # the parent's r_sum is -inf at frames 4 and 5 only, so the segment of
    # label 1 after frame 4 starts with -inf terms
    "phi_dead_at_a_segment_start": (12, [3, 2], [1, 4],
                                    [(4, 1), (4, 2), (5, 2), (4, 0), (5, 0)]),
    "t1": (1, [], [1, 2, 3], [(0, 2)]),
    "parent_beyond_half": (8, [1, 2, 3, 1, 2], [3, 4], [(6, 3), (7, 0)]),
}


class _Counting:
    """``target`` (numpy, or one of its functions, ufuncs or ufunc methods),
    counting in ``calls[0]`` each call made through it or its attributes."""

    def __init__(self, target, calls):
        self._target, self._calls = target, calls

    def __call__(self, *args, **kwargs):
        self._calls[0] += 1
        return self._target(*args, **kwargs)

    def __getattr__(self, name):
        attr = getattr(self._target, name)
        if callable(attr) and not isinstance(attr, type):
            return _Counting(attr, self._calls)
        return attr


class TestSegmentedScan:
    """A scan restarts where the label's or the blank's emission is -inf.
    Every column stays within the frame loop's bound and is -inf exactly
    where the loop is, whatever the -inf pattern."""

    @pytest.mark.parametrize("edge", sorted(SEGMENT_EDGES))
    def test_edge_within_bound_of_the_loop(self, edge):
        frames, labels, cands, dead = SEGMENT_EDGES[edge]
        logits = 1.5 * np.random.default_rng(7510).normal(size=(frames, 6))
        for t, v in dead:
            logits[t, v] = -np.inf
        em = EmissionMatrix.from_logits(logits)
        scorer = CTCPrefixScorer(blank_id=0, eos_id=5)
        hyps = [extend(scorer, em, labels)]
        cands = np.array([cands])
        cells = expand_all(scorer, em, hyps, cands)
        assert_columns([state for _, state, _ in cells], call_recursion(scorer, em, hyps, cands)())
        for _, state, ref in cells:
            assert_near_loop(state, ref)
        if edge == "only_before_the_first_frame":  # no restart: the scan, bit for bit
            assert clean_from_first_frame(em.data, hyps, cands, 0).all()
            assert_equals_scan(cells, scan_reference(hyps, cands, em.data, 0))
        if edge == "phi_dead_at_a_segment_start":
            r_nb = cells[0][2][0]
            assert r_nb[5] == r_nb[6] == NEG_INF < r_nb[7]
        if edge == "repeat":
            assert cells[0][0][-2:] == (1, 1)

    def test_sums_below_the_floor_after_a_restart(self):
        rng = np.random.default_rng(7511)
        logits = peaked_logits(rng, 800, 5)
        logits[:, 1] = -100.0  # sums to about -8e4 over the frames
        logits[[40, 41, 300, 799], 1] = logits[[41, 500], 0] = -np.inf
        em = EmissionMatrix.from_logits(logits)
        scorer = CTCPrefixScorer(blank_id=0, eos_id=4)
        live = em.data[1:, 1][em.data[1:, 1] > NEG_INF]
        assert live.sum() < scorers_mod._SCAN_FLOOR
        for _, state, ref in expand_all(scorer, em, [extend(scorer, em, [3])],
                                        np.array([[1, 2]])):
            assert_near_loop(state, ref)

    @pytest.mark.parametrize("dead", [False, True])
    def test_emissions_below_the_floor(self, dead):
        # a finite emission below _SCAN_FLOOR: blocks of one frame
        rng = np.random.default_rng(7513)
        logits = peaked_logits(rng, 60, 5)
        logits[[10, 30], 0] = logits[[20, 40], 1] = -1e10
        if dead:
            logits[[15, 45], 1] = logits[25, 0] = -np.inf
        em = EmissionMatrix.from_logits(logits)
        scorer = CTCPrefixScorer(blank_id=0, eos_id=4)
        for _, state, ref in expand_all(scorer, em, [extend(scorer, em, [3])],
                                        np.array([[1, 2]])):
            assert_near_loop(state, ref)

    def test_masked_entries_end_blocks_of_their_own_columns(self, monkeypatch):
        # a (400, 8) call with 5% of its label emissions -1e10 (masked
        # tokens): each such entry ends a block of its own column only, so
        # the block path makes far fewer scans than one per frame
        rng = np.random.default_rng(7514)
        T = 400
        logits = peaked_logits(rng, T, 10)
        labels = np.arange(1, 9)
        logits[:, labels] = np.where(rng.random((T, 8)) < 0.05, -1e10, logits[:, labels])
        em = EmissionMatrix.from_logits(logits)
        assert not em.neg_inf_columns.any()
        scorer = CTCPrefixScorer(blank_id=0, eos_id=9)
        hyps = [extend(scorer, em, [])]
        cells = expand_all(scorer, em, hyps, labels[None, :])
        run = call_recursion(scorer, em, hyps, labels[None, :])
        scans = []
        scan = scorers_mod._scan
        monkeypatch.setattr(scorers_mod, "_scan", lambda *a: scans.append(len(a[2])) or scan(*a))
        assert_columns([state for _, state, _ in cells], run())
        assert scans[0] == 8 and len(scans) < T / 2
        for _, state, ref in cells:
            assert_near_loop(state, ref)

    def test_calls_do_not_grow_with_frames(self, monkeypatch):
        # a loop over frames would make more numpy calls at T=400 than at 50
        counts = []
        for frames in (50, 400):
            rng = np.random.default_rng(7512)
            logits = peaked_logits(rng, frames, 8)
            logits[:, :7][rng.random((frames, 7)) < 0.05] = -np.inf
            em = EmissionMatrix.from_logits(logits)
            scorer = CTCPrefixScorer(blank_id=0, eos_id=7)
            hyps = [extend(scorer, em, [2]), extend(scorer, em, [3, 1])]
            cands = np.array([[1, 3, 4, 5], [2, 4, 5, 6]])
            cells = expand_all(scorer, em, hyps, cands)
            run = call_recursion(scorer, em, hyps, cands)
            assert em.neg_inf_columns[0]  # the segmented path
            calls = [0]
            with monkeypatch.context() as m:
                m.setattr(scorers_mod, "np", _Counting(np, calls))
                r = run()
            counts.append(calls[0])
            assert_columns([state for _, state, _ in cells], r)
            for _, state, ref in cells:
                assert_near_loop(state, ref)
        assert counts[0] == counts[1] > 0


class TestPrunedKernel:
    """``batch_score_partial`` given ``keep``: bounds that hold on every
    cell, psi only for the cells the caller keeps."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("edge", sorted(KERNEL_EDGES))
    def test_bounds_hold_and_skipped_cells_hold_upper_bound(self, edge, seed, ctc_tier):
        drive_kernel(edge, seed, "pruned")

    def test_edges_are_reached(self, ctc_tier):
        seen = [drive_kernel(edge, seed, "pruned") for edge in KERNEL_EDGES for seed in range(6)]
        for key in ("dead_prefix", "eos", "beyond_half", "no_frames"):
            assert any(s[key] for s in seen), key


def buffer_edge(edge, seed, f32=None):
    """One scoring call on an edge of the one-buffer kernel: (scorer, em,
    hyps, cands), each row's candidates every token but the blank (its
    repeat and eos among them). Given ``f32``, the emission's values are
    rounded to float32 and stored in float32 or, widened, in float64."""
    rng = np.random.default_rng(7800 + 31 * seed + len(edge))
    V = 4 if edge == "b_ge_v" else 7
    T = {"t1": 1, "beyond_half": 9}.get(edge, int(rng.integers(20, 70)))
    logits = peaked_logits(rng, T, V, peak=3.0)
    if edge == "neg_inf":  # segmented scans
        logits[:, 1:V - 1] = np.where(rng.random((T, V - 2)) < 0.3, -np.inf, logits[:, 1:V - 1])
    elif edge == "masked":  # a column whose sums fall below the floor
        logits[:, 2] = np.where(rng.random(T) < 0.3, -1e10, logits[:, 2])
    em = EmissionMatrix.from_logits(logits)
    if f32 is not None:
        em = EmissionMatrix(em.data.astype(np.float32).astype(f32))
    scorer = CTCPrefixScorer(blank_id=0, eos_id=V - 1)
    labels = {
        "t1": [[], [2]],
        "b_ge_v": [[], [1], [2], [1, 2], [2, 1]],  # B = 5 >= V
        "beyond_half": [[1, 2, 1, 3, 2], [2, 1, 3, 1, 2]],
        "mixed": [[], [2], [1, 3, 1, 4]],
    }.get(edge, [[2], [1, 3], [3, 3]])
    hyps = [extend(scorer, em, seq) for seq in labels]
    cands = np.stack([rng.permutation(np.arange(1, V)) for _ in hyps])
    return scorer, em, hyps, cands


def block_psi_reference(scorer, em, prefixes, cands, states):
    """psi of one call as the block product of phi assembled cell by cell
    (the parent's r_sum, r_b for a repeat, by absolute frame, 0 at frame 0
    for the empty prefix) and padded with -inf, the eos cells the parent's
    r_sum[T-1]: the call's psi bit for bit, a cell's psi depending on its
    terms alone."""
    T = em.frames
    phi = np.full((T, cands.size), NEG_INF)
    for k, (i, j) in enumerate(np.ndindex(*cands.shape)):
        state = states[i]
        phi[0, k] = 0.0 if state.prefix_len == 0 else NEG_INF
        repeat = state.prefix_len > 0 and cands[i, j] == prefixes[i][-1]
        phi[1:, k] = (state.r_b if repeat else state.r_sum)[:T - 1]
    psi = scorers_mod._block_psi(em, state.table, padded(phi), cands.ravel(),
                                 np.arange(cands.size)).reshape(cands.shape)
    eos = cands == scorer.eos_id
    psi[eos] = np.array([s.r_sum[-1] for s in states])[np.nonzero(eos)[0]]
    return psi


def buffer_steps(scorer, em, hyps, cands, rng, steps=3):
    """Score ``steps`` calls in turn, each checked against the frame loop
    and against its pruned entry (``check_pruned_entry``), its psi bit for
    bit ``block_psi_reference``'s, and select up to
    four live cells of each: the next call on ``select_states``' batch and
    on ``select_state``'s states alike, bit for bit. Returns each call's
    (scores, psi) as int64 bits."""
    prefixes, states = [h[0] for h in hyps], [h[1] for h in hyps]
    bits = []
    for _ in range(steps):
        def reference():
            return frame_loop_reference(prefixes, cands, [ctc_state(s) for s in states], em.data,
                                        scorer.blank_id, scorer.eos_id)

        scores, scored = check_pruned_entry(scorer, prefixes, cands, states, em, reference)
        bits.append((scores.view(np.int64), scored[0][0].psi.view(np.int64)))
        if em.frames > 1:  # at T=1 no psi takes the product
            want = block_psi_reference(scorer, em, prefixes, cands, list(states))
            assert np.array_equal(bits[-1][1], want.view(np.int64))
        live = np.flatnonzero(cands.ravel() != scorer.eos_id)
        cells = rng.choice(live, size=min(4, live.size), replace=False)
        rows, cols = np.divmod(cells, cands.shape[1])
        tokens = cands[rows, cols]
        batch = scorer.select_states(scored, rows, tokens)
        alone = [scorer.select_state(scored[r], t) for r, t in zip(rows.tolist(), tokens.tolist())]
        assert all(ctc_states_equal(batch[k], state) for k, state in enumerate(alone))
        prefixes = [prefixes[r] + (t,) for r, t in zip(rows.tolist(), tokens.tolist())]
        cands = np.stack([rng.permutation(cands[0]) for _ in prefixes])
        got, got_scored = scorer.batch_score_partial(prefixes, cands, batch, em)
        want, want_scored = scorer.batch_score_partial(prefixes, cands, alone, em)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        got_psi, want_psi = got_scored[0][0].psi, want_scored[0][0].psi
        assert np.array_equal(got_psi.view(np.int64), want_psi.view(np.int64))
        states = batch
    return bits


class TestOneBuffer:
    """The kernel whose recursion writes psi's buffer, on each edge it must
    keep: -inf entries, a masked column, T=1, B >= V, prefixes past T/2,
    mixed prefix lengths, the empty prefix and repeats in every call."""

    EDGES = ["plain", "neg_inf", "masked", "t1", "b_ge_v", "beyond_half", "mixed"]

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("edge", EDGES)
    def test_calls_selections_and_pruning(self, edge, seed, ctc_tier):
        scorer, em, hyps, cands = buffer_edge(edge, seed)
        buffer_steps(scorer, em, hyps, cands, np.random.default_rng(seed))

    @pytest.mark.parametrize("edge", EDGES)
    def test_raw_f32_storage_gives_the_float64_bits(self, edge):
        calls = [buffer_steps(*buffer_edge(edge, 0, dtype), np.random.default_rng(0))
                 for dtype in (np.float32, np.float64)]
        assert buffer_edge(edge, 0, np.float32)[1].data.dtype == np.float32
        assert buffer_edge(edge, 0, np.float64)[1].data.dtype == np.float64
        for (a_scores, a_psi), (b_scores, b_psi) in zip(*calls):
            assert np.array_equal(a_scores, b_scores) and np.array_equal(a_psi, b_psi)

    def test_one_call_holds_one_buffer(self):
        # a (T=400, B=8, P=12) call on the batch of the call before: the
        # recursion writes one buffer for psi, with no (3, T, B) result, no
        # phi copy and no padded copy of it besides; measured at 805,239 B
        # (its recursion 188,966 B) against 823,159 B (233,540 B) before,
        # the call's peak being psi's gathers, which both kernels make
        rng = np.random.default_rng(7900)
        T, V, B, P = 400, 40, 8, 12
        em = EmissionMatrix.from_logits(peaked_logits(rng, T, V, peak=6.0, noise=1.0))
        scorer = CTCPrefixScorer(blank_id=0, eos_id=V - 1)
        prefixes, states = [(V,)], [scorer.init_state(em)]
        for _ in range(6):
            cands = np.stack([rng.choice(np.arange(1, V), size=P, replace=False)
                              for _ in prefixes])
            scores, scored = scorer.batch_score_partial(prefixes, cands, states, em)
            rows, cols = np.divmod(np.argsort(-scores, axis=None, kind="stable")[:B], P)
            tokens = cands[rows, cols]
            states = scorer.select_states(scored, rows, tokens)
            prefixes = [prefixes[r] + (t,) for r, t in zip(rows.tolist(), tokens.tolist())]
        cands = np.stack([rng.choice(np.arange(1, V), size=P, replace=False) for _ in prefixes])
        peaks = []
        for call in (lambda: scorer.batch_score_partial(prefixes, cands, states, em),
                     lambda: scorers_mod._recursion(states.scored, states.rows, states.cols)):
            call()
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 815_000 and peaks[1] < 212_000, peaks


class TestBlockProduct:
    """psi as a blocked product: within the stated bound of the frame-order
    fold, -inf exactly where the fold is, and the same bits for a cell
    whatever else its call scores."""

    @staticmethod
    def score(scorer, hyps, cands, em):
        prefixes, states = [h[0] for h in hyps], [h[1] for h in hyps]
        scores, scored = scorer.batch_score_partial(prefixes, cands, states, em)
        ref_scores, _, psi = frame_loop_reference(
            prefixes, cands, [ctc_state(s) for s in states], em.data, scorer.blank_id,
            scorer.eos_id)
        assert psi_near(scores, ref_scores, em.frames, psi)
        return scores, scored[0][0].psi, psi

    @pytest.mark.parametrize("shape", [(1, 3), (17, 256), (40, 257), (33, 600)])
    def test_table_built_in_slices_equals_one_build(self, shape):
        x = np.random.default_rng(7700 + shape[1]).normal(size=shape) - 4.0
        x[::3, ::5] = -np.inf
        e, shift = scorers_mod._label_blocks(x)
        whole_e, whole_shift = scorers_mod._blocks(padded(x))
        assert np.array_equal(e, whole_e) and np.array_equal(shift, whole_shift)

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 600, 2000])
    @pytest.mark.parametrize("value", [0.0, -1e-3, -1.0, -7.25, -1e3, -3e4, 2.5])
    def test_equal_terms_are_the_tight_case(self, n, value):
        # n equal float terms a have the real log-sum a + ln n; psi by
        # blocks must stay within the stated bound of it, for every cell
        # alone and in one call
        em = EmissionMatrix(np.tile(np.log([0.1, 0.2, 0.3, 0.4]), (n, 1)))
        table = scorers_mod._label_blocks(em.data)
        phi = np.stack([np.full(n, value), np.full(n, np.nextafter(value, -np.inf))], axis=1)
        labels, rows = np.array([1, 2, 3, 2]), np.array([0, 0, 0, 1])
        psi = scorers_mod._block_psi(em.data, table, padded(phi), labels, rows)
        real = (phi[0, rows] + em.data[0, labels]) + math.log(n)
        assert (np.abs(psi - real) <= scorers_mod._psi_tol(n, real)).all()
        for k in range(len(labels)):
            alone = scorers_mod._block_psi(em.data, table, padded(phi), labels[k:k + 1],
                                           rows[k:k + 1])
            assert alone[0] == psi[k]

    @pytest.mark.parametrize("nb", [1, 2, 7, 8, 9])
    def test_column_sums_keep_the_row_order_below_eight_blocks(self, nb):
        # psi must sum a cell's block terms as numpy sums its (nb,) row; it
        # takes the (nb, k) layout's column sums below 8 blocks, the same
        # order only while numpy sums a row of under 8 entries one by one
        # and a longer one otherwise: a numpy that moves either fails here
        ez = np.exp(np.random.default_rng(7800 + nb).uniform(-60.0, 0.0, size=(nb, 4000)))
        same = np.array_equal(ez.sum(axis=0), np.ascontiguousarray(ez.T).sum(axis=1))
        assert same == (nb < 8)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_terms(self, seed):
        rng = np.random.default_rng(7300 + seed)
        for _ in range(40):
            n, V = int(rng.integers(1, 300)), int(rng.integers(2, 9))
            scale = float(rng.choice([1e-3, 1.0, 10.0, 1e3]))
            logits = scale * rng.normal(size=(n, V))
            logits[rng.random(logits.shape) < 0.2] = -np.inf
            logits[:, 0] = 0.0  # every frame keeps some mass
            em = EmissionMatrix.from_logits(logits)
            phi = scale * rng.normal(size=(n, 3)) - float(rng.random()) * 10 * scale
            phi[rng.random(phi.shape) < 0.2] = -np.inf
            phi[:, 2] = -np.inf  # a parent with no mass gives exactly -inf
            labels = rng.integers(0, V, size=12)
            rows = rng.integers(0, 3, size=12)
            table = scorers_mod._label_blocks(em.data)
            psi = scorers_mod._block_psi(em.data, table, padded(phi), labels, rows)
            fold = np.logaddexp.reduce(phi[:, rows] + em.data[:, labels], axis=0)
            assert psi_near(psi, fold, n)
            assert (psi[rows == 2] == NEG_INF).all()

    def test_finite_entry_far_below_takes_the_fold(self, monkeypatch):
        # -1e10 standing for a masked token: label 1 is masked from frame 10
        # on, and the parent (2) has mass only from frame 10 on, so in the
        # first block every product of finite terms underflows
        logits = np.zeros((40, 5))
        logits[:10, 2] = -np.inf
        logits[10:, 1] = -1e10
        em = EmissionMatrix.from_logits(logits)
        scorer = CTCPrefixScorer(blank_id=0, eos_id=4)
        hyp = extend(scorer, em, [2])
        folded = counting_fold(monkeypatch)
        _, psi, ref = self.score(scorer, [hyp], np.array([[1, 3]]), em)
        assert folded == [1]
        assert -1.1e10 < psi[0, 0] == ref[0, 0] < -1e10  # the fold itself

    def test_swing_inside_one_block_takes_the_fold(self, monkeypatch):
        # one label near 1 per frame: 2 up to frame 15, 3 at 16, 1 at 17,
        # then blank. In frames 16..31 the parent (2) is near 1 where label
        # 1 is near e^-900 and the reverse, so every product underflows
        # although the block holds as much mass as the first
        logits = np.zeros((32, 5))
        logits[:16, 2] = logits[16, 3] = logits[17, 1] = logits[18:, 0] = 900.0
        em = EmissionMatrix.from_logits(logits)
        scorer = CTCPrefixScorer(blank_id=0, eos_id=4)
        hyp = extend(scorer, em, [2])
        folded = counting_fold(monkeypatch)
        _, psi, ref = self.score(scorer, [hyp], np.array([[1, 3]]), em)
        assert folded == [1]
        assert -900.0 < psi[0, 0] == ref[0, 0] < -890.0

    @pytest.mark.parametrize("frames", [1, 2, 17, 40])
    def test_neg_inf_entries_and_no_mass(self, frames):
        rng = np.random.default_rng(7600 + frames)
        logits = 1.5 * rng.normal(size=(frames, 6))
        logits[rng.random(logits.shape) < 0.3] = -np.inf
        logits[:, 0] = 0.0
        logits[:, 2] = -np.inf  # a label with no mass at any frame
        em = EmissionMatrix.from_logits(logits)
        scorer = CTCPrefixScorer(blank_id=0, eos_id=5)
        hyps = [((9,), scorer.init_state(em)), extend(scorer, em, [3])]
        scores, _, _ = self.score(scorer, hyps, np.array([[1, 2, 3, 4], [1, 2, 3, 4]]), em)
        assert (scores[:, 1] == NEG_INF).all()

    @pytest.mark.parametrize("beam", [1, 4])
    def test_cells_alone_pruned_and_in_full_call_are_bit_equal(self, beam, ctc_tier):
        # B >= V: every label of every hypothesis in one call
        rng = np.random.default_rng(7610 + beam)
        em = EmissionMatrix.from_logits(peaked_logits(rng, 70, 6))
        scorer = CTCPrefixScorer(blank_id=0, eos_id=5)
        hyps = [extend(scorer, em, labels)
                for labels in ([1], [2, 3], [4, 4, 1], [3, 1, 2, 4])[:beam]]
        cands = np.tile(np.arange(1, 6), (len(hyps), 1))
        prefixes, states = [h[0] for h in hyps], [h[1] for h in hyps]
        full, _, _ = self.score(scorer, hyps, cands, em)
        calls = []

        def keep_some(lo, hi):
            calls.append((lo, hi, rng.random(lo.shape) < 0.5))
            return calls[-1][2]

        pruned, _ = scorer.batch_score_partial(prefixes, cands, states, em, keep_some)
        assert len(calls) == (ctc_tier == "tiered")
        built = calls[0][2] & (calls[0][0] < calls[0][1]) if calls else np.ones(cands.shape, bool)
        assert built.any() and np.array_equal(pruned[built], full[built])
        for i, j in np.ndindex(*cands.shape):
            alone = scorer.batch_score_partial(
                [prefixes[i]], cands[i:i + 1, j:j + 1], [states[i]], em)[0]
            assert alone[0, 0] == full[i, j]
            single = scorer.score_partial(prefixes[i], cands[i], states[i], em)[0]
            assert np.array_equal(single, full[i])


class TestPeakBounds:
    """Tier 1 of the kernel given ``keep``: bounds on every cell from the
    column peaks and the parent's log-sum over frames, without its frame
    terms."""

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
        lo, hi = scorers_mod._peak_bounds(peaks, x, cands, repeat, psi0,
                                          forward_buffer(r_sum, r_b), 1)
        phi = np.where(repeat, r_b[:-1], r_sum[:-1])  # (n, 3): a repeat reads r_b
        fold = np.logaddexp.reduce(phi + x[1:, cands[0]], axis=0)[None]
        assert (lo <= fold).all() and (fold <= hi).all()
        # and psi by blocks: per cell, phi by absolute frame, none at frame 0
        rows = np.concatenate((np.full((1, 3), NEG_INF), phi))
        table = scorers_mod._label_blocks(x)
        psi = scorers_mod._block_psi(x, table, padded(rows), cands[0], np.arange(3))[None]
        assert (lo <= psi).all() and (psi <= hi).all()
        # hi carries one _margin plus _psi_tol over the float fold of its
        # bound, and that fold strays from the cells' fold by far less than
        # another _margin
        slack = 2 * scorers_mod._margin(n, hi[0, :2]) + scorers_mod._psi_tol(n, hi[0, :2])
        assert (hi[0, :2] - fold[0, :2] <= slack).all()

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
        ref, _, psi = frame_loop_reference([(9, 1)], cands, [ctc_state(state)], em.data, 0, 3)
        calls = []

        def keep_all(lo, hi):
            calls.append((lo, hi, np.ones(lo.shape, dtype=bool)))
            return calls[-1][2]

        scores, _ = scorer.batch_score_partial([(9, 1)], cands, [state], em, keep_all)
        full = scorer.batch_score_partial([(9, 1)], cands, [state], em)[0]
        assert np.array_equal(scores, full)
        check_keep_calls(calls, scores, full, (ref, psi, em.frames))
        assert len(calls) == (1 if ctc_tier == "tiered" else 0)
        r_sum = np.logaddexp(state.r_nb, state.r_b)
        peak = max(1, int(em.data[:, 1].argmax()))
        assert r_sum[peak - 1] + em.data[peak, 1] - state.prefix_score > ref[0, 0] + 1.0

    @staticmethod
    def check_against_fold(x, cands, repeat, empty, r_sum, r_b, t0):
        """lo <= the frame-order fold <= hi on every cell, psi by blocks
        between them too, and lo -inf where the fold is. Rows of ``empty``
        are empty prefixes: their psi0 is x[0, c], the others' -inf.
        Returns (lo, hi, fold)."""
        T = x.shape[0]
        psi0 = np.where(empty[:, None], x[0, cands], NEG_INF)
        peaks = (x.max(axis=0), x.argmax(axis=0))
        lo, hi = scorers_mod._peak_bounds(peaks, x, cands, repeat, psi0,
                                          forward_buffer(r_sum, r_b), t0)
        # (T - t0, B, P) the cells' terms, a repeat reading r_b
        phi = np.where(repeat, r_b[t0 - 1:T - 1, :, None], r_sum[t0 - 1:T - 1, :, None])
        terms = phi + x[t0:][:, cands]
        fold = np.logaddexp.reduce(np.concatenate((psi0[None], terms)), axis=0)
        assert (lo <= fold).all() and (fold <= hi).all()
        assert (lo[fold == NEG_INF] == NEG_INF).all()
        # psi by blocks: per cell, phi by absolute frame, 0 at frame 0 on
        # an empty prefix's row
        B, P = cands.shape
        cols = np.full((T, B, P), NEG_INF)
        cols[0] = np.where(empty, 0.0, NEG_INF)[:, None]
        cols[t0:] = phi
        table = scorers_mod._label_blocks(x)
        psi = scorers_mod._block_psi(x, table, padded(cols.reshape(T, -1)), cands.ravel(),
                                     np.arange(B * P)).reshape(B, P)
        assert (lo <= psi).all() and (psi <= hi).all()
        return lo, hi, fold

    @pytest.mark.parametrize("seed", range(4))
    def test_parent_mass_spans_more_than_underflow(self, seed):
        # each parent's r_sum spans 800-3000 nats over the frames, so the
        # log-sum shifted by its peak underflows most terms to 0; with x
        # constant over frames the bound is tight, and only the margin
        # covers the two sums' rounding
        rng = np.random.default_rng(9810 + seed)
        T, V, B = 90, 12, 16
        x = np.tile(np.log(rng.dirichlet(np.ones(V))), (T, 1))
        spans = rng.uniform(800.0, 3000.0, size=B)
        ramp = np.linspace(0.0, 1.0, T)[:, None] * spans
        r_sum = np.where(rng.random(B) < 0.5, -ramp, ramp - spans)
        r_sum += rng.normal(scale=0.3, size=r_sum.shape) - rng.uniform(0.0, 50.0, size=B)
        r_b = r_sum - rng.uniform(0.0, 3.0, size=r_sum.shape)
        cands = np.stack([rng.choice(V, size=6, replace=False) for _ in range(B)])
        repeat = np.zeros(cands.shape, dtype=bool)
        repeat[:4, 0] = True
        lo, hi, fold = self.check_against_fold(
            x, cands, repeat, np.zeros(B, dtype=bool), r_sum, r_b, 1)
        tight = ~repeat
        slack = 2 * scorers_mod._margin(T - 1, hi) + scorers_mod._psi_tol(T, hi)
        assert (hi - fold <= slack)[tight].all()

    def test_all_neg_inf_parent_columns(self):
        rng = np.random.default_rng(9820)
        T, V = 40, 8
        x = np.log(rng.dirichlet(np.ones(V), size=T))
        x[:, 5] = NEG_INF  # a label that never fires
        r_sum = np.cumsum(np.log(rng.uniform(0.3, 0.9, size=(T, 4))), axis=0)
        r_sum[:, [1, 3]] = NEG_INF  # parents without mass
        r_b = r_sum - 0.7
        cands = np.array([[1, 2, 5], [1, 2, 5], [3, 5, 6], [4, 6, 7]])
        repeat = np.zeros(cands.shape, dtype=bool)
        repeat[2, 0] = repeat[3, 2] = True
        lo, hi, fold = self.check_against_fold(
            x, cands, repeat, np.zeros(4, dtype=bool), r_sum, r_b, 3)
        dead = np.zeros(cands.shape, dtype=bool)
        dead[[1, 3]] = True
        dead[cands == 5] = True
        assert np.array_equal(fold == NEG_INF, dead)
        # a parent without mass, or a label that never fires, bounds its
        # cells by exactly -inf
        assert (lo[dead] == NEG_INF).all() and (hi[dead] == NEG_INF).all()
        assert (hi[~dead] > NEG_INF).all()

    def test_psi0_finite_only_on_the_empty_prefix_row(self):
        rng = np.random.default_rng(9830)
        T, V = 30, 8
        x = np.log(rng.dirichlet(np.ones(V), size=T))
        x[0, 2] = NEG_INF  # its first candidate has no frame-0 term
        x[1:, 6] = NEG_INF  # its mass is the frame-0 term alone
        r_sum = np.cumsum(np.log(rng.uniform(0.3, 0.9, size=(T, 3))), axis=0)
        r_sum[:, 1] = np.cumsum(x[:, 0])  # the empty prefix: blanks only
        r_b = r_sum - 0.4
        cands = np.array([[2, 3, 6], [2, 3, 6], [2, 4, 6]])
        empty = np.array([False, True, False])
        lo, hi, fold = self.check_against_fold(
            x, cands, np.zeros(cands.shape, dtype=bool), empty, r_sum, r_b, 1)
        # the empty prefix's cell whose mass is its frame-0 term alone, and
        # the same label on the other rows, which have none
        assert fold[1, 2] == x[0, 6] and hi[1, 2] >= x[0, 6]
        assert fold[0, 2] == fold[2, 2] == NEG_INF


class _NanEmpty:
    """numpy as the scorers module sees it, with every float ``np.empty``
    filled with nan: a kernel that leaves an entry unwritten shows it."""

    @staticmethod
    def empty(shape, dtype=float, **kwargs):
        a = np.empty(shape, dtype=dtype, **kwargs)
        if a.dtype.kind == "f":
            a.fill(np.nan)
        return a

    def __getattr__(self, name):
        return getattr(np, name)


def scan_low_reference(phi, x, labels, blank, first, segmented, r, s, e):
    """The columns ``_scan`` must report below the floor: those whose label
    or blank emissions, summed in frame order from the later of s and
    their first frame to e - 1 (-inf terms left out of a segmented scan),
    fall below ``_SCAN_FLOOR``, or are nan."""
    on = np.arange(s, e)[:, None] >= first
    sums = np.zeros((2, e - s + 1, len(labels)))
    sums[0, 1:] = np.where(on, x[s:e, labels], 0.0)
    sums[1, 1:] = np.where(on, x[s:e, [blank]], 0.0)
    if segmented:
        sums[np.isneginf(sums)] = 0.0
    last = np.cumsum(sums, axis=1)[:, -1]
    return np.flatnonzero(~(last >= scorers_mod._SCAN_FLOOR).all(axis=0)).tolist()


class TestCommonCaseBranches:
    """The CTC kernel skips work its common case does not need (no empty
    parent, every prefix score finite, no sum below the floor); each
    branch is pinned bit for bit against the general path."""

    @staticmethod
    def score_bits(scorer, em, hyps, cands):
        """(scores, psi) of one call, as int64 bit patterns."""
        scores, scored = scorer.batch_score_partial(
            [h[0] for h in hyps], cands, [h[1] for h in hyps], em)
        return scores.view(np.int64), scored[0][0].psi.view(np.int64)

    def check_rows_alone(self, scorer, em, hyps, cands):
        """Each row of the call, scored alone (its own branch), bit for bit
        as in the call (the call's branch), and the call's scores near the
        frame loop's."""
        scores, psi = self.score_bits(scorer, em, hyps, cands)
        want, _, want_psi = frame_loop_reference(
            [h[0] for h in hyps], cands, [ctc_state(h[1]) for h in hyps], em.data,
            scorer.blank_id, scorer.eos_id)
        assert psi_near(scores.view(np.float64), want, em.frames, want_psi)
        for i, hyp in enumerate(hyps):
            alone_scores, alone_psi = self.score_bits(scorer, em, [hyp], cands[i:i + 1])
            assert np.array_equal(alone_scores[0], scores[i])
            assert np.array_equal(alone_psi[0], psi[i])

    @pytest.mark.parametrize("seed", range(4))
    def test_empty_and_nonempty_parents_in_one_call(self, seed, ctc_tier):
        # t0 == 1: the empty parent's frame-0 terms, the others' -inf
        rng = np.random.default_rng(7600 + seed)
        em = random_emission(rng, int(rng.integers(2, 12)), 7)
        scorer = CTCPrefixScorer(blank_id=0, eos_id=6)
        hyps = [extend(scorer, em, []), extend(scorer, em, [2]), extend(scorer, em, [1, 3])]
        cands = np.array([[1, 2, 6], [2, 4, 5], [3, 6, 1]])
        self.check_rows_alone(scorer, em, hyps, cands)
        TestScanRecursion.assert_alone_equals_mixed(scorer, em, hyps, cands)

    def test_minus_with_a_neg_inf_prefix_score(self):
        rng = np.random.default_rng(7610)
        psi = rng.normal(size=(4, 3)) - 3.0
        psi[1, 2] = psi[3, 0] = NEG_INF
        for prefix in ([[-1.0], [-2.5], [-0.0], [-3.0]], [[-1.0], [NEG_INF], [-2.0], [NEG_INF]]):
            prefix = np.array(prefix)
            with np.errstate(invalid="ignore"):
                want = np.where(prefix == NEG_INF, NEG_INF, psi - prefix)
            got = scorers_mod._minus(psi, prefix)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_dead_parent_in_a_call_with_live_ones(self):
        # label 3 is -inf at every frame, so the prefix (3,) has no mass
        rng = np.random.default_rng(7611)
        logits = 1.5 * rng.normal(size=(8, 6))
        logits[:, 3] = -np.inf
        em = EmissionMatrix.from_logits(logits)
        scorer = CTCPrefixScorer(blank_id=0, eos_id=5)
        hyps = [extend(scorer, em, [1]), extend(scorer, em, [3]), extend(scorer, em, [2])]
        assert hyps[1][1].prefix_score == NEG_INF
        cands = np.array([[1, 2, 5], [1, 2, 5], [4, 1, 5]])
        scores, _ = scorer.batch_score_partial(
            [h[0] for h in hyps], cands, [h[1] for h in hyps], em)
        assert (scores[1] == NEG_INF).all() and (scores[[0, 2]] > NEG_INF).any()
        self.check_rows_alone(scorer, em, hyps, cands)

    @pytest.mark.parametrize("dead", [False, True])
    def test_masked_emissions_take_the_full_floor_check(self, dead, monkeypatch):
        # label 2 holds -1e10 at three frames: its sums fall below the
        # floor, so its column scans again in blocks; labels 1 and 4 do not
        rng = np.random.default_rng(7620 + dead)
        logits = peaked_logits(rng, 40, 6)
        logits[[8, 20, 33], 2] = -1e10
        if dead:
            logits[[5, 17], 4] = -np.inf
        em = EmissionMatrix.from_logits(logits)
        scorer = CTCPrefixScorer(blank_id=0, eos_id=5)
        hyps = [extend(scorer, em, [3]), extend(scorer, em, [1, 3])]
        cands = np.array([[1, 2, 4], [2, 4, 1]])
        lows = []
        scan = scorers_mod._scan

        def checked(*args):
            want = scan_low_reference(*args)
            got = scan(*args)
            assert got == want
            lows.append(len(got))
            return got

        monkeypatch.setattr(scorers_mod, "_scan", checked)
        TestScanRecursion.assert_alone_equals_mixed(scorer, em, hyps, cands)
        self.check_rows_alone(scorer, em, hyps, cands)
        # the mixed call reports both label-2 columns; the clean calls none
        assert 2 in lows and 0 in lows

    @pytest.mark.parametrize("dead", [False, True])
    def test_parents_past_frame_one_fill_the_head_alone(self, dead, monkeypatch):
        # parents of 2-4 labels: the call starts at frame 2 or later, and
        # its frames before that come from the head fill, with np.empty
        # poisoned to nan; the same columns in a call with an empty parent
        # (t0 == 1) are the general path
        rng = np.random.default_rng(7630 + dead)
        logits = 1.5 * rng.normal(size=(14, 6))
        if dead:
            logits[[4, 9], 2] = logits[7, 0] = -np.inf
        em = EmissionMatrix.from_logits(logits)
        scorer = CTCPrefixScorer(blank_id=0, eos_id=5)
        late = [extend(scorer, em, [1, 3]), extend(scorer, em, [2, 4, 1, 3])]
        cands = np.array([[1, 2, 4], [2, 3, 4]])
        general = call_recursion(scorer, em, [extend(scorer, em, [])] + late,
                                 np.array([[1, 2, 3]] + cands.tolist()))()[:, :, 3:]
        with monkeypatch.context() as m:
            m.setattr(scorers_mod, "np", _NanEmpty())
            cells = expand_all(scorer, em, late, cands)
            run = call_recursion(scorer, em, late, cands)
            assert np.array_equal(run().view(np.int64), general.view(np.int64))
        assert_columns([state for _, state, _ in cells], general)
        for _, state, ref in cells:
            assert (state.r_nb[:state.prefix_len - 1] == NEG_INF).all()
            assert_near_loop(state, ref)

    @pytest.mark.parametrize("edge", ["random", "neg_inf_columns", "long_prefix", "t1"])
    def test_searches_read_no_unwritten_entry(self, edge, monkeypatch):
        # whole decodes with np.empty poisoned to nan give the same n-best
        for seed in range(4):
            args = selection_instance(edge, seed)
            want = nbest_rows(batch_beam_search(*args))
            with monkeypatch.context() as m:
                m.setattr(scorers_mod, "np", _NanEmpty())
                assert nbest_rows(batch_beam_search(*args)) == want
