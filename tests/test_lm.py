import math
import re
from dataclasses import replace

import numpy as np
import pytest

from seqdecode import (
    FormatError,
    LookAheadLMScorer,
    MultiLevelLMScorer,
    TableScorer,
    Vocabulary,
    WordTrie,
    load_arpa,
    load_lexicon,
    ngram_score,
    sentence_logprob,
)
from seqdecode import lm as lm_mod
from seqdecode.core import NEG_INF, logsumexp
from seqdecode.lm import BOS, EOS_WORD, UNK, LookAheadState, MultiLevelState

from conftest import random_table_scorer, validate_hypothesis

LN10 = math.log(10)
LETTERS = "abcd"


def write_arpa(path, unigrams, bigrams=None, trigrams=None):
    """unigrams: {w: (log10 p, log10 bow|None)}; bigrams/trigrams analogous
    keyed by tuples."""
    bigrams = bigrams or {}
    trigrams = trigrams or {}
    lines = ["\\data\\", f"ngram 1={len(unigrams)}"]
    if bigrams:
        lines.append(f"ngram 2={len(bigrams)}")
    if trigrams:
        lines.append(f"ngram 3={len(trigrams)}")
    lines.append("")
    lines.append("\\1-grams:")
    for w, (lp, bow) in unigrams.items():
        lines.append(f"{lp!r} {w}" + (f" {bow!r}" if bow is not None else ""))
    if bigrams:
        lines.append("")
        lines.append("\\2-grams:")
        for (w1, w2), (lp, bow) in bigrams.items():
            lines.append(f"{lp!r} {w1} {w2}" + (f" {bow!r}" if bow is not None else ""))
    if trigrams:
        lines.append("")
        lines.append("\\3-grams:")
        for (w1, w2, w3), (lp, _) in trigrams.items():
            lines.append(f"{lp!r} {w1} {w2} {w3}")
    lines.append("")
    lines.append("\\end\\")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def random_words(rng, n):
    words = set()
    while len(words) < n:
        length = int(rng.integers(1, 5))
        words.add("".join(rng.choice(list(LETTERS), size=length)))
    return sorted(words)


def random_proper_arpa(rng, path, n_words, order=2):
    """Model whose backoff-completed conditionals sum to one exactly."""
    words = random_words(rng, n_words)
    vocab = [UNK, BOS, EOS_WORD] + words
    uni_p = rng.dirichlet(np.ones(len(vocab)) * 2.0)
    uni = {w: [math.log10(p), None] for w, p in zip(vocab, uni_p)}
    uni_of = dict(zip(vocab, uni_p))

    bigrams = {}
    bi_cond = {}  # ctx word -> {w: p}
    if order >= 2:
        contexts = [w for w in vocab if w != EOS_WORD]
        for ctx in contexts:
            if rng.random() < 0.3:
                continue  # leave some contexts to pure backoff
            k = int(rng.integers(1, len(vocab) - 1))
            succ = list(rng.choice(vocab, size=k, replace=False))
            cover = float(rng.uniform(0.2, 0.8))
            q = cover * rng.dirichlet(np.ones(len(succ)))
            denom = 1.0 - sum(uni_of[w] for w in succ)
            bow = (1.0 - cover) / denom
            uni[ctx][1] = math.log10(bow)
            bi_cond[ctx] = dict(zip(succ, q))
            for w, p in zip(succ, q):
                bigrams[(ctx, w)] = [math.log10(p), None]

    def p_bigram(ctx, w):
        if ctx in bi_cond and w in bi_cond[ctx]:
            return bi_cond[ctx][w]
        bow = 10 ** uni[ctx][1] if uni[ctx][1] is not None else 1.0
        return bow * uni_of[w]

    trigrams = {}
    if order >= 3 and bigrams:
        keys = list(bigrams)
        picks = rng.choice(len(keys), size=min(4, len(keys)), replace=False)
        for idx in picks:
            w1, w2 = keys[idx]
            if w2 == EOS_WORD:
                continue
            k = int(rng.integers(1, len(vocab) - 1))
            succ = list(rng.choice(vocab, size=k, replace=False))
            cover = float(rng.uniform(0.2, 0.8))
            q = cover * rng.dirichlet(np.ones(len(succ)))
            denom = 1.0 - sum(p_bigram(w2, w) for w in succ)
            bow = (1.0 - cover) / denom
            bigrams[(w1, w2)][1] = math.log10(bow)
            for w, p in zip(succ, q):
                trigrams[(w1, w2, w)] = [math.log10(p), None]

    write_arpa(
        path,
        {w: tuple(v) for w, v in uni.items()},
        {k: tuple(v) for k, v in bigrams.items()},
        {k: tuple(v) for k, v in trigrams.items()},
    )
    return words


def reference_backoff(path):
    """Independent linear-domain backoff evaluator over the raw ARPA text."""
    grams = {}
    order = 0
    current = 0
    for line in path.read_text().splitlines():
        line = line.strip()
        if line.startswith("\\") and line.endswith("-grams:"):
            current = int(line[1:].split("-")[0])
            order = max(order, current)
            continue
        if not line or line.startswith("\\") or line.startswith("ngram"):
            continue
        parts = line.split()
        key = tuple(parts[1 : current + 1])
        bow = float(parts[current + 1]) if len(parts) > current + 1 else 0.0
        grams[key] = (float(parts[0]), bow)

    def prob(context, word):
        w = word if (word,) in grams else UNK
        ctx = tuple(context)[-(order - 1):] if order > 1 else ()
        ctx = tuple(c if (c,) in grams else UNK for c in ctx)
        while True:
            if ctx + (w,) in grams:
                return 10 ** grams[ctx + (w,)][0]
            if not ctx:
                return 0.0
            bow = 10 ** grams[ctx][1] if ctx in grams else 1.0
            return bow * prob(ctx[1:], w)

    return grams, order, prob


def char_vocab(extra_letters=LETTERS):
    tokens = ["<blank>"] + list(extra_letters) + ["<space>", "<eos>", "<sos>"]
    return Vocabulary(
        tokens=tuple(tokens),
        blank_id=0,
        sos_id=len(tokens) - 1,
        eos_id=len(tokens) - 2,
    )


def encode(vocab, sentence_words):
    """Char token ids for 'w1 w2 ... wn<eos>' (eos closes the last word)."""
    ids = []
    space = vocab.tokens.index("<space>")
    for i, word in enumerate(sentence_words):
        ids.extend(vocab.tokens.index(ch) for ch in word)
        if i < len(sentence_words) - 1:
            ids.append(space)
    ids.append(vocab.eos_id)
    return ids


def score_tokens(scorer, vocab, token_ids):
    state = scorer.init_state(None)
    prefix = (vocab.sos_id,)
    total = 0.0
    steps = []
    for tok in token_ids:
        vec, scored = scorer.score(prefix, state, None)
        steps.append(float(vec[tok]))
        total += float(vec[tok])
        state = scorer.select_state(scored, tok)
        prefix = prefix + (tok,)
    return total, steps


def five_word_arpa(path, cab="-0.3", backoff=""):
    """A unigram ARPA over cab, ad, <s>, </s> and <unk>: ``cab`` holds the
    log-probability text on line 5, ``backoff`` an optional backoff."""
    path.write_text(f"\\data\\\nngram 1=5\n\n\\1-grams:\n{cab} cab {backoff}\n-0.5 ad\n"
                    "-99 <s>\n-0.5 </s>\n-1 <unk>\n\n\\end\\\n", encoding="utf-8")
    return str(path)


class TestArpaLoader:
    @pytest.mark.parametrize("value", ["nan", "inf", "+inf", "1e400", "-nan", "1e308"])
    @pytest.mark.parametrize("field", ["log-probability", "backoff weight"])
    def test_nan_or_plus_inf_is_a_format_error_naming_its_line(self, tmp_path, value, field):
        # 1e308 overflows to inf in the conversion to natural log
        args = {"cab": value} if field == "log-probability" else {"backoff": value}
        with pytest.raises(FormatError, match=f"^line 5: {field} '.*' is nan or \\+inf$"):
            load_arpa(five_word_arpa(tmp_path / "bad.arpa", **args))

    @pytest.mark.parametrize("value", ["0.7", "1", "1e-9", "+0.3", "1e-320"])
    def test_a_log_probability_above_0_is_a_format_error_naming_its_line(self, tmp_path,
                                                                          value):
        with pytest.raises(FormatError, match=f"^line 5: log-probability '{re.escape(value)}' "
                                              "is above 0$"):
            load_arpa(five_word_arpa(tmp_path / "bad.arpa", cab=value))

    @pytest.mark.parametrize("value", ["0", "-0", "-0.0"])
    def test_a_log_probability_of_0_is_probability_one(self, tmp_path, value):
        model = load_arpa(five_word_arpa(tmp_path / "one.arpa", cab=value))
        assert ngram_score(model, (), "cab") == 0.0

    def test_a_positive_backoff_weight_loads(self, tmp_path):
        model = load_arpa(five_word_arpa(tmp_path / "bo.arpa", backoff="0.7"))
        assert model.entries[("cab",)][1] == pytest.approx(0.7 * math.log(10))

    def test_minus_inf_is_probability_zero(self, tmp_path):
        model = load_arpa(five_word_arpa(tmp_path / "zero.arpa", "-inf", "-inf"))
        assert model.entries[("cab",)] == (NEG_INF, NEG_INF)
        assert ngram_score(model, (), "cab") == NEG_INF

    def test_a_file_that_is_not_utf8_is_a_format_error_naming_it(self, tmp_path):
        path = tmp_path / "latin1.arpa"
        path.write_bytes("\\data\\\nngram 1=1\n\n\\1-grams:\n-0.3 c\xe1b\n\n\\end\\\n"
                         .encode("latin-1"))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))} is not UTF-8 text: invalid"):
            load_arpa(str(path))

    def test_a_lexicon_that_is_not_utf8_is_a_format_error_naming_it(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes("ab\nc\xe1b\n".encode("latin-1"))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))} is not UTF-8 text: invalid"):
            load_lexicon(str(path))

    def test_unigram_only(self, tmp_path):
        path = tmp_path / "uni.arpa"
        write_arpa(path, {"a": (math.log10(0.6), None), "b": (math.log10(0.4), None)})
        model = load_arpa(str(path))
        assert model.order == 1
        assert ngram_score(model, (), "a") == pytest.approx(math.log(0.6), abs=1e-9)

    def test_explicit_bigram_wins_over_backoff(self, tmp_path):
        path = tmp_path / "bi.arpa"
        write_arpa(
            path,
            {"a": (math.log10(0.6), math.log10(0.5)), "b": (math.log10(0.4), None)},
            {("a", "b"): (math.log10(0.9), None)},
        )
        model = load_arpa(str(path))
        assert ngram_score(model, ("a",), "b") == pytest.approx(math.log(0.9), abs=1e-9)

    def test_unseen_context_backs_off_with_zero_weight(self, tmp_path):
        path = tmp_path / "bo.arpa"
        write_arpa(
            path,
            {"a": (math.log10(0.6), None), "b": (math.log10(0.4), None)},
        )
        model = load_arpa(str(path))
        # context b has no bigrams and no backoff weight: plain unigram
        assert ngram_score(model, ("b",), "a") == pytest.approx(math.log(0.6), abs=1e-9)

    def test_missing_data_header(self, tmp_path):
        path = tmp_path / "bad.arpa"
        path.write_text("\\1-grams:\n-0.3 a\n\\end\\\n")
        with pytest.raises(FormatError, match="line"):
            load_arpa(str(path))

    def test_count_mismatch_names_line(self, tmp_path):
        path = tmp_path / "cnt.arpa"
        path.write_text("\\data\\\nngram 1=3\n\n\\1-grams:\n-0.3 a\n-0.5 b\n\n\\end\\\n")
        with pytest.raises(FormatError, match="line"):
            load_arpa(str(path))

    def test_missing_end_marker(self, tmp_path):
        path = tmp_path / "noend.arpa"
        path.write_text("\\data\\\nngram 1=1\n\n\\1-grams:\n-0.3 a\n")
        with pytest.raises(FormatError):
            load_arpa(str(path))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_independent_backoff_oracle(self, tmp_path, seed):
        rng = np.random.default_rng(21000 + seed)
        path = tmp_path / "rand.arpa"
        order = 3 if seed % 2 else 2
        random_proper_arpa(rng, path, n_words=5, order=order)
        model = load_arpa(str(path))
        grams, _, ref_prob = reference_backoff(path)
        contexts = [()]
        contexts += [key for key in grams if len(key) in (1, 2)]
        vocab = sorted(model.vocab)
        for ctx in contexts:
            for w in vocab:
                expected = ref_prob(ctx, w)
                got = math.exp(ngram_score(model, ctx, w))
                assert got == pytest.approx(expected, abs=1e-9), (ctx, w)

    @pytest.mark.parametrize("seed", range(4))
    def test_backoff_distribution_sums_to_one(self, tmp_path, seed):
        rng = np.random.default_rng(22000 + seed)
        path = tmp_path / "proper.arpa"
        random_proper_arpa(rng, path, n_words=5, order=2)
        model = load_arpa(str(path))
        vocab = sorted(model.vocab)
        contexts = [()] + [(w,) for w in vocab if w != EOS_WORD]
        for ctx in contexts:
            total = sum(math.exp(ngram_score(model, ctx, w)) for w in vocab)
            assert total == pytest.approx(1.0, abs=1e-3), ctx

    def test_oov_maps_to_unk(self, tmp_path):
        path = tmp_path / "unk.arpa"
        write_arpa(path, {UNK: (math.log10(0.1), None), "a": (math.log10(0.9), None)})
        model = load_arpa(str(path))
        assert ngram_score(model, (), "zzz") == pytest.approx(math.log(0.1), abs=1e-9)

    def test_lexicon_loader(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("ab\n\ncd\n")
        assert load_lexicon(str(path)) == ["ab", "cd"]


class TestWordTrie:
    def test_node_mass_invariant(self, tmp_path, rng):
        path = tmp_path / "trie.arpa"
        words = random_proper_arpa(rng, path, n_words=6)
        model = load_arpa(str(path))
        trie = WordTrie(words, model)

        def check(node):
            parts = [child.mass for child in node.children.values()]
            if node.word is not None:
                parts.append(node.word_logp)
            if parts:
                expected = parts[0]
                for p in parts[1:]:
                    expected = np.logaddexp(expected, p)
                assert node.mass == pytest.approx(float(expected), abs=1e-9)
            for child in node.children.values():
                check(child)

        check(trie.root)

    @pytest.mark.parametrize("seed", range(8))
    def test_masses_equal_the_recursive_definition_bit_for_bit(self, tmp_path, seed):
        rng = np.random.default_rng(29000 + seed)
        path = tmp_path / "trie.arpa"
        words = random_proper_arpa(rng, path, n_words=int(rng.integers(1, 30)))
        trie = WordTrie(words, load_arpa(str(path)))

        def mass(node):  # children first, then the node's own word
            parts = [mass(child) for child in node.children.values()]
            if node.word is not None:
                parts.append(node.word_logp)
            want = logsumexp(parts) if parts else NEG_INF
            assert node.mass.hex() == want.hex()
            return want

        mass(trie.root)

    def test_an_empty_lexicon_word_is_skipped(self, tmp_path):
        model = load_arpa(five_word_arpa(tmp_path / "five.arpa"))
        trie = WordTrie(["", "ad"], model)
        assert trie.root.word is None
        assert trie.root.mass == WordTrie(["ad"], model).root.mass

    def test_a_word_longer_than_the_recursion_limit(self, tmp_path):
        long_word = "ab" * 2500
        path = tmp_path / "long.arpa"
        write_arpa(path, {
            UNK: (-2.0, None), BOS: (-2.0, None), EOS_WORD: (-2.0, None),
            long_word: (math.log10(0.25), None), "b": (math.log10(0.5), None),
        })
        model = load_arpa(str(path))
        vocab = char_vocab()
        trie = WordTrie([long_word, "b"], model)
        assert trie.root.mass == pytest.approx(math.log(0.75), abs=1e-12)
        node = trie.root.children["a"]
        assert node.mass == pytest.approx(math.log(0.25), abs=1e-12)
        scorer = LookAheadLMScorer(trie, model, vocab)
        total, _ = score_tokens(scorer, vocab, encode(vocab, [long_word]))
        direct = ngram_score(model, (BOS,), long_word) + ngram_score(
            model, (BOS, long_word), EOS_WORD)
        assert total == pytest.approx(direct, abs=1e-9)

    def test_single_word_lexicon_increments_are_zero(self, tmp_path):
        path = tmp_path / "one.arpa"
        write_arpa(path, {
            UNK: (-2.0, None), BOS: (-2.0, None), EOS_WORD: (-2.0, None),
            "ab": (math.log10(0.6), None),
        })
        model = load_arpa(str(path))
        vocab = char_vocab()
        trie = WordTrie(["ab"], model)
        scorer = LookAheadLMScorer(trie, model, vocab)
        _, steps = score_tokens(scorer, vocab, [vocab.tokens.index("a")])
        assert steps[0] == pytest.approx(0.0, abs=1e-12)

    def test_two_word_split_mass(self, tmp_path):
        path = tmp_path / "two.arpa"
        write_arpa(path, {
            UNK: (-9.0, None), BOS: (-9.0, None), EOS_WORD: (-9.0, None),
            "ab": (math.log10(0.5), None), "ac": (math.log10(0.5), None),
        })
        model = load_arpa(str(path))
        vocab = char_vocab()
        trie = WordTrie(["ab", "ac"], model)
        scorer = LookAheadLMScorer(trie, model, vocab)
        _, steps = score_tokens(scorer, vocab, [vocab.tokens.index(c) for c in "ab"])
        assert steps[1] == pytest.approx(math.log(0.5), abs=1e-9)


class TestLookAheadTelescoping:
    @pytest.mark.parametrize("seed", range(6))
    def test_word_total_equals_lm_logprob(self, tmp_path, seed):
        rng = np.random.default_rng(23000 + seed)
        path = tmp_path / "tel.arpa"
        words = random_proper_arpa(rng, path, n_words=5)
        model = load_arpa(str(path))
        vocab = char_vocab()
        trie = WordTrie(words, model)
        scorer = LookAheadLMScorer(trie, model, vocab)
        space = vocab.tokens.index("<space>")

        context = (BOS,)
        state = scorer.init_state(None)
        prefix = (vocab.sos_id,)
        for word in [words[int(i)] for i in rng.integers(0, len(words), size=3)]:
            increments = 0.0
            for ch in word:
                tok = vocab.tokens.index(ch)
                vec, scored = scorer.score(prefix, state, None)
                increments += float(vec[tok])
                state = scorer.select_state(scored, tok)
                prefix = prefix + (tok,)
            vec, scored = scorer.score(prefix, state, None)
            increments += float(vec[space])
            state = scorer.select_state(scored, space)
            prefix = prefix + (space,)
            expected = ngram_score(model, context, word)
            assert increments == pytest.approx(expected, abs=1e-9)
            context = context + (word,)

    def test_oov_word_nets_penalty(self, tmp_path):
        path = tmp_path / "oov.arpa"
        write_arpa(path, {
            UNK: (-1.0, None), BOS: (-9.0, None), EOS_WORD: (-1.0, None),
            "ab": (math.log10(0.8), None),
        })
        model = load_arpa(str(path))
        vocab = char_vocab()
        trie = WordTrie(["ab"], model)
        penalty = math.log(1e-4)
        scorer = LookAheadLMScorer(trie, model, vocab, oov_logp=penalty)
        # "ad" leaves the trie at d
        total, _ = score_tokens(scorer, vocab, encode(vocab, ["ad", "ab"]))
        direct = penalty + ngram_score(model, (BOS, UNK), "ab") + ngram_score(
            model, (BOS, UNK, "ab"), EOS_WORD
        )
        assert total == pytest.approx(direct, abs=1e-9)


class TestMultiLevel:
    def test_substitution_identity(self, tmp_path):
        path = tmp_path / "sub.arpa"
        write_arpa(path, {
            UNK: (-9.0, None), BOS: (-9.0, None), EOS_WORD: (-9.0, None),
            "a": (math.log10(0.6), None),
        })
        model = load_arpa(str(path))
        vocab = char_vocab()
        char_lm = TableScorer(0, vocab.size, {
            (): np.log(np.full(vocab.size, 1.0 / vocab.size))
        })
        state = MultiLevelState(
            fragment="a", context=(BOS,), fragment_score=math.log(0.5),
            char_state=char_lm.init_state(None),
        )
        space = vocab.tokens.index("<space>")
        scorer = MultiLevelLMScorer(char_lm, model, vocab)
        vec, scored = scorer.score((vocab.sos_id, 1), state, None)
        new_state = scorer.select_state(scored, space)
        assert float(vec[space]) == pytest.approx(math.log(0.6) - math.log(0.5), abs=1e-9)
        assert new_state.fragment == ""
        assert new_state.context == (BOS, "a")

    @pytest.mark.parametrize("seed", range(5))
    def test_sentence_total_telescopes_to_word_lm(self, tmp_path, seed):
        rng = np.random.default_rng(24000 + seed)
        path = tmp_path / "ml.arpa"
        words = random_proper_arpa(rng, path, n_words=5)
        model = load_arpa(str(path))
        vocab = char_vocab()
        char_lm = random_table_scorer(rng, 1, vocab.size)
        scorer = MultiLevelLMScorer(char_lm, model, vocab)
        sentence = [words[int(i)] for i in rng.integers(0, len(words), size=3)]
        total, _ = score_tokens(scorer, vocab, encode(vocab, sentence))
        assert total == pytest.approx(sentence_logprob(model, sentence), abs=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_lookahead_on_in_lexicon_sentences(self, tmp_path, seed):
        rng = np.random.default_rng(25000 + seed)
        path = tmp_path / "agree.arpa"
        words = random_proper_arpa(rng, path, n_words=5)
        model = load_arpa(str(path))
        vocab = char_vocab()
        char_lm = random_table_scorer(rng, 1, vocab.size)
        ml = MultiLevelLMScorer(char_lm, model, vocab)
        la = LookAheadLMScorer(WordTrie(words, model), model, vocab)
        sentence = [words[int(i)] for i in rng.integers(0, len(words), size=4)]
        tokens = encode(vocab, sentence)
        ml_total, ml_steps = score_tokens(ml, vocab, tokens)
        la_total, la_steps = score_tokens(la, vocab, tokens)
        assert ml_total == pytest.approx(la_total, abs=1e-6)
        # per-step scores are allowed to differ; totals must not
        if len(sentence) > 1:
            assert ml_steps != la_steps

    def test_oov_fragment_scores_char_lm_plus_penalty(self, tmp_path, rng):
        path = tmp_path / "mloov.arpa"
        write_arpa(path, {
            UNK: (-1.0, None), BOS: (-9.0, None), EOS_WORD: (-1.0, None),
            "ab": (math.log10(0.8), None),
        })
        model = load_arpa(str(path))
        vocab = char_vocab()
        char_lm = random_table_scorer(rng, 0, vocab.size)
        penalty = math.log(1e-3)
        scorer = MultiLevelLMScorer(char_lm, model, vocab, oov_logp=penalty)
        tokens = encode(vocab, ["ad"])  # OOV word then eos
        total, steps = score_tokens(scorer, vocab, tokens)
        char_row, _ = char_lm.score((vocab.sos_id,), char_lm.init_state(None), None)
        a_id, d_id = vocab.tokens.index("a"), vocab.tokens.index("d")
        char_part = 0.0  # chars scored by the char LM (context-dependent rows)
        state = char_lm.init_state(None)
        for tok in (a_id, d_id):
            vec, scored = char_lm.score((vocab.sos_id,), state, None)
            char_part += float(vec[tok])
            state = char_lm.select_state(scored, tok)
        expected = char_part + penalty + ngram_score(model, (BOS, UNK), EOS_WORD)
        assert total == pytest.approx(expected, abs=1e-9)


class TestEmptyWord:
    """A delimiter that closes no word (the first label, or one right after
    another delimiter) pays the OOV penalty and adds <unk> to the context;
    eos there closes nothing and scores ln P(</s> | context)."""

    @staticmethod
    def scorer(tmp_path, kind):
        model = load_arpa(five_word_arpa(tmp_path / "lm.arpa"))
        vocab = char_vocab()
        if kind == "multilevel":
            char_lm = random_table_scorer(np.random.default_rng(5), 1, vocab.size)
            return MultiLevelLMScorer(char_lm, model, vocab), vocab
        return LookAheadLMScorer(WordTrie(["cab", "ad"], model), model, vocab), vocab

    @pytest.mark.parametrize("kind", ["multilevel", "lookahead"])
    def test_runs_of_delimiters_pay_the_penalty_per_empty_word(self, tmp_path, kind):
        scorer, vocab = self.scorer(tmp_path, kind)
        model, space = scorer.word_lm, scorer.delimiter_id
        vec, _ = scorer.score((vocab.sos_id,), scorer.init_state(None), None)
        assert vec[space] == scorer.oov_logp
        assert vec[vocab.eos_id] == ngram_score(model, (BOS,), EOS_WORD)
        # <space> ad <space> <space> cab <eos>: per-word totals telescope
        tokens = [space, 1, 4, space, space, 3, 1, 2, vocab.eos_id]
        total, steps = score_tokens(scorer, vocab, tokens)
        assert steps[0] == steps[4] == scorer.oov_logp
        words = [UNK, "ad", UNK, "cab", EOS_WORD]
        expected = 2 * scorer.oov_logp + sum(
            ngram_score(model, (BOS,) + tuple(words[:k]), w)
            for k, w in enumerate(words) if w != UNK)
        assert total == pytest.approx(expected, abs=1e-9)

    def test_a_delimiter_after_a_dead_word_is_free(self, tmp_path):
        scorer, vocab = self.scorer(tmp_path, "lookahead")
        # "d" leaves the tree at the root: the penalty is paid there
        total, steps = score_tokens(scorer, vocab, [4, scorer.delimiter_id, vocab.eos_id])
        assert steps[0] == scorer.oov_logp and steps[1] == 0.0
        assert total == pytest.approx(
            scorer.oov_logp + ngram_score(scorer.word_lm, (BOS, UNK), EOS_WORD), abs=1e-12)

    def test_a_beam_of_delimiters_is_no_longer_free(self, tmp_path):
        # on this instance a beam of 2 returned twelve <space> at score 0.0
        from seqdecode import BeamConfig, EmissionMatrix, batch_beam_search

        scorer, vocab = self.scorer(tmp_path, "lookahead")
        em = EmissionMatrix.from_logits(np.random.default_rng(1).normal(size=(12, vocab.size)))
        nbest = batch_beam_search(em, vocab, {"la": scorer},
                                  BeamConfig(weights={"la": 1.0}, beam_size=2))
        for entry in nbest.entries:
            assert entry.score < 0.0
            labels = list(entry.yseq)
            assert labels[0] != scorer.delimiter_id
            assert [scorer.delimiter_id] * 2 not in [labels[k:k + 2] for k in range(len(labels))]


class TestFusionInBeamSearch:
    @pytest.mark.parametrize("seed", range(3))
    def test_word_scorers_run_in_both_search_variants(self, tmp_path, seed):
        from seqdecode import (
            BeamConfig, CTCPrefixScorer, EmissionMatrix, batch_beam_search, beam_search,
        )

        rng = np.random.default_rng(27000 + seed)
        path = tmp_path / "fuse.arpa"
        words = random_proper_arpa(rng, path, n_words=4)
        model = load_arpa(str(path))
        vocab = char_vocab()
        em = EmissionMatrix.from_logits(rng.normal(size=(6, vocab.size)))
        char_lm = random_table_scorer(rng, 1, vocab.size)
        fulls = {
            "att": random_table_scorer(rng, 1, vocab.size),
            "ml": MultiLevelLMScorer(char_lm, model, vocab),
            "la": LookAheadLMScorer(WordTrie(words, model), model, vocab),
        }
        parts = {"ctc": CTCPrefixScorer(vocab.blank_id, vocab.eos_id)}
        weights = {"att": 0.6, "ml": 0.25, "la": 0.25, "ctc": 0.3}
        cfg = BeamConfig(weights=weights, beam_size=3, max_steps=4)
        seq = beam_search(em, vocab, fulls, cfg, parts)
        bat = batch_beam_search(em, vocab, fulls, cfg, parts)
        assert [e.yseq for e in seq.entries] == [e.yseq for e in bat.entries]
        for a, b in zip(seq.entries, bat.entries):
            assert a.score == b.score or abs(a.score - b.score) <= 1e-9
            assert validate_hypothesis(a, weights)


# --- the batch kernels against per-hypothesis reference loops ---------------

def reference_multilevel_score(scorer, prefix, state, emission):
    """``MultiLevelLMScorer.score`` as one hypothesis at a time, calling
    ``ngram_score`` directly. A delimiter with no fragment to close (an
    empty word) pays the OOV penalty; eos there closes nothing."""
    char_vec, char_scored = scorer.char_lm.score(prefix, state.char_state, emission)
    vec = np.array(char_vec, dtype=np.float64, copy=True)
    if not state.fragment:
        vec[scorer.delimiter_id] = scorer.oov_logp
        vec[scorer.vocab.eos_id] = ngram_score(scorer.word_lm, state.context, EOS_WORD)
        return vec, (state, char_scored, char_vec)
    if state.fragment in scorer.word_lm.vocab:
        close_score = ngram_score(scorer.word_lm, state.context, state.fragment) - (
            state.fragment_score)
        closed_word = state.fragment
    else:
        close_score, closed_word = scorer.oov_logp, UNK
    vec[scorer.delimiter_id] = close_score
    vec[scorer.vocab.eos_id] = close_score + ngram_score(
        scorer.word_lm, state.context + (closed_word,), EOS_WORD)
    return vec, (state, char_scored, char_vec)


def reference_lookahead_score(scorer, prefix, state, emission):
    """``LookAheadLMScorer.score`` as one hypothesis at a time: one numpy
    store per letter, ``ngram_score`` called directly. A delimiter at the
    root (an empty word) pays the OOV penalty; eos there closes nothing."""
    vec = np.full(scorer.vocab.size, -np.inf)
    node = state.node
    for tok, ch in scorer.letters:
        if state.dead:
            vec[tok] = 0.0
            continue
        child = node.children.get(ch)
        if child is None:
            vec[tok] = scorer.oov_logp - state.accumulated
        else:
            vec[tok] = child.mass - node.mass if node.mass != -np.inf else -np.inf
    if state.dead:
        close_score, closed_word = 0.0, UNK
    elif node is scorer.trie.root:
        vec[scorer.delimiter_id] = scorer.oov_logp
        vec[scorer.vocab.eos_id] = ngram_score(scorer.word_lm, state.context, EOS_WORD)
        return vec, state
    elif node.word is not None:
        close_score = ngram_score(scorer.word_lm, state.context, node.word) - state.accumulated
        closed_word = node.word
    else:
        close_score, closed_word = scorer.oov_logp - state.accumulated, UNK
    vec[scorer.delimiter_id] = close_score
    vec[scorer.vocab.eos_id] = close_score + ngram_score(
        scorer.word_lm, state.context + (closed_word,), EOS_WORD)
    return vec, state


def reference_multilevel_select_state(scorer, scored_state, token):
    """``MultiLevelLMScorer.select_state`` as one cell: the char LM's own
    ``select_state``, then the fragment closed or extended. A delimiter with
    no fragment to close adds <unk> to the context; eos adds nothing."""
    state, char_scored, char_vec = scored_state
    char_next = scorer.char_lm.select_state(char_scored, token)
    if token in (scorer.delimiter_id, scorer.vocab.eos_id):
        if not state.fragment:
            context = state.context + ((UNK,) if token == scorer.delimiter_id else ())
        else:
            in_vocab = state.fragment in scorer.word_lm.vocab
            context = state.context + ((state.fragment if in_vocab else UNK),)
        return MultiLevelState("", context, 0.0, char_next)
    return MultiLevelState(state.fragment + scorer.vocab.tokens[token], state.context,
                           state.fragment_score + float(char_vec[token]), char_next)


def reference_lookahead_select_state(scorer, state, token):
    """``LookAheadLMScorer.select_state`` as one cell. A delimiter at the
    root adds <unk> to the context; eos there adds nothing."""
    if token in (scorer.delimiter_id, scorer.vocab.eos_id):
        if state.dead or (state.node is not scorer.trie.root and state.node.word is None):
            context = state.context + (UNK,)
        elif state.node is scorer.trie.root:
            context = state.context + ((UNK,) if token == scorer.delimiter_id else ())
        else:
            context = state.context + (state.node.word,)
        return LookAheadState(scorer.trie.root, context, 0.0, False)
    if state.dead:
        return state
    child = state.node.children.get(scorer.vocab.tokens[token])
    if child is None:
        return replace(state, dead=True)
    return LookAheadState(child, state.context,
                          state.accumulated + (child.mass - state.node.mass), False)


def bits_equal(got, want):
    """Equal bit for bit, except that any two nans are equal."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    same = got.view(np.int64) == want.view(np.int64)
    return got.shape == want.shape and bool((same | (np.isnan(got) & np.isnan(want))).all())


def random_walk_states(rng, scorer, vocab, steps, lexicon):
    """(prefix, state) pairs along random walks: mostly letters that spell
    a lexicon word, else any label (leaving the tree, or an OOV fragment),
    the delimiter or eos (back to the root with a longer context)."""
    labels = list(vocab.label_ids()) + [vocab.eos_id]
    pairs = []
    prefix, state, word, spelt = (vocab.sos_id,), scorer.init_state(None), "", 0
    for _ in range(steps):
        pairs.append((prefix, state))
        _, scored = scorer.score(prefix, state, None)
        if rng.random() < 0.7 and spelt < len(word):
            token = vocab.tokens.index(word[spelt])
        elif rng.random() < 0.5:
            token = scorer.delimiter_id
        else:
            token = int(rng.choice(labels))
        spelt += 1
        if token in (scorer.delimiter_id, vocab.eos_id):
            word, spelt = lexicon[int(rng.integers(len(lexicon)))], 0
        state = scorer.select_state(scored, token)
        prefix = prefix + (token,)
    return pairs


def fusion_case(tmp_path, rng, kind, case):
    """(scorer, vocab, lexicon) for one word-fusion scorer. ``unkless``: an
    LM without <unk> that misses a lexicon word, so its trie nodes have
    mass -inf; ``delimiter``: a letter stands in for the delimiter."""
    path = tmp_path / f"{kind}-{case}.arpa"
    vocab = char_vocab()
    if case == "unkless":
        write_arpa(path, {BOS: (-9.0, None), EOS_WORD: (-0.5, None),
                          "ab": (math.log10(0.3), None), "b": (math.log10(0.3), None)})
        lexicon = ["ab", "b", "cd", "ca"]
    else:
        lexicon = random_proper_arpa(rng, path, n_words=6)
    model = load_arpa(str(path))
    delimiter = vocab.tokens.index("d") if case == "delimiter" else None
    if kind == "multilevel":
        char_lm = random_table_scorer(rng, 1, vocab.size)
        scorer = MultiLevelLMScorer(char_lm, model, vocab, delimiter_id=delimiter)
    else:
        scorer = LookAheadLMScorer(WordTrie(lexicon, model), model, vocab,
                                   delimiter_id=delimiter)
    return scorer, vocab, lexicon


FUSION_CASES = ["random", "unkless", "delimiter"]


class TestBatchKernels:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("case", FUSION_CASES)
    @pytest.mark.parametrize("kind", ["multilevel", "lookahead"])
    def test_batch_score_equals_the_reference_loop(self, tmp_path, kind, case, seed):
        rng = np.random.default_rng(31000 + 7 * seed + len(case))
        scorer, vocab, lexicon = fusion_case(tmp_path, rng, kind, case)
        reference = (reference_multilevel_score if kind == "multilevel"
                     else reference_lookahead_score)
        pairs = random_walk_states(rng, scorer, vocab, 60, lexicon)
        rng.shuffle(pairs)
        prefixes, states = zip(*pairs)
        mat, scored = scorer.batch_score(list(prefixes), list(states), None)
        want = [reference(scorer, p, s, None) for p, s in pairs]
        assert bits_equal(mat, np.stack([vec for vec, _ in want]))
        for got, (_, ref) in zip(scored, want):
            if kind == "lookahead":
                assert got is ref
            else:
                assert got[0] is ref[0] and got[1] == ref[1] and bits_equal(got[2], ref[2])
        for k, (p, s) in enumerate(pairs[:8]):  # score is the kernel at B=1
            vec, _ = scorer.score(p, s, None)
            assert bits_equal(vec, mat[k])
        if kind == "lookahead":
            assert any(s.dead for s in states)
            assert any(s.node is scorer.trie.root and len(s.context) > 1 for s in states)
            if case == "unkless":
                assert any(not s.dead and s.node.mass == -np.inf for s in states)
        else:
            assert any(s.fragment and s.fragment not in scorer.word_lm.vocab for s in states)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("case", FUSION_CASES)
    @pytest.mark.parametrize("kind", ["multilevel", "lookahead"])
    def test_select_states_equals_the_reference_loop(self, tmp_path, kind, case, seed):
        # random kept cells of one batch, each row's delimiter and eos
        # cells among them, state for state as the one-cell reference
        # gives them; select_states is the base loop over select_state
        rng = np.random.default_rng(32000 + 7 * seed + len(case))
        scorer, vocab, lexicon = fusion_case(tmp_path, rng, kind, case)
        reference = (reference_multilevel_select_state if kind == "multilevel"
                     else reference_lookahead_select_state)
        prefixes, states = map(list, zip(*random_walk_states(rng, scorer, vocab, 40, lexicon)))
        _, scored = scorer.batch_score(prefixes, states, None)
        ends = [scorer.delimiter_id, vocab.eos_id]
        rows = np.concatenate((rng.integers(len(states), size=80), np.repeat(np.arange(8), 2)))
        tokens = np.concatenate((rng.choice(list(vocab.label_ids()) + ends, size=80), ends * 8))
        got = scorer.select_states(scored, rows, tokens)
        cells = list(zip(rows.tolist(), tokens.tolist()))
        want = [reference(scorer, scored[r], t) for r, t in cells]
        single = [scorer.select_state(scored[r], t) for r, t in cells]
        assert len(got) == len(want) == len(single)
        score = "accumulated" if kind == "lookahead" else "fragment_score"
        for a, b, c in zip(got, want, single):  # the score bit for bit, nan included
            assert getattr(a, score).hex() == getattr(b, score).hex() == getattr(c, score).hex()
            assert replace(a, **{score: 0.0}) == replace(b, **{score: 0.0}) == replace(
                c, **{score: 0.0})
        kept = [states[r] for r in rows.tolist()]
        if kind == "lookahead":
            assert any(s.dead for s in kept) and any(s.dead for s in got)
        else:
            assert any(s.fragment and s.fragment not in scorer.word_lm.vocab for s in kept)

    def test_node_rows_are_built_once_per_node(self, tmp_path, rng):
        scorer, vocab, lexicon = fusion_case(tmp_path, rng, "lookahead", "random")
        pairs = random_walk_states(rng, scorer, vocab, 40, lexicon)
        nodes = {id(s.node) for _, s in pairs if not s.dead}
        assert len(scorer._node_rows) == len(nodes)
        cached = dict(scorer._node_rows)
        scorer.batch_score(*map(list, zip(*pairs)), None)
        assert all(scorer._node_rows[n] is row for n, row in cached.items())


class TestNGramMemo:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_memo_equals_direct_calls(self, tmp_path, monkeypatch, order, seed):
        rng = np.random.default_rng(32000 + 10 * order + seed)
        path = tmp_path / "memo.arpa"
        words = random_proper_arpa(rng, path, n_words=5, order=order)
        model = load_arpa(str(path))
        assert model.order == order
        scorer = LookAheadLMScorer(WordTrie(words, model), model, char_vocab())
        misses = []
        direct = ngram_score
        monkeypatch.setattr(lm_mod, "ngram_score",
                            lambda *args: misses.append(args[1:]) or direct(*args))
        pool = words + [BOS, EOS_WORD, UNK, "zz", "abcd"]  # the last two are OOV
        keys = set()
        for _ in range(300):
            context = tuple(str(w) for w in rng.choice(pool, size=int(rng.integers(0, 5))))
            word = str(rng.choice(pool))
            assert bits_equal(scorer._ngram(context, word), direct(model, context, word))
            keys.add((context[len(context) - (order - 1):] if order > 1 else (), word))
        # one call through the module global per (context tail, word) pair
        assert sorted(misses) == sorted(keys)
