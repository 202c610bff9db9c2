"""Word-level n-gram language modelling and the two word-fusion scorers for
letter-emitting searches: the multi-level scorer (char-level scores replaced
by word-level probability at boundaries) and the look-ahead scorer (word mass
distributed per character over a lexical prefix tree).

ARPA files store log10 probabilities; everything is converted to natural log
at load time so a single convention holds package-wide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import NEG_INF, ConfigError, EmissionMatrix, FormatError, Vocabulary, logsumexp
from .scorers import FullScorer

LN10 = math.log(10.0)

UNK = "<unk>"
BOS = "<s>"
EOS_WORD = "</s>"

DEFAULT_OOV_LOGP = math.log(1e-5)
DEFAULT_DELIMITER = "<space>"


@dataclass(frozen=True)
class NGramModel:
    """Backoff n-gram model over word strings.

    entries maps each stored n-gram (context + word) to its natural-log
    probability and backoff weight (0.0 when the file omits one).
    """

    order: int
    entries: Dict[Tuple[str, ...], Tuple[float, float]]
    vocab: frozenset


def load_arpa(path: str) -> NGramModel:
    """Parse a text ARPA file; log10 values become natural logs."""
    with open(path, "r", encoding="utf-8") as f:
        lines = f.readlines()

    counts: Dict[int, int] = {}
    entries: Dict[Tuple[str, ...], Tuple[float, float]] = {}
    seen: Dict[int, int] = {}
    section_line: Dict[int, int] = {}
    state = "preamble"
    current_n = 0

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if state == "preamble":
            if line == "\\data\\":
                state = "counts"
            elif line.startswith("\\") and line.endswith("-grams:"):
                raise FormatError(f"line {lineno}: n-gram section before \\data\\ header")
            continue
        if line == "\\end\\":
            state = "done"
            break
        if state == "counts":
            if not line:
                continue
            if line.startswith("ngram "):
                try:
                    spec_part = line[len("ngram "):]
                    n_str, count_str = spec_part.split("=")
                    counts[int(n_str)] = int(count_str)
                except ValueError:
                    raise FormatError(f"line {lineno}: malformed ngram count {line!r}") from None
                continue
            if line.startswith("\\") and line.endswith("-grams:"):
                state = "grams"
            else:
                raise FormatError(f"line {lineno}: unexpected content in \\data\\ section")
        if state == "grams":
            if not line:
                continue
            if line.startswith("\\") and line.endswith("-grams:"):
                try:
                    current_n = int(line[1:].split("-")[0])
                except ValueError:
                    raise FormatError(f"line {lineno}: malformed section header {line!r}") from None
                if current_n not in counts:
                    raise FormatError(
                        f"line {lineno}: section for order {current_n} not declared in \\data\\"
                    )
                seen.setdefault(current_n, 0)
                section_line[current_n] = lineno
                continue
            parts = line.split()
            if len(parts) < current_n + 1:
                raise FormatError(f"line {lineno}: truncated {current_n}-gram entry")
            try:
                logp = float(parts[0]) * LN10
            except ValueError:
                raise FormatError(f"line {lineno}: bad log-probability {parts[0]!r}") from None
            words = tuple(parts[1 : current_n + 1])
            backoff = 0.0
            if len(parts) > current_n + 1:
                try:
                    backoff = float(parts[current_n + 1]) * LN10
                except ValueError:
                    raise FormatError(f"line {lineno}: bad backoff weight") from None
            entries[words] = (logp, backoff)
            seen[current_n] = seen.get(current_n, 0) + 1

    if state == "preamble":
        raise FormatError("line 1: missing \\data\\ header")
    if state != "done":
        raise FormatError(f"line {len(lines)}: missing \\end\\ marker")
    for n, declared in counts.items():
        if seen.get(n, 0) != declared:
            where = section_line.get(n, 1)
            raise FormatError(
                f"line {where}: \\data\\ declares {declared} {n}-grams "
                f"but the section has {seen.get(n, 0)}"
            )
    if not counts:
        raise FormatError("\\data\\ section declares no n-gram orders")

    order = max(counts)
    vocab = frozenset(k[0] for k in entries if len(k) == 1)
    return NGramModel(order=order, entries=entries, vocab=vocab)


def ngram_score(model: NGramModel, context: Sequence[str], word: str) -> float:
    """Backoff evaluation: the longest stored context wins; otherwise backoff
    weights accumulate down to the unigram. OOV words map to <unk>."""
    w = word if word in model.vocab else UNK
    if w not in model.vocab:
        return NEG_INF
    ctx = tuple(x if x in model.vocab else UNK for x in context)
    if model.order > 1:
        ctx = ctx[-(model.order - 1):]
    else:
        ctx = ()
    backoff_total = 0.0
    while True:
        key = ctx + (w,)
        if key in model.entries:
            return model.entries[key][0] + backoff_total
        if not ctx:
            return NEG_INF  # unreachable: unigram for every vocab word
        entry = model.entries.get(ctx)
        if entry is not None:
            backoff_total += entry[1]
        ctx = ctx[1:]


def sentence_logprob(model: NGramModel, words: Sequence[str]) -> float:
    """ln P(w1..wn </s> | <s>) under the backoff model."""
    ctx: Tuple[str, ...] = (BOS,)
    total = 0.0
    for w in words:
        total += ngram_score(model, ctx, w)
        ctx = ctx + (w if w in model.vocab else UNK,)
    total += ngram_score(model, ctx, EOS_WORD)
    return total


def load_lexicon(path: str) -> List[str]:
    """One UTF-8 word per line; blank lines ignored."""
    with open(path, "r", encoding="utf-8") as f:
        words = [line.strip() for line in f]
    return [w for w in words if w]


class _TrieNode:
    __slots__ = ("children", "word", "word_logp", "mass")

    def __init__(self) -> None:
        self.children: Dict[str, _TrieNode] = {}
        self.word: Optional[str] = None
        self.word_logp: float = NEG_INF
        self.mass: float = NEG_INF


class WordTrie:
    """Prefix tree over lexicon characters.

    Each node stores the log-sum of unigram word probabilities of every word
    at or below it, so per-character score increments are mass ratios between
    adjacent nodes.
    """

    def __init__(self, words: Sequence[str], word_lm: NGramModel):
        self.root = _TrieNode()
        for word in words:
            if not word:
                continue
            node = self.root
            for ch in word:
                node = node.children.setdefault(ch, _TrieNode())
            node.word = word
            node.word_logp = ngram_score(word_lm, (), word)
        self._compute_mass(self.root)

    def _compute_mass(self, node: _TrieNode) -> float:
        parts = [self._compute_mass(child) for child in node.children.values()]
        if node.word is not None:
            parts.append(node.word_logp)
        node.mass = logsumexp(parts) if parts else NEG_INF
        return node.mass


@dataclass(frozen=True)
class MultiLevelState:
    """Open word fragment, word-LM context, the char-LM score accumulated for
    the fragment, and the wrapped char scorer's own threading."""

    fragment: str
    context: Tuple[str, ...]
    fragment_score: float
    char_state: object


class MultiLevelLMScorer(FullScorer):
    """Character-level scoring with word-level substitution at boundaries.

    Non-delimiter tokens score under the char LM and extend the fragment. The
    delimiter (or eos) replaces the fragment's accumulated char-LM estimate
    with the word LM's probability, so per-word totals telescope to
    ln P_word(word | context) exactly. OOV fragments keep the char-LM
    estimate plus a fixed log-penalty.
    """

    def __init__(
        self,
        char_lm: FullScorer,
        word_lm: NGramModel,
        vocab: Vocabulary,
        delimiter_id: Optional[int] = None,
        oov_logp: float = DEFAULT_OOV_LOGP,
    ):
        self.char_lm = char_lm
        self.word_lm = word_lm
        self.vocab = vocab
        self.delimiter_id = _resolve_delimiter(vocab, delimiter_id)
        self.oov_logp = oov_logp

    def init_state(self, emission: Optional[EmissionMatrix]) -> MultiLevelState:
        return MultiLevelState(
            fragment="",
            context=(BOS,),
            fragment_score=0.0,
            char_state=self.char_lm.init_state(emission),
        )

    def _close_fragment(self, state: MultiLevelState) -> Tuple[float, str]:
        """Score for ending the open fragment; returns (score, context word)."""
        if not state.fragment:
            return 0.0, ""
        if state.fragment in self.word_lm.vocab:
            word_logp = ngram_score(self.word_lm, state.context, state.fragment)
            return word_logp - state.fragment_score, state.fragment
        return self.oov_logp, UNK

    def score(self, prefix, state: MultiLevelState, emission):
        char_vec, char_scored = self.char_lm.score(prefix, state.char_state, emission)
        vec = np.array(char_vec, dtype=np.float64, copy=True)
        close_score, closed_word = self._close_fragment(state)
        vec[self.delimiter_id] = close_score
        eos_ctx = state.context + ((closed_word,) if closed_word else ())
        vec[self.vocab.eos_id] = close_score + ngram_score(self.word_lm, eos_ctx, EOS_WORD)
        return vec, (state, char_scored, char_vec)

    def select_state(self, scored_state, token: int) -> MultiLevelState:
        state, char_scored, char_vec = scored_state
        char_next = self.char_lm.select_state(char_scored, token)
        if token == self.delimiter_id or token == self.vocab.eos_id:
            _, closed_word = self._close_fragment(state)
            context = state.context + ((closed_word,) if closed_word else ())
            return MultiLevelState("", context, 0.0, char_next)
        return MultiLevelState(
            fragment=state.fragment + self.vocab.tokens[token],
            context=state.context,
            fragment_score=state.fragment_score + float(char_vec[token]),
            char_state=char_next,
        )


@dataclass(frozen=True)
class LookAheadState:
    """Position in the prefix tree, word context, the look-ahead mass already
    granted to the open word, and whether the word has left the lexicon."""

    node: object  # _TrieNode; opaque to callers
    context: Tuple[str, ...]
    accumulated: float
    dead: bool


class LookAheadLMScorer(FullScorer):
    """Word-LM look-ahead over a lexical prefix tree.

    Each in-lexicon character scores the unigram mass ratio of the child node
    to the current node; the delimiter closes the telescope so the word total
    equals ln P_word(word | context) under the full-context model. Characters
    leaving the tree take a fixed OOV penalty (net of the mass already
    granted) and park the state until the next delimiter.
    """

    def __init__(
        self,
        trie: WordTrie,
        word_lm: NGramModel,
        vocab: Vocabulary,
        delimiter_id: Optional[int] = None,
        oov_logp: float = DEFAULT_OOV_LOGP,
    ):
        self.trie = trie
        self.word_lm = word_lm
        self.vocab = vocab
        self.delimiter_id = _resolve_delimiter(vocab, delimiter_id)
        self.oov_logp = oov_logp
        # every label with its character; score sets the delimiter's entry last
        self.letters = [(tok, vocab.tokens[tok]) for tok in vocab.label_ids()]

    def init_state(self, emission: Optional[EmissionMatrix]) -> LookAheadState:
        return LookAheadState(node=self.trie.root, context=(BOS,), accumulated=0.0, dead=False)

    def _close(self, state: LookAheadState) -> Tuple[float, str]:
        if state.dead:
            return 0.0, UNK
        node = state.node
        if node is self.trie.root:
            return 0.0, ""
        if node.word is not None:
            word_logp = ngram_score(self.word_lm, state.context, node.word)
            return word_logp - state.accumulated, node.word
        # fragment traverses the tree but is no word: net the word to the penalty
        return self.oov_logp - state.accumulated, UNK

    def score(self, prefix, state: LookAheadState, emission):
        vec = np.full(self.vocab.size, NEG_INF)
        node = state.node
        for tok, ch in self.letters:
            if state.dead:
                vec[tok] = 0.0
                continue
            child = node.children.get(ch)
            if child is None:
                vec[tok] = self.oov_logp - state.accumulated
            else:
                vec[tok] = child.mass - node.mass if node.mass != NEG_INF else NEG_INF
        close_score, closed_word = self._close(state)
        vec[self.delimiter_id] = close_score
        eos_ctx = state.context + ((closed_word,) if closed_word else ())
        vec[self.vocab.eos_id] = close_score + ngram_score(self.word_lm, eos_ctx, EOS_WORD)
        return vec, state

    def select_state(self, scored_state: LookAheadState, token: int) -> LookAheadState:
        state = scored_state
        if token == self.delimiter_id or token == self.vocab.eos_id:
            _, closed_word = self._close(state)
            context = state.context + ((closed_word,) if closed_word else ())
            return LookAheadState(self.trie.root, context, 0.0, False)
        if state.dead:
            return state
        child = state.node.children.get(self.vocab.tokens[token])
        if child is None:
            return replace(state, dead=True)
        return LookAheadState(
            node=child,
            context=state.context,
            accumulated=state.accumulated + (child.mass - state.node.mass),
            dead=False,
        )


def _resolve_delimiter(vocab: Vocabulary, delimiter_id: Optional[int]) -> int:
    if delimiter_id is not None:
        if not 0 <= delimiter_id < vocab.size:
            raise ConfigError(f"delimiter id {delimiter_id} outside vocabulary")
        return delimiter_id
    if DEFAULT_DELIMITER in vocab.tokens:
        return vocab.tokens.index(DEFAULT_DELIMITER)
    raise ConfigError(
        f"no delimiter: pass delimiter_id or include {DEFAULT_DELIMITER!r} in the vocabulary"
    )
