"""Word-level n-gram language modelling and the two word-fusion scorers for
letter-emitting searches: the multi-level scorer (char-level scores replaced
by word-level probability at boundaries) and the look-ahead scorer (word mass
distributed per character over a lexical prefix tree).

Each scorer has one scoring kernel, ``batch_score``, which rates the whole
beam at once (``score`` is that kernel at B=1): a (B, V) matrix from cached
per-node letter rows or one char-LM call, then each state's delimiter and
eos columns. Both read the word LM through a memo of ``ngram_score``. The
base ``select_states`` loops over each scorer's ``select_state``: a one-pass
batch of successors saved nothing a whole decode showed.

ARPA files store log10 probabilities; everything is converted to natural log
at load time so a single convention holds package-wide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _text_lines(path: str) -> List[str]:
    """The lines of a UTF-8 text file; other bytes are a FormatError naming it."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return f.readlines()
        except UnicodeDecodeError as e:
            raise FormatError(f"{path} is not UTF-8 text: {e.reason} at byte {e.start}") from None


def _ln_value(text: str, lineno: int, what: str) -> float:
    """An ARPA log10 value as a natural log; nan and +inf, also a value
    that overflows to it, are a FormatError."""
    try:
        value = float(text) * LN10
    except ValueError:
        raise FormatError(f"line {lineno}: bad {what} {text!r}") from None
    if not value < math.inf:  # catches nan as well
        raise FormatError(f"line {lineno}: {what} {text!r} is nan or +inf")
    return value


def load_arpa(path: str) -> NGramModel:
    """Parse a UTF-8 text ARPA file; log10 values become natural logs. A
    log-probability or backoff of -inf is accepted as a probability of 0; a
    nan or +inf one, or a log-probability above 0, is a FormatError naming
    its line."""
    lines = _text_lines(path)

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
                section_line[current_n] = lineno
                continue
            parts = line.split()
            if len(parts) < current_n + 1:
                raise FormatError(f"line {lineno}: truncated {current_n}-gram entry")
            logp = _ln_value(parts[0], lineno, "log-probability")
            if logp > 0.0:
                raise FormatError(f"line {lineno}: log-probability {parts[0]!r} is above 0")
            words = tuple(parts[1 : current_n + 1])
            backoff = 0.0
            if len(parts) > current_n + 1:
                backoff = _ln_value(parts[current_n + 1], lineno, "backoff weight")
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
    words = [line.strip() for line in _text_lines(path)]
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
        # children before their parent, without recursion: a lexicon word
        # may be longer than Python's recursion limit
        order = [self.root]
        for node in order:
            order.extend(node.children.values())
        for node in reversed(order):
            parts = [child.mass for child in node.children.values()]
            if node.word is not None:
                parts.append(node.word_logp)
            node.mass = logsumexp(parts) if parts else NEG_INF


class _WordFusionScorer(FullScorer):
    """What both word-fusion scorers share: the delimiter, the OOV penalty,
    the memoised word LM and the closing columns. ``score`` is the batch
    kernel at B=1; the base ``select_states`` loops over ``select_state``.

    The memo keys ``ngram_score`` by the word and the context cut to its
    last order - 1 words, all that ``ngram_score`` reads (its <unk> mapping
    works word by word). It holds one entry per (context tail, word) pair
    met; a miss calls ``ngram_score`` through the module global.
    """

    def __init__(self, word_lm: NGramModel, vocab: Vocabulary,
                 delimiter_id: Optional[int], oov_logp: float):
        self.word_lm = word_lm
        self.vocab = vocab
        self.delimiter_id = _resolve_delimiter(vocab, delimiter_id)
        self.oov_logp = oov_logp
        self._tail = word_lm.order - 1
        self._memo: Dict[Tuple[Tuple[str, ...], str], float] = {}

    def _ngram(self, context: Tuple[str, ...], word: str) -> float:
        key = (context[-self._tail:] if self._tail else (), word)
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = ngram_score(self.word_lm, *key)
        return value

    def score(self, prefix, state, emission):
        mat, scored = self.batch_score([prefix], [state], emission)
        return mat[0], scored[0]

    def _fill_closings(self, mat: np.ndarray,
                       closings: Sequence[Tuple[float, Tuple[str, ...], bool]]) -> np.ndarray:
        """Given each state's (closing score, context after closing, whether
        a word closed): the delimiter column takes the score, or the OOV
        penalty for an empty word, then the eos column the score plus
        ln P(</s> | that context)."""
        mat[:, self.delimiter_id] = [score if closed else self.oov_logp
                                     for score, _, closed in closings]
        mat[:, self.vocab.eos_id] = [score + self._ngram(context, EOS_WORD)
                                     for score, context, _ in closings]
        return mat

    def _context_after(self, closing, token: int) -> Tuple[str, ...]:
        """The context once ``token`` ends the word: an empty word's delimiter adds <unk>."""
        _, context, closed = closing
        return context if closed or token != self.delimiter_id else context + (UNK,)


@dataclass(frozen=True)
class MultiLevelState:
    """Open word fragment, word-LM context, the char-LM score accumulated for
    the fragment, and the wrapped char scorer's own threading."""

    fragment: str
    context: Tuple[str, ...]
    fragment_score: float
    char_state: object


class MultiLevelLMScorer(_WordFusionScorer):
    """Character-level scoring with word-level substitution at boundaries.

    Non-delimiter tokens score under the char LM and extend the fragment. The
    delimiter (or eos) replaces the fragment's accumulated char-LM estimate
    with the word LM's probability, so per-word totals telescope to
    ln P_word(word | context) exactly. OOV fragments keep the char-LM
    estimate plus a fixed log-penalty. A batch is one ``batch_score`` call
    of the char LM (one gather for a ``TableScorer``) plus each state's
    closing columns.
    """

    def __init__(
        self,
        char_lm: FullScorer,
        word_lm: NGramModel,
        vocab: Vocabulary,
        delimiter_id: Optional[int] = None,
        oov_logp: float = DEFAULT_OOV_LOGP,
    ):
        super().__init__(word_lm, vocab, delimiter_id, oov_logp)
        self.char_lm = char_lm

    def init_state(self, emission: Optional[EmissionMatrix]) -> MultiLevelState:
        return MultiLevelState(
            fragment="",
            context=(BOS,),
            fragment_score=0.0,
            char_state=self.char_lm.init_state(emission),
        )

    def _close_fragment(self, state: MultiLevelState) -> Tuple[float, Tuple[str, ...], bool]:
        """Score for ending the open fragment, the context after it, and whether one closed."""
        if not state.fragment:
            return 0.0, state.context, False
        if state.fragment in self.word_lm.vocab:
            word_logp = self._ngram(state.context, state.fragment)
            return word_logp - state.fragment_score, state.context + (state.fragment,), True
        return self.oov_logp, state.context + (UNK,), True

    def batch_score(self, prefixes, states, emission):
        """Scored states are (state, char scored state, char-LM row)."""
        char_mat, char_scored = self.char_lm.batch_score(
            prefixes, [s.char_state for s in states], emission)
        mat = np.array(char_mat, dtype=np.float64)
        self._fill_closings(mat, [self._close_fragment(s) for s in states])
        return mat, list(zip(states, char_scored, char_mat))

    def select_state(self, scored_state, token: int) -> MultiLevelState:
        """A delimiter or eos closes the fragment; any other token extends it
        by its letter and char-LM score."""
        state, char_scored, char_vec = scored_state
        char_state = self.char_lm.select_state(char_scored, token)
        if token in (self.delimiter_id, self.vocab.eos_id):
            context = self._context_after(self._close_fragment(state), token)
            return MultiLevelState("", context, 0.0, char_state)
        return MultiLevelState(state.fragment + self.vocab.tokens[token], state.context,
                               state.fragment_score + float(char_vec[token]), char_state)


@dataclass(frozen=True)
class LookAheadState:
    """Position in the prefix tree, word context, the look-ahead mass already
    granted to the open word, and whether the word has left the lexicon."""

    node: object  # _TrieNode; opaque to callers
    context: Tuple[str, ...]
    accumulated: float
    dead: bool


class LookAheadLMScorer(_WordFusionScorer):
    """Word-LM look-ahead over a lexical prefix tree.

    Each in-lexicon character scores the unigram mass ratio of the child node
    to the current node; the delimiter closes the telescope so the word total
    equals ln P_word(word | context) under the full-context model. Characters
    leaving the tree take a fixed OOV penalty (net of the mass already
    granted) and park the state until the next delimiter.

    A batch is one (B, V) matrix: each state's row is a copy of its node's
    letter row, built the first time the scorer meets the node and cached
    (at most one per trie node), with the OOV penalty in the letters that
    have no child; then each state's closing columns.
    """

    def __init__(
        self,
        trie: WordTrie,
        word_lm: NGramModel,
        vocab: Vocabulary,
        delimiter_id: Optional[int] = None,
        oov_logp: float = DEFAULT_OOV_LOGP,
    ):
        super().__init__(word_lm, vocab, delimiter_id, oov_logp)
        self.trie = trie
        # every label with its character; a dead state scores 0 on each
        self.letters = [(tok, vocab.tokens[tok]) for tok in vocab.label_ids()]
        dead_row = np.full(vocab.size, NEG_INF)
        dead_row[[tok for tok, _ in self.letters]] = 0.0
        self._dead_row = (dead_row, np.zeros(vocab.size, dtype=bool))
        self._node_rows: Dict[_TrieNode, Tuple[np.ndarray, np.ndarray]] = {}

    def init_state(self, emission: Optional[EmissionMatrix]) -> LookAheadState:
        return LookAheadState(node=self.trie.root, context=(BOS,), accumulated=0.0, dead=False)

    def _close(self, state: LookAheadState) -> Tuple[float, Tuple[str, ...], bool]:
        """Score for ending the open word, the context after it, and whether one closed."""
        if state.dead:  # the letter that left the tree paid the penalty
            return 0.0, state.context + (UNK,), True
        node = state.node
        if node is self.trie.root:
            return 0.0, state.context, False
        if node.word is not None:
            word_logp = self._ngram(state.context, node.word)
            return word_logp - state.accumulated, state.context + (node.word,), True
        # fragment traverses the tree but is no word: net the word to the penalty
        return self.oov_logp - state.accumulated, state.context + (UNK,), True

    def _letter_row(self, state: LookAheadState) -> Tuple[np.ndarray, np.ndarray]:
        """(letter scores, mask of the letters without a child) of the
        state's node, or the dead row and an empty mask."""
        if state.dead:
            return self._dead_row
        node = state.node
        cached = self._node_rows.get(node)
        if cached is None:
            row = np.full(self.vocab.size, NEG_INF)
            no_child = np.zeros(self.vocab.size, dtype=bool)
            for tok, ch in self.letters:
                child = node.children.get(ch)
                if child is None:
                    no_child[tok] = True
                elif node.mass != NEG_INF:
                    row[tok] = child.mass - node.mass
            cached = self._node_rows[node] = (row, no_child)
        return cached

    def batch_score(self, prefixes, states, emission):
        rows, no_child = zip(*map(self._letter_row, states))
        accumulated = np.array([s.accumulated for s in states])
        mat = np.where(np.array(no_child), self.oov_logp - accumulated[:, None], np.array(rows))
        return self._fill_closings(mat, [self._close(s) for s in states]), list(states)

    def select_state(self, state: LookAheadState, token: int) -> LookAheadState:
        """A delimiter or eos closes the word; a letter steps to the trie
        child, or parks the state as dead when there is none; a dead state
        stays as it is."""
        if token in (self.delimiter_id, self.vocab.eos_id):
            context = self._context_after(self._close(state), token)
            return LookAheadState(self.trie.root, context, 0.0, False)
        if state.dead:
            return state
        node = state.node
        child = node.children.get(self.vocab.tokens[token])
        if child is None:
            return LookAheadState(node, state.context, state.accumulated, True)
        return LookAheadState(child, state.context,
                              state.accumulated + (child.mass - node.mass), False)


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
