"""Seeded planted-transcript inputs.

Every generator first samples a reference and then builds the emission (or
transducer joint) table to be peaked on it, so the decoders find real answers
and mostly stop at eos. Nothing here calls the package's decoders; the
package only receives the generated inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

BLANK, SOS, EOS, MASK = 0, 1, 2, 3


def spread_order(n: int) -> List[int]:
    """0..n-1 in base-2 van der Corput order: every prefix covers [0, n) about
    evenly, so a run that stops after k requests still sees the whole range
    of input sizes."""
    bits = max(1, (n - 1).bit_length())
    keyed = sorted(range(n), key=lambda i: int(format(i, f"0{bits}b")[::-1], 2))
    return keyed


def size_grid(n: int, lo: int, hi: int) -> List[int]:
    """n sizes at the centres of n equal strata of [lo, hi], in spread order.
    The grid is the same for every seed; the seed decides the content."""
    return [lo + int((k + 0.5) * (hi - lo + 1) / n) for k in spread_order(n)]


def softmax_log(logits: np.ndarray) -> np.ndarray:
    return logits - np.logaddexp.reduce(logits, axis=-1, keepdims=True)


def plant_path(rng: np.random.Generator, ref: Sequence[int], frames: int,
               blank_weight: float = 1.3) -> np.ndarray:
    """Frame-level CTC path for ref in exactly ``frames`` frames: one frame
    per label, a forced blank between repeated labels, and the remaining
    frames spread over label runs and blank gaps."""
    U = len(ref)
    forced = [1 if u > 0 and ref[u] == ref[u - 1] else 0 for u in range(U)]
    spare = frames - U - sum(forced)
    if spare < 0:
        raise ValueError(f"reference of {U} labels does not fit {frames} frames")
    # slots: gap_0, label_0, gap_1, label_1, ..., label_{U-1}, gap_U
    weights = np.ones(2 * U + 1)
    weights[0::2] = blank_weight
    extra = rng.multinomial(spare, weights / weights.sum())
    path: List[int] = []
    for u in range(U):
        path.extend([BLANK] * (forced[u] + int(extra[2 * u])))
        path.extend([int(ref[u])] * (1 + int(extra[2 * u + 1])))
    path.extend([BLANK] * int(extra[2 * U]))
    return np.array(path, dtype=np.int64)


def planted_emission(rng: np.random.Generator, path: np.ndarray, vocab_size: int,
                     labels: np.ndarray, peak: Tuple[float, float],
                     confuse_share: float, noise_scale: float,
                     neg_inf_share: float = 0.0) -> np.ndarray:
    """T x V log-probabilities: frame t puts a seeded peak on path[t]; some
    label runs lend part of that mass to a confusable label; the rest is
    spread by log-normal noise. A positive neg_inf_share sets that share of
    the off-path entries to -inf."""
    T = len(path)
    frames = np.arange(T)
    probs = np.exp(noise_scale * rng.normal(size=(T, vocab_size)))
    p_peak = rng.uniform(peak[0], peak[1], size=T)
    # confusions act on whole label runs so CTC sees a coherent competitor
    run_start = np.flatnonzero(np.r_[True, path[1:] != path[:-1]])
    run_end = np.r_[run_start[1:], T]
    competitor = np.full(T, -1)
    share = np.zeros(T)
    for s, e in zip(run_start, run_end):
        if path[s] != BLANK and rng.random() < confuse_share:
            competitor[s:e] = int(rng.choice(labels))
            share[s:e] = rng.uniform(0.3, 0.6)
    probs[frames, path] = 0.0
    probs *= ((1.0 - p_peak) / probs.sum(axis=1))[:, None]
    probs[frames, path] = p_peak
    lent = (competitor >= 0) & (competitor != path)
    lend = p_peak[lent] * share[lent]
    probs[frames[lent], competitor[lent]] += lend
    probs[frames[lent], path[lent]] -= lend
    logp = np.log(probs)
    if neg_inf_share > 0.0:
        kill = rng.random(size=(T, vocab_size)) < neg_inf_share
        kill[np.arange(T), path] = False
        kill[competitor >= 0, np.maximum(competitor, 0)[competitor >= 0]] = False
        kill[:, BLANK] = False
        logp[kill] = -np.inf
        logp = softmax_log(logp)
    return logp


def sample_chain(rng: np.random.Generator, rows: Dict[Tuple[int, ...], np.ndarray],
                 allowed: np.ndarray, length: int, top: Optional[int] = None,
                 repeats: bool = True) -> List[int]:
    """Sample ``length`` tokens from an order-1 table restricted to
    ``allowed`` (and, when ``top`` is set, to the ``top`` tokens each row
    ranks highest), so the reference is what the table itself would say.
    ``repeats=False`` forbids a token directly after itself."""
    out: List[int] = []
    ctx: Tuple[int, ...] = ()
    for _ in range(length):
        row = rows[ctx][allowed]
        p = np.exp(row - row.max())
        if top is not None and top < len(p):
            p[p < np.partition(p, len(p) - top)[len(p) - top]] = 0.0
        if not repeats and out:
            p[allowed == out[-1]] = 0.0
        tok = int(rng.choice(allowed, p=p / p.sum()))
        out.append(tok)
        ctx = (tok,)
    return out


def attention_rows(rng: np.random.Generator, vocab_size: int, alpha: float,
                   eos_share: float) -> Dict[Tuple[int, ...], np.ndarray]:
    """Order-1 table: Dirichlet(alpha) rows over the labels, a fixed eos
    share, and a small floor on the reserved ids so every row is finite."""
    n_ctx = vocab_size - MASK  # () plus one row per label id 4..V-1
    raw = np.maximum(rng.dirichlet(np.full(vocab_size, alpha), size=n_ctx), 1e-12)
    raw[:, [BLANK, SOS, MASK]] = 1e-9
    raw[:, EOS] = 0.0
    raw *= (1.0 - eos_share) / raw.sum(axis=1, keepdims=True)
    raw[:, EOS] = eos_share
    logp = softmax_log(np.log(raw))
    contexts: List[Tuple[int, ...]] = [()] + [(i,) for i in range(MASK + 1, vocab_size)]
    return {ctx: logp[k] for k, ctx in enumerate(contexts)}


def mask_predict_patterns(initial: Sequence[int], confidences: Sequence[float],
                          ref: Sequence[int], threshold: float, iterations: int,
                          vocab_size: int, rng: np.random.Generator, wrong_share: float = 0.1
                          ) -> Dict[Tuple[Optional[int], ...], Dict[int, np.ndarray]]:
    """Masked-LM table for one utterance. For each masked sequence the
    mask-predict schedule will show, every masked position gets a row peaked
    on the reference token at that position (on a random label past its end
    or, for ``wrong_share`` of the rows, anywhere), so refinement reads
    planted rows instead of the uniform fallback."""
    seq: List[Optional[int]] = [
        None if c < threshold or t == MASK else int(t) for t, c in zip(initial, confidences)
    ]
    patterns: Dict[Tuple[Optional[int], ...], Dict[int, np.ndarray]] = {}
    for it in range(iterations):
        masked = [i for i, t in enumerate(seq) if t is None]
        if not masked:
            break
        rows: Dict[int, np.ndarray] = {}
        for pos in masked:
            target = int(ref[pos]) if pos < len(ref) else -1
            if target < 0 or rng.random() < wrong_share:
                target = int(rng.integers(MASK + 1, vocab_size))
            p = float(rng.uniform(0.5, 0.95))
            row = np.full(vocab_size, (1.0 - p) / (vocab_size - 1))
            row[target] = p
            rows[pos] = np.log(row)
        patterns[tuple(seq)] = rows
        n_fill = math.ceil(len(masked) / (iterations - it))
        ranked = sorted(masked, key=lambda pos: (-float(np.max(rows[pos])), pos))[:n_fill]
        for pos in ranked:
            seq[pos] = int(np.argmax(rows[pos]))
    return patterns


# --- word-level LM for the letter workload ---------------------------------

LETTERS = "abcdefghijklmnopqrstuvwxyz"
SPACE = 3  # "<space>" in the letter vocabulary; letters follow from id 4
LENGTH_SLACK = 1
MAX_DRAWS = 10000


def letter_tokens() -> Tuple[str, ...]:
    return ("<blank>", "<sos>", "<eos>", "<space>") + tuple(LETTERS)


def make_lexicon(rng: np.random.Generator, n_words: int) -> List[str]:
    """Word-like strings from a random letter bigram chain, unique."""
    trans = rng.dirichlet(np.full(26, 0.3), size=27)  # row 26 = word start
    words = set()
    while len(words) < n_words:
        length = int(rng.integers(2, 8))
        prev, chars = 26, []
        for _ in range(length):
            c = int(rng.choice(26, p=trans[prev]))
            chars.append(LETTERS[c])
            prev = c
        words.add("".join(chars))
    return sorted(words)


@dataclass
class Bigram:
    """Backoff bigram with proper normalisation, kept as probabilities so the
    generator can sample sentences from exactly the model it writes."""

    words: List[str]  # lexicon words; the model vocab adds <s>, </s>, <unk>
    unigram: Dict[str, float]
    successors: Dict[str, Dict[str, float]]  # ctx -> {w: p(w | ctx)}
    backoff: Dict[str, float]  # ctx -> alpha(ctx), linear

    def sample_sentence(self, rng: np.random.Generator, letters: int) -> List[str]:
        """Lexicon words drawn from p(w | previous word) whose spelling (one
        space between words) is within LENGTH_SLACK of ``letters`` long; a
        sentence of another length is drawn again, so every seed gets the
        same lengths."""
        uni = np.array([self.unigram[w] for w in self.words])
        index = {w: i for i, w in enumerate(self.words)}
        slack = LENGTH_SLACK
        for _ in range(MAX_DRAWS):
            out: List[str] = []
            ctx, length = "<s>", -1
            while length < letters - slack:
                p = uni * self.backoff[ctx]
                for w, q in self.successors[ctx].items():
                    if w in index:
                        p[index[w]] = q
                ctx = self.words[int(rng.choice(len(p), p=p / p.sum()))]
                out.append(ctx)
                length += len(ctx) + 1
            if length <= letters + slack:
                return out
        raise ValueError(f"no sentence of {letters} +- {slack} letters in {MAX_DRAWS} draws")

    def arpa_text(self) -> str:
        uni_lines = []
        for w, p in self.unigram.items():
            line = f"{math.log10(p):.6f} {w}" if p > 0 else f"-99 {w}"
            if w in self.backoff:
                line += f" {math.log10(self.backoff[w]):.6f}"
            uni_lines.append(line)
        bi_lines = [
            f"{math.log10(p):.6f} {ctx} {w}"
            for ctx, succ in self.successors.items() for w, p in succ.items()
        ]
        return "\n".join(
            ["\\data\\", f"ngram 1={len(uni_lines)}", f"ngram 2={len(bi_lines)}", "",
             "\\1-grams:"] + uni_lines + ["", "\\2-grams:"] + bi_lines + ["", "\\end\\", ""]
        )


def make_bigram(rng: np.random.Generator, words: List[str], successors_per_word: int
                ) -> Bigram:
    """Zipf unigrams over the lexicon plus a few strong successors per
    context; backoff weights make every conditional sum to one."""
    ranks = rng.permutation(len(words)) + 1
    zipf = 1.0 / ranks.astype(float)
    p_words = 0.9 * zipf / zipf.sum()
    unigram: Dict[str, float] = {"<unk>": 0.01, "</s>": 0.09, "<s>": 0.0}
    unigram.update({w: float(p) for w, p in zip(words, p_words)})
    successors: Dict[str, Dict[str, float]] = {}
    backoff: Dict[str, float] = {}
    for ctx in ["<s>"] + words:
        picks = rng.choice(len(words), size=successors_per_word, replace=False)
        mass = rng.uniform(0.4, 0.8)
        share = rng.dirichlet(np.ones(successors_per_word)) * mass
        succ = {words[int(i)]: float(s) for i, s in zip(picks, share)}
        if ctx != "<s>":
            succ["</s>"] = 0.05
        successors[ctx] = succ
        covered = sum(unigram[w] for w in succ)
        backoff[ctx] = (1.0 - sum(succ.values())) / (1.0 - covered)
    return Bigram(words=words, unigram=unigram, successors=successors, backoff=backoff)


def letter_bigram_rows(words: Sequence[str], vocab_size: int
                       ) -> Dict[Tuple[int, ...], np.ndarray]:
    """Order-1 character LM estimated from the lexicon with add-0.5
    smoothing; <space> ends a word and may be followed by eos."""
    counts = np.full((vocab_size, vocab_size), 0.5)
    counts[:, [BLANK, SOS]] = 1e-6
    for w in words:
        ids = [SPACE] + [SPACE + 1 + LETTERS.index(c) for c in w] + [SPACE]
        for a, b in zip(ids, ids[1:]):
            counts[a, b] += 1.0
    counts[SPACE, EOS] += len(words) / 8.0
    logp = softmax_log(np.log(counts))
    rows = {(i,): logp[i] for i in range(vocab_size) if i not in (BLANK, SOS)}
    rows[()] = logp[SPACE]
    return rows


def encode_sentence(words: Sequence[str]) -> List[int]:
    ids: List[int] = []
    for k, w in enumerate(words):
        if k:
            ids.append(SPACE)
        ids.extend(SPACE + 1 + LETTERS.index(c) for c in w)
    return ids


# --- transducer ---------------------------------------------------------------

def plant_alignment(rng: np.random.Generator, U: int, frames: int) -> List[int]:
    """Increasing emission frames for U labels, one label per frame at most
    (two in one frame can form a label cycle in an order-1 table)."""
    return [int(t) for t in np.sort(rng.choice(frames, size=U, replace=False))]


def _set_peak(rows: np.ndarray, k: int, p) -> None:
    """Give token k probability p in each row (last axis), rescaling the
    others to share 1 - p."""
    rows[..., k] = 0.0
    rows *= ((1.0 - np.asarray(p)) / rows.sum(axis=-1))[..., None]
    rows[..., k] = p


def transducer_rows(rng: np.random.Generator, ref: Sequence[int], frames: int,
                    num_labels: int, peak: Tuple[float, float], noise_scale: float
                    ) -> Dict[Tuple[int, ...], np.ndarray]:
    """Order-1 joint table that acts like acoustic evidence: in a frame where
    no label is due every context prefers blank; in a frame where labels are
    due every context prefers the first of them, the context reached after
    each due label prefers the next one, and the context after the last one
    prefers blank again."""
    blank = num_labels
    contexts: List[Tuple[int, ...]] = [()] + [(l,) for l in range(num_labels)]
    index = {ctx: i for i, ctx in enumerate(contexts)}
    probs = np.exp(noise_scale * rng.normal(size=(len(contexts), frames, num_labels + 1)))
    probs /= probs.sum(axis=-1, keepdims=True)
    due: Dict[int, List[int]] = {}
    for u, t in enumerate(plant_alignment(rng, len(ref), frames)):
        due.setdefault(t, []).append(u)
    for t in range(frames):
        col = probs[:, t, :]
        us = due.get(t)
        if not us:
            _set_peak(col, blank, rng.uniform(peak[0], peak[1], size=len(contexts)))
            continue
        _set_peak(col, int(ref[us[0]]), rng.uniform(0.5 * peak[0], peak[0], size=len(contexts)))
        on_path = set()
        for u in us:
            ctx = () if u == 0 else (int(ref[u - 1]),)
            _set_peak(col[index[ctx]], int(ref[u]), rng.uniform(*peak))
            on_path.add(ctx)
        after = (int(ref[us[-1]]),)
        if after not in on_path:
            _set_peak(col[index[after]], blank, rng.uniform(*peak))
    logp = np.log(probs)
    return {ctx: logp[i] for i, ctx in enumerate(contexts)}
