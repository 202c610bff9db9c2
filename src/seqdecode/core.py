"""Core decoding types: vocabularies, emission lattices, hypotheses, n-best
lists, and log-domain arithmetic.

All scores everywhere in this package are natural-log probabilities. The
impossible event is IEEE -inf, never a large negative sentinel, so that it
propagates correctly through additions and log-sum-exp.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

NEG_INF = float("-inf")

# Raw emission file layout: magic, u32-LE T, u32-LE V, then T*V f32-LE row-major.
RAW_MAGIC = b"EMIS"

# Row normalisation bounds: |logsumexp| <= ROW_TOL_EXACT is accepted as-is,
# up to ROW_TOL_REJECT is renormalised on load, beyond that the file is rejected.
ROW_TOL_EXACT = 1e-4
ROW_TOL_REJECT = 1e-3

SCORE_EQ_TOL = 1e-9


class DecodeError(Exception):
    """Base error for this package."""


class ConfigError(DecodeError):
    """Invalid configuration (CLI exit code 2)."""


class FormatError(DecodeError):
    """Malformed input file (CLI exit code 3)."""


class InfeasibleError(DecodeError):
    """Structurally impossible request, e.g. an unreachable alignment (exit 4)."""


def logsumexp(values: Iterable[float]) -> float:
    """Stable ln(sum(exp(v))) over a non-empty list; -inf inputs are absorbing."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("logsumexp of an empty list")
    m = max(vals)
    if m == NEG_INF:
        return NEG_INF
    return m + math.log(math.fsum(math.exp(v - m) for v in vals))


@dataclass(frozen=True)
class Vocabulary:
    """Ordered token inventory with reserved blank/sos/eos (and optional
    mask/unk) indices."""

    tokens: Tuple[str, ...]
    blank_id: int
    sos_id: int
    eos_id: int
    mask_id: Optional[int] = None
    unk_id: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if len(set(self.tokens)) != len(self.tokens):
            raise ConfigError("vocabulary tokens must be unique")
        n = len(self.tokens)
        reserved = {"blank_id": self.blank_id, "sos_id": self.sos_id, "eos_id": self.eos_id}
        for name, idx in reserved.items():
            if not 0 <= idx < n:
                raise ConfigError(f"{name}={idx} outside [0, {n})")
        if len({self.blank_id, self.sos_id, self.eos_id}) != 3:
            raise ConfigError("blank_id, sos_id, eos_id must be pairwise distinct")
        for name, idx in (("mask_id", self.mask_id), ("unk_id", self.unk_id)):
            if idx is not None and not 0 <= idx < n:
                raise ConfigError(f"{name}={idx} outside [0, {n})")

    @property
    def size(self) -> int:
        return len(self.tokens)

    def candidate_ids(self) -> Tuple[int, ...]:
        """Token ids the search may append: everything except sos, blank, mask."""
        banned = {self.sos_id, self.blank_id}
        if self.mask_id is not None:
            banned.add(self.mask_id)
        return tuple(i for i in range(self.size) if i not in banned)

    def label_ids(self) -> Tuple[int, ...]:
        """Candidate ids excluding eos (the enumerable sequence alphabet)."""
        return tuple(i for i in self.candidate_ids() if i != self.eos_id)

    def check_emission_width(self, width: int) -> None:
        """An emission over this vocabulary has one column per token."""
        if width != self.size:
            raise ConfigError(
                f"emission has {width} columns but the vocabulary has {self.size} tokens"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tokens": list(self.tokens),
            "blank_id": self.blank_id,
            "sos_id": self.sos_id,
            "eos_id": self.eos_id,
            "mask_id": self.mask_id,
            "unk_id": self.unk_id,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Vocabulary":
        try:
            return cls(
                tokens=tuple(d["tokens"]),
                blank_id=int(d["blank_id"]),
                sos_id=int(d["sos_id"]),
                eos_id=int(d["eos_id"]),
                mask_id=None if d.get("mask_id") is None else int(d["mask_id"]),
                unk_id=None if d.get("unk_id") is None else int(d["unk_id"]),
            )
        except KeyError as e:
            raise ConfigError(f"vocabulary definition missing key {e}") from None


def _check_rows(data: np.ndarray, renormalize: bool) -> np.ndarray:
    """Validate per-frame normalisation; optionally renormalise small drift."""
    lse = np.logaddexp.reduce(data, axis=1)
    dev = np.abs(lse)
    limit = ROW_TOL_REJECT if renormalize else ROW_TOL_EXACT
    bad = ~(dev <= limit)  # catches nan as well
    if bad.any():
        t = int(np.argmax(bad))
        raise FormatError(
            f"emission frame {t} is not a distribution: logsumexp deviation {dev[t]!r}"
        )
    if renormalize:
        fix = dev > ROW_TOL_EXACT
        if fix.any():
            data = data.copy()
            data[fix] -= lse[fix, None]
    return data


def log_rows(data: Any, shape: Tuple[int, ...], label: Callable[[], str]) -> np.ndarray:
    """``data`` as a read-only float64 array of ``shape`` whose rows (last
    axis) are log-distributions within ROW_TOL_EXACT, else a ConfigError.
    ``label`` names the rows in the message and is called only on failure."""
    arr = np.ascontiguousarray(data, dtype=np.float64)
    if arr.shape != shape:
        raise ConfigError(f"{label()} has shape {arr.shape}, expected {shape}")
    top = arr.max(axis=-1)
    with np.errstate(invalid="ignore"):  # an all -inf or a +inf row gives nan
        dev = np.abs(top + np.log(np.exp(arr - top[..., None]).sum(axis=-1))).ravel()
    near = np.abs(dev - ROW_TOL_EXACT) <= 1e-9
    if near.any():  # within float error of the tolerance: decide as the exact fold does
        dev[near] = np.abs(np.logaddexp.reduce(arr.reshape(-1, shape[-1])[near], axis=-1))
    if not (dev <= ROW_TOL_EXACT).all():  # catches nan as well
        i = int(np.argmin(dev <= ROW_TOL_EXACT))
        where = f" row {i}" if arr.ndim > 1 else ""
        raise ConfigError(f"{label()}{where} not normalised: logsumexp deviation {dev[i]!r}")
    arr.setflags(write=False)
    return arr


def format_key(key: Sequence[Optional[int]]) -> str:
    """Context key of the table model files: ids joined by commas, "_" for a
    masked position, "" for the empty context."""
    return ",".join("_" if t is None else str(t) for t in key)


def parse_key(text: str, masks: bool = False) -> Tuple[Optional[int], ...]:
    """Inverse of ``format_key``; "_" is read only where ``masks`` allows it."""
    if not text:
        return ()
    return tuple(None if masks and p == "_" else int(p) for p in text.split(","))


def write_json(path: str, payload: Any) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f)


def read_json(path: str, what: str, build: Callable[[Any], Any]) -> Any:
    """Read a JSON model file and ``build`` an object from its payload. A
    parse error, a missing key or a payload ``build`` cannot read is a
    FormatError; a ConfigError from ``build`` (say, unnormalised rows) stays
    one."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            payload = json.load(f)
        except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
            raise FormatError(f"{what} JSON parse error: {e}") from None
    try:
        return build(payload)
    except KeyError as e:
        raise FormatError(f"{what} JSON missing key {e}") from None
    except (ValueError, TypeError, AttributeError) as e:
        raise FormatError(f"bad {what} JSON: {e}") from None


@dataclass(frozen=True)
class EmissionMatrix:
    """T x V lattice of per-frame log-probabilities over the vocabulary.

    Stands in for encoder-plus-softmax output; every decoder in this package
    consumes one. Rows must be normalised within 1e-4 in the log domain.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise FormatError(f"emission must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 2:
            raise FormatError(f"emission needs T >= 1 and V >= 2, got {arr.shape}")
        arr = _check_rows(arr, renormalize=False)
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.data.shape[1]

    @cached_property
    def column_peaks(self) -> Tuple[np.ndarray, np.ndarray]:
        """(V,) largest log-prob of each token over the frames, and the
        first frame that has it; computed once per matrix."""
        peak = self.data.argmax(axis=0)
        return self.data[peak, np.arange(self.vocab_size)], peak

    @classmethod
    def from_logits(cls, logits: np.ndarray) -> "EmissionMatrix":
        """Build a matrix from unnormalised scores by log-softmax per row."""
        arr = np.asarray(logits, dtype=np.float64)
        arr = arr - np.logaddexp.reduce(arr, axis=1, keepdims=True)
        return cls(arr)


def save_emission(matrix: EmissionMatrix, path: str, fmt: str = "json") -> None:
    if fmt == "json":
        write_json(path, {
            "T": matrix.frames,
            "V": matrix.vocab_size,
            "logprobs": [[float(v) for v in row] for row in matrix.data],
        })
    elif fmt == "raw-f32":
        with open(path, "wb") as f:
            f.write(RAW_MAGIC)
            f.write(struct.pack("<II", matrix.frames, matrix.vocab_size))
            f.write(matrix.data.astype("<f4").tobytes(order="C"))
    else:
        raise ConfigError(f"unknown emission format {fmt!r}")


def _emission_rows(payload: Dict[str, Any]) -> np.ndarray:
    rows = payload["logprobs"]
    t_decl, v_decl = int(payload["T"]), int(payload["V"])
    if len(rows) != t_decl:
        raise FormatError(f"emission JSON declares T={t_decl} but has {len(rows)} rows")
    for t, row in enumerate(rows):
        if len(row) != v_decl:
            raise FormatError(f"emission frame {t} has {len(row)} entries, expected V={v_decl}")
    try:
        arr = np.array(rows, dtype=np.float64)
    except (ValueError, TypeError) as e:
        raise FormatError(f"emission JSON has non-numeric entries: {e}") from None
    if arr.size == 0:
        raise FormatError("emission JSON is empty")
    return arr


def load_emission(path: str, fmt: Optional[str] = None) -> EmissionMatrix:
    """Load an emission matrix from JSON or raw-f32.

    Rows whose logsumexp drifts by more than 1e-4 but at most 1e-3 are
    renormalised; anything further off is rejected with the frame index.
    """
    if fmt is None:
        with open(path, "rb") as f:
            fmt = "raw-f32" if f.read(4) == RAW_MAGIC else "json"
    if fmt == "json":
        arr = read_json(path, "emission", _emission_rows)
    elif fmt == "raw-f32":
        with open(path, "rb") as f:
            blob = f.read()
        if blob[:4] != RAW_MAGIC:
            raise FormatError("raw emission file lacks the EMIS magic header")
        if len(blob) < 12:
            raise FormatError("raw emission header truncated")
        t_decl, v_decl = struct.unpack("<II", blob[4:12])
        body = blob[12:]
        expected = t_decl * v_decl * 4
        if len(body) != expected:
            raise FormatError(
                f"raw emission payload is {len(body)} bytes, expected {expected} "
                f"for T={t_decl}, V={v_decl}"
            )
        arr = np.frombuffer(body, dtype="<f4").astype(np.float64).reshape(t_decl, v_decl)
    else:
        raise ConfigError(f"unknown emission format {fmt!r}")
    if arr.shape[0] < 1 or arr.shape[1] < 2:
        raise FormatError(f"emission needs T >= 1 and V >= 2, got {arr.shape}")
    arr = _check_rows(arr, renormalize=True)
    return EmissionMatrix(arr)


@dataclass
class Hypothesis:
    """One search hypothesis: token prefix, total weighted score, per-scorer
    breakdown, and per-scorer opaque states.

    yseq always starts with sos; ``finished`` holds exactly when the last
    token is eos.
    """

    yseq: Tuple[int, ...]
    score: float
    scores: Dict[str, float] = field(default_factory=dict)
    states: Dict[str, Any] = field(default_factory=dict)
    finished: bool = False


def validate_hypothesis(hyp: Hypothesis, weights: Dict[str, float]) -> bool:
    """True iff hyp.score equals the weighted sum of its per-scorer scores
    within 1e-9. Pure predicate; -inf totals compare equal to -inf."""
    total = 0.0
    for name, value in hyp.scores.items():
        total += weights[name] * value
    if math.isinf(hyp.score) or math.isinf(total):
        return hyp.score == total
    return abs(hyp.score - total) <= SCORE_EQ_TOL


@dataclass(frozen=True)
class NBestEntry:
    yseq: Tuple[int, ...]
    score: float
    scores: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class NBestList:
    """Score-descending hypotheses; ties prefer the lexicographically smaller
    token sequence. Entry yseqs carry neither sos nor eos."""

    entries: Tuple[NBestEntry, ...]

    @classmethod
    def from_entries(cls, entries: Iterable[NBestEntry]) -> "NBestList":
        ordered = sorted(entries, key=hypothesis_sort_key)
        return cls(tuple(ordered))

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> NBestEntry:
        return self.entries[i]

    def best(self) -> NBestEntry:
        if not self.entries:
            raise InfeasibleError("empty n-best list")
        return self.entries[0]


def hypothesis_sort_key(hyp):
    """Shared ordering of hypotheses and n-best entries: score descending,
    then lexicographically smaller yseq."""
    return (-hyp.score, hyp.yseq)
