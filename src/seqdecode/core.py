"""Core decoding types: vocabularies, emission lattices, n-best lists, and
log-domain arithmetic.

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

# Row normalisation bounds, one rule for every row the package reads (table
# rows and emission frames alike, see _row_deviations): |logsumexp| <=
# ROW_TOL_EXACT is accepted as-is; an emission frame up to ROW_TOL_REJECT is
# renormalised on load, beyond that the file is rejected.
ROW_TOL_EXACT = 1e-4
ROW_TOL_REJECT = 1e-3
# entries per block of the row check: 512 KB of float64 at a time
_BLOCK_ENTRIES = 1 << 16


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
        for name, idx in reserved.items():
            if idx == self.mask_id:
                raise ConfigError(f"mask_id must differ from {name}={idx}")
        banned = {self.sos_id, self.blank_id, self.mask_id}
        candidates = tuple(i for i in range(n) if i not in banned)
        object.__setattr__(self, "_candidate_ids", candidates)
        object.__setattr__(self, "_label_ids", tuple(i for i in candidates if i != self.eos_id))

    @property
    def size(self) -> int:
        return len(self.tokens)

    def candidate_ids(self) -> Tuple[int, ...]:
        """Token ids the search may append: everything except sos, blank,
        mask. Computed once, as the vocabulary is frozen."""
        return self._candidate_ids

    def label_ids(self) -> Tuple[int, ...]:
        """Candidate ids excluding eos (the enumerable sequence alphabet)."""
        return self._label_ids

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


def _row_deviations(rows: np.ndarray, tols: Tuple[float, ...]) -> np.ndarray:
    """|log-sum-exp| of each row of the 2-D ``rows``, in float64 whatever
    ``rows`` holds: a max-shifted sum, taken over blocks of about
    _BLOCK_ENTRIES entries so no temporary the size of ``rows`` is made. A
    row within 1e-9 of one of the ascending ``tols`` is re-decided by the
    exact fold, so ``dev <= tol`` decides as np.logaddexp.reduce does."""
    step = max(1, _BLOCK_ENTRIES // rows.shape[1])
    parts = []
    with np.errstate(invalid="ignore"):  # an all -inf or a +inf row gives nan
        for lo in range(0, rows.shape[0], step):
            block = np.asarray(rows[lo:lo + step], dtype=np.float64)
            top = block.max(axis=1)
            parts.append(top + np.log(np.exp(block - top[:, None]).sum(axis=1)))
    dev = parts[0] if len(parts) == 1 else np.concatenate(parts)
    np.abs(dev, out=dev)
    if not dev.max() < tols[0] - 1e-9:  # a row near or past a tolerance, or nan
        near = (np.abs(dev[:, None] - np.array(tols)) <= 1e-9).any(axis=1)
        if near.any():
            dev[near] = np.abs(np.logaddexp.reduce(rows[near].astype(np.float64), axis=1))
    return dev


def _check_frames(arr: np.ndarray, dev: np.ndarray, tol: float) -> None:
    """Reject the first frame of an emission whose deviation exceeds ``tol``."""
    if not dev.max() <= tol:  # catches nan as well
        t = int(np.argmin(dev <= tol))
        with np.errstate(invalid="ignore"):  # a nan entry would warn
            dev_t = float(np.abs(np.logaddexp.reduce(arr[t].astype(np.float64))))
        raise FormatError(f"emission frame {t} is not a distribution: logsumexp "
                          f"deviation {dev_t}")


def log_rows(data: Any, shape: Tuple[int, ...], label: Callable[[], str]) -> np.ndarray:
    """``data`` as a read-only float64 array of ``shape`` whose rows (last
    axis) are log-distributions within ROW_TOL_EXACT, else a ConfigError.
    ``label`` names the rows in the message and is called only on failure.
    The array is ``data`` itself, made read-only, when that is a
    C-contiguous float64 array."""
    arr = np.ascontiguousarray(data, dtype=np.float64)
    if arr.shape != shape:
        raise ConfigError(f"{label()} has shape {arr.shape}, expected {shape}")
    dev = _row_deviations(arr.reshape(-1, shape[-1]), (ROW_TOL_EXACT,))
    if not dev.max() <= ROW_TOL_EXACT:  # catches nan as well
        i = int(np.argmin(dev <= ROW_TOL_EXACT))
        where = f" row {i}" if arr.ndim > 1 else ""
        raise ConfigError(f"{label()}{where} not normalised: logsumexp deviation {float(dev[i])}")
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


@dataclass(frozen=True, eq=False)
class EmissionMatrix:
    """T x V lattice of per-frame log-probabilities over the vocabulary.

    Stands in for encoder-plus-softmax output; every decoder in this package
    consumes one. Rows must be normalised within 1e-4 in the log domain.

    ``data`` holds the values at the precision they arrive in: float32 for
    a raw-f32 file (unless a frame had to be renormalised) or a float32
    array, float64 otherwise. Readers index the matrix itself,
    ``emission[index]``, which gives ``data[index]`` in float64: a float32
    value widens exactly, so every result is the float64 matrix's, bit for
    bit. A matrix compares and hashes by identity, as its cached properties
    assume.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        f32 = isinstance(self.data, np.ndarray) and self.data.dtype == np.float32
        arr = np.asarray(self.data, dtype=np.float32 if f32 else np.float64)
        if arr is self.data or not arr.flags.owndata:  # the caller's memory: copy it
            arr = arr.copy()
        object.__setattr__(self, "data", EmissionMatrix._owned(arr).data)

    @classmethod
    def _owned(cls, arr: np.ndarray, checked: bool = False) -> "EmissionMatrix":
        """A matrix holding ``arr``, a float32 or float64 array no caller
        holds, without a copy; its frames are checked unless ``checked``
        says they were."""
        arr = np.ascontiguousarray(_emission_shape(arr))
        if not checked:
            _check_frames(arr, _row_deviations(arr, (ROW_TOL_EXACT,)), ROW_TOL_EXACT)
        arr.setflags(write=False)
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "data", arr)
        return matrix

    def __getitem__(self, index: Any) -> np.ndarray:
        """``data[index]`` as float64: a view where ``data`` is float64, a
        widened copy where it is float32."""
        return np.asarray(self.data[index], dtype=np.float64)

    @property
    def shape(self) -> Tuple[int, int]:
        return self.data.shape

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.data.shape[1]

    def frame_argmax(self) -> np.ndarray:
        """(T,) the first token with the largest log-prob of each frame."""
        return self.data.argmax(axis=1)

    @cached_property
    def column_peaks(self) -> Tuple[np.ndarray, np.ndarray]:
        """(V,) largest log-prob of each token over the frames, and the
        first frame that has it; computed once per matrix."""
        peak = self.data.argmax(axis=0)
        return self[peak, np.arange(self.vocab_size)], peak

    @cached_property
    def neg_inf_columns(self) -> np.ndarray:
        """(V,) read-only: whether each token has a -inf log-prob at some
        frame; computed once per matrix."""
        flags = np.isneginf(self.data).any(axis=0)
        flags.setflags(write=False)
        return flags

    @classmethod
    def from_logits(cls, logits: np.ndarray) -> "EmissionMatrix":
        """Build a matrix from unnormalised scores by log-softmax per row."""
        arr = np.asarray(logits, dtype=np.float64)
        return cls._owned(arr - np.logaddexp.reduce(arr, axis=1, keepdims=True))


def _emission_shape(arr: np.ndarray) -> np.ndarray:
    """``arr``, if it is 2-D with T >= 1 frames and V >= 2 tokens."""
    if arr.ndim != 2:
        raise FormatError(f"emission must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 2:
        raise FormatError(f"emission needs T >= 1 and V >= 2, got {arr.shape}")
    return arr


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
        expected = t_decl * v_decl * 4
        if len(blob) - 12 != expected:
            raise FormatError(
                f"raw emission payload is {len(blob) - 12} bytes, expected {expected} "
                f"for T={t_decl}, V={v_decl}"
            )
        # a read-only view of the file's bytes, kept as float32
        arr = np.frombuffer(blob, dtype="<f4", offset=12).astype(np.float32, copy=False)
        arr = arr.reshape(t_decl, v_decl)
    else:
        raise ConfigError(f"unknown emission format {fmt!r}")
    dev = _row_deviations(_emission_shape(arr), (ROW_TOL_EXACT, ROW_TOL_REJECT))
    _check_frames(arr, dev, ROW_TOL_REJECT)
    fix = dev > ROW_TOL_EXACT
    if fix.any():  # arr is this call's own array, widened to float64 here
        arr = arr.astype(np.float64, copy=False)
        arr[fix] -= np.logaddexp.reduce(arr[fix], axis=1)[:, None]
    return EmissionMatrix._owned(arr, checked=True)  # no second row pass, no copy


@dataclass(frozen=True)
class NBestEntry:
    yseq: Tuple[int, ...]
    score: float
    scores: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class NBestList:
    """Score-descending hypotheses; ties prefer the lexicographically smaller
    token sequence. Entry yseqs carry neither sos nor eos. ``truncated``:
    the search stopped a frame at its work cap with an entry left that it
    could still have expanded, so a better hypothesis may be missing.
    ``stop``: why the label-synchronous search ended ("end_detect",
    "max_steps", "no_live" or "no_candidates"; None from other searches).
    ``live_fallback``: nothing finished, and the one entry is the best
    live hypothesis."""

    entries: Tuple[NBestEntry, ...]
    truncated: bool = False
    stop: Optional[str] = None
    live_fallback: bool = False

    @classmethod
    def from_entries(cls, entries: Iterable[NBestEntry]) -> "NBestList":
        return cls(tuple(sorted(entries, key=lambda e: (-e.score, e.yseq))))

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> NBestEntry:
        return self.entries[i]

    def best(self) -> NBestEntry:
        if not self.entries:
            raise InfeasibleError("empty n-best list")
        return self.entries[0]

