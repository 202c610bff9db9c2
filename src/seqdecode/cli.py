"""Command-line surface: decode / transducer / maskctc / align / vad / bench.

One JSON config file describes a run; flags override config values. Outputs
are machine-readable JSON, written deterministically (sorted keys), so a run
repeated with the same inputs, config, and seed is byte-identical. Exit
codes: 0 success, 1 verification failure, 2 configuration error, 3 input
format error, 4 infeasible request. Any other exception is a bug, not a
bad input, and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from . import maskctc as maskctc_mod
from .beam_search import BeamConfig, _resolve_lengths, batch_beam_search, beam_search
from .core import (
    ConfigError,
    DecodeError,
    EmissionMatrix,
    FormatError,
    InfeasibleError,
    NBestList,
    Vocabulary,
    load_emission,
)
from .ctc import _check_vad, _validate_labels, ctc_forced_align, ctc_vad
from .lm import (
    LookAheadLMScorer,
    MultiLevelLMScorer,
    WordTrie,
    load_arpa,
    load_lexicon,
)
from .oracle import oracle_best_sequence, oracle_transducer_prob
from .scorers import CTCPrefixScorer, TableScorer
from .transducer import TableTransducer, TransducerBeamConfig, transducer_decode

TASKS = ("decode", "transducer", "maskctc", "align", "vad", "bench")


@dataclass
class RunConfig:
    """Materialised run description: task, input paths, config blocks."""

    task: str
    raw: Dict[str, Any]
    emissions: List[str]
    output: Optional[str]
    seed: int
    sequential: bool
    oracle: bool


@contextmanager
def _config_values() -> Iterator[None]:
    """Reading the config: a bad cast, a missing key or a block of the
    wrong type is a config error (exit 2). Wrap only config parsing and
    building in this, so errors raised while decoding stay errors."""
    try:
        yield
    except (ValueError, TypeError, KeyError, AttributeError) as e:
        raise ConfigError(str(e)) from None


def _read_block(block: Dict[str, Any], name: str, casts: Dict[str, Callable]) -> Dict[str, Any]:
    """The keys a config block gives, each cast by ``casts``; an unknown key
    is a config error, and a key the block leaves out keeps the default of
    what the caller builds from it."""
    unknown = sorted(set(block) - set(casts))
    if unknown:
        raise ConfigError(f"unknown {name} config keys: {unknown}")
    return {key: casts[key](value) for key, value in block.items()}


def _optional(cast: Callable[[Any], Any]) -> Callable[[Any], Any]:
    return lambda value: None if value is None else cast(value)


_BEAM_KEYS = {
    "weights": lambda w: {str(k): float(v) for k, v in w.items()},
    "beam_size": int, "pre_beam_size": _optional(int), "max_len_ratio": float,
    "min_len_ratio": float, "max_steps": _optional(int), "length_penalty": float,
    # a nested block for BeamConfig's end_detect_window and end_detect_margin
    "end_detect": lambda b: {f"end_detect_{k}": v for k, v in _read_block(
        b, "beam.end_detect", {"window": int, "margin": float}).items()},
}
_TRANSDUCER_KEYS = {
    "beam_size": int, "algorithm": str, "max_exp_per_step": int, "u_max_ratio": float,
    "n_steps": int, "lm_table": TableScorer.load, "lm_weight": float, "u_max": _optional(int),
    "max_pops_per_frame": int,
}
_MASKCTC_KEYS = {"threshold": float, "iterations": int}
_VAD_KEYS = {"on_threshold": float, "min_gap_frames": int, "margin_frames": int}
_BENCH_KEYS = {"V": int, "T": int, "B": int, "repeats": int, "max_len_ratio": float}
# the keys of a ``scorers`` entry besides "type", per type; casting loads the files
_SCORER_KEYS = {
    "table": {"path": TableScorer.load},
    "ctc_prefix": {},
    "multilevel": {"char_table": TableScorer.load, "arpa": load_arpa,
                   "delimiter_id": _optional(int)},
    "lookahead": {"lexicon": load_lexicon, "arpa": load_arpa, "delimiter_id": _optional(int)},
}
# top-level keys any task reads; a config may serve several tasks
_TOP_KEYS = {"emission", "emissions", "output", "seed", "vocab", "scorers", "beam", "model",
             "tokens", "transducer", "mlm", "maskctc", "labels", "blank_id", "vad", "bench"}


def _load_config_file(path: Optional[str]) -> Dict[str, Any]:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            payload = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file is not valid JSON: {e}") from None
    if not isinstance(payload, dict):
        raise ConfigError("config file must hold a JSON object")
    return payload


def _build_run_config(task: str, args: argparse.Namespace) -> RunConfig:
    raw = _load_config_file(args.config)
    unknown = sorted(set(raw) - _TOP_KEYS)
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {unknown}")
    emissions: List[str] = []
    if args.emission:
        emissions = list(args.emission)
    elif "emissions" in raw:
        paths = raw["emissions"]
        if not (isinstance(paths, list) and all(isinstance(p, str) for p in paths)):
            raise ConfigError(f"config key 'emissions' must be a list of paths, got {paths!r}")
        emissions = list(paths)
    elif "emission" in raw:
        if not isinstance(raw["emission"], str):
            raise ConfigError(f"config key 'emission' must be one path, got {raw['emission']!r}")
        emissions = [raw["emission"]]
    output = args.output if args.output is not None else raw.get("output")
    seed = args.seed if args.seed is not None else int(raw.get("seed", 0))
    return RunConfig(
        task=task,
        raw=raw,
        emissions=emissions,
        output=output,
        seed=seed,
        sequential=args.sequential,
        oracle=args.oracle,
    )


def _one_emission(cfg: RunConfig) -> str:
    if len(cfg.emissions) != 1:
        raise ConfigError(f"{cfg.task} needs exactly one emission path, got {len(cfg.emissions)}")
    return cfg.emissions[0]


def _vocab_from_config(raw: Dict[str, Any]) -> Vocabulary:
    if "vocab" not in raw:
        raise ConfigError("config needs a 'vocab' block")
    return Vocabulary.from_dict(raw["vocab"])


def _emit_json(payload: Dict[str, Any], output: Optional[str]) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as f:
            f.write(text)


def _nbest_payload(nbest: NBestList, tokens: Sequence[str]) -> Dict[str, Any]:
    return {
        "nbest": [
            {
                "tokens": [tokens[t] for t in entry.yseq],
                "token_ids": list(entry.yseq),
                "score": entry.score,
                "scores": {k: v for k, v in sorted(entry.scores.items())},
            }
            for entry in nbest.entries
        ]
    }


def _build_scorers(raw: Dict[str, Any], vocab: Vocabulary):
    full: Dict[str, Any] = {}
    partial: Dict[str, Any] = {}
    spec = raw.get("scorers")
    if not spec:
        raise ConfigError("config needs a non-empty 'scorers' block")
    for name, entry in spec.items():
        kind = entry.get("type")
        if kind not in _SCORER_KEYS:
            raise ConfigError(f"scorer {name!r} has unknown type {kind!r}")
        opts = _read_block({k: v for k, v in entry.items() if k != "type"},
                           f"scorers.{name}", _SCORER_KEYS[kind])
        try:
            if kind == "table":
                full[name] = opts["path"]
            elif kind == "ctc_prefix":
                partial[name] = CTCPrefixScorer(blank_id=vocab.blank_id, eos_id=vocab.eos_id)
            elif kind == "multilevel":
                full[name] = MultiLevelLMScorer(
                    opts["char_table"], opts["arpa"], vocab,
                    delimiter_id=opts.get("delimiter_id"),
                )
            else:
                full[name] = LookAheadLMScorer(
                    WordTrie(opts["lexicon"], opts["arpa"]), opts["arpa"], vocab,
                    delimiter_id=opts.get("delimiter_id"),
                )
        except KeyError as e:
            raise ConfigError(f"scorer {name!r} is missing key {e}") from None
    return full, partial


def _decode_one(
    path: str,
    vocab: Vocabulary,
    full: Dict[str, Any],
    partial: Dict[str, Any],
    config: BeamConfig,
    sequential: bool,
    with_oracle: bool,
) -> Dict[str, Any]:
    emission = load_emission(path)
    search = beam_search if sequential else batch_beam_search
    nbest = search(emission, vocab, full, config, partial)
    payload = _nbest_payload(nbest, vocab.tokens)
    if nbest.live_fallback:
        payload["live_fallback"] = True
    if with_oracle:
        max_len, _ = _resolve_lengths(config, emission.frames)
        try:
            oracle_yseq, oracle_score = oracle_best_sequence(
                vocab, emission, full, config.weights,
                max_len=max_len - 1, partial_scorers=partial,
            )
        except ValueError as e:
            raise ConfigError(f"--oracle: {e}") from None
        best = nbest.best()
        payload["oracle"] = {
            "token_ids": list(oracle_yseq),
            "score": oracle_score,
            "match": tuple(oracle_yseq) == tuple(best.yseq)
            and _scores_close(oracle_score, best.score),
        }
    return payload


def _scores_close(a: float, b: float, tol: float = 1e-6) -> bool:
    return a == b or abs(a - b) <= tol


def run_decode(cfg: RunConfig) -> int:
    with _config_values():
        vocab = _vocab_from_config(cfg.raw)
        if not cfg.emissions:
            raise ConfigError("decode needs at least one emission path")
        full, partial = _build_scorers(cfg.raw, vocab)
        opts = _read_block(cfg.raw.get("beam", {}), "beam", _BEAM_KEYS)
        opts.update(opts.pop("end_detect", {}))
        beam_cfg = BeamConfig(**{"weights": {}, **opts})
    results = [
        _decode_one(path, vocab, full, partial, beam_cfg, cfg.sequential, cfg.oracle)
        for path in cfg.emissions
    ]
    payload = results[0] if len(results) == 1 else {"utterances": results}
    _emit_json(payload, cfg.output)
    mismatched = [utt for utt in results if cfg.oracle and not utt["oracle"]["match"]]
    if mismatched:
        print(f"oracle mismatch on {len(mismatched)} utterance(s)", file=sys.stderr)
        return 1
    return 0


def run_transducer(cfg: RunConfig) -> int:
    raw = cfg.raw
    with _config_values():
        if "model" not in raw:
            raise ConfigError("transducer config needs a 'model' path")
        model = TableTransducer.load(raw["model"])
        tokens = raw.get("tokens")
        if tokens is None:
            tokens = [str(i) for i in range(model.num_labels)]
        if len(tokens) != model.num_labels:
            raise ConfigError(
                f"config lists {len(tokens)} tokens but the model has {model.num_labels} labels"
            )
        opts = _read_block(raw.get("transducer", {}), "transducer", _TRANSDUCER_KEYS)
        if "lm_table" in opts:
            opts["lm"] = opts.pop("lm_table")
        t_cfg = TransducerBeamConfig(**opts)
    nbest = transducer_decode(model, model.frames, t_cfg)
    payload = _nbest_payload(nbest, tokens)
    if nbest.truncated:
        payload["truncated"] = True
    if cfg.oracle:
        best = nbest.best()
        try:
            oracle_score = oracle_transducer_prob(model, model.frames, best.yseq)
        except ValueError as e:
            raise ConfigError(f"--oracle: {e}") from None
        payload["oracle"] = {
            "score": oracle_score,
            "match": _scores_close(oracle_score, best.score),
        }
    _emit_json(payload, cfg.output)
    if cfg.oracle and not payload["oracle"]["match"]:
        print("oracle mismatch on transducer top-1 score", file=sys.stderr)
        return 1
    return 0


def run_maskctc(cfg: RunConfig) -> int:
    with _config_values():
        vocab = _vocab_from_config(cfg.raw)
        if vocab.mask_id is None:
            raise ConfigError("maskctc needs a vocabulary with mask_id")
        path = _one_emission(cfg)
        if "mlm" not in cfg.raw:
            raise ConfigError("maskctc config needs an 'mlm' path")
        mlm = maskctc_mod.TableMLM.load(cfg.raw["mlm"], mask_id=vocab.mask_id)
        if mlm.vocab_size != vocab.size:
            raise ConfigError(f"masked-LM vocab_size {mlm.vocab_size} differs from the "
                              f"vocabulary's {vocab.size} tokens")
        mc_cfg = maskctc_mod.MaskCtcConfig(
            **_read_block(cfg.raw.get("maskctc", {}), "maskctc", _MASKCTC_KEYS))
    emission = load_emission(path)
    result = maskctc_mod.mask_ctc_decode(emission, mlm, vocab, mc_cfg)
    payload = {
        "tokens": [vocab.tokens[t] for t in result.tokens],
        "token_ids": list(result.tokens),
        "mlm_calls": result.mlm_calls,
        "masked_counts": list(result.masked_counts),
    }
    _emit_json(payload, cfg.output)
    return 0


def run_align(cfg: RunConfig) -> int:
    with _config_values():
        vocab = _vocab_from_config(cfg.raw)
        path = _one_emission(cfg)
        labels_raw = cfg.raw.get("labels")
        if labels_raw is None:
            raise ConfigError("align config needs a 'labels' list")
        labels: List[int] = []
        for item in labels_raw:
            if isinstance(item, str):
                if item not in vocab.tokens:
                    raise ConfigError(f"label {item!r} is not in the vocabulary")
                labels.append(vocab.tokens.index(item))
            else:
                labels.append(int(item))
    emission = load_emission(path)
    with _config_values():  # the label checks only: a fault in the kernel is a fault
        _validate_labels(labels, vocab.blank_id, emission.vocab_size)
    alignment = ctc_forced_align(emission, labels, vocab.blank_id)
    payload = {
        "path": list(alignment.path),
        "spans": [
            {"token": s.token, "start": s.start, "end": s.end} for s in alignment.spans
        ],
        "score": alignment.score,
    }
    _emit_json(payload, cfg.output)
    return 0


def run_vad(cfg: RunConfig) -> int:
    raw = cfg.raw
    with _config_values():
        if "vocab" in raw:
            blank_id = Vocabulary.from_dict(raw["vocab"]).blank_id
        elif "blank_id" in raw:
            blank_id = int(raw["blank_id"])
        else:
            raise ConfigError("vad config needs 'vocab' or 'blank_id'")
        path = _one_emission(cfg)
        options = _read_block(raw.get("vad", {}), "vad", _VAD_KEYS)
    emission = load_emission(path)
    with _config_values():  # only the blank and option checks
        _check_vad(blank_id, emission.vocab_size, **options)
    segments = ctc_vad(emission, blank_id, **options)
    payload = {
        "segments": [
            {"start": s.start, "end": s.end, "kind": s.kind} for s in segments
        ]
    }
    _emit_json(payload, cfg.output)
    return 0


def _synth_bench_instance(rng: np.random.Generator, v: int, t: int):
    """Seeded random emission + scorer stack used by the benchmark."""
    tokens = [f"t{i}" for i in range(v)]
    tokens[0] = "<blank>"
    tokens[1] = "<sos>"
    tokens[2] = "<eos>"
    vocab = Vocabulary(tokens=tuple(tokens), blank_id=0, sos_id=1, eos_id=2)
    emission = EmissionMatrix.from_logits(rng.normal(size=(t, v)))
    rows = {(): np.log(rng.dirichlet(np.ones(v)))}
    for i in range(v):
        rows[(i,)] = np.log(rng.dirichlet(np.ones(v)))
    att = TableScorer(context_order=1, vocab_size=v, rows=rows)
    ctc = CTCPrefixScorer(blank_id=vocab.blank_id, eos_id=vocab.eos_id)
    return vocab, emission, {"att": att}, {"ctc": ctc}


def run_bench(cfg: RunConfig) -> int:
    with _config_values():
        opts = {"V": 50, "T": 20, "B": 4, "repeats": 3, "max_len_ratio": 0.5,
                **_read_block(cfg.raw.get("bench", {}), "bench", _BENCH_KEYS)}
    v, t, b, repeats = opts["V"], opts["T"], opts["B"], opts["repeats"]
    if min(v, t, b, repeats) < 1 or v < 4:
        raise ConfigError("bench needs V >= 4 and positive T, B, repeats")
    rng = np.random.default_rng(cfg.seed)
    vocab, emission, full, partial = _synth_bench_instance(rng, v, t)
    beam_cfg = BeamConfig(
        weights={"att": 0.7, "ctc": 0.3},
        beam_size=b,
        max_len_ratio=opts["max_len_ratio"],
    )

    variants = {
        "sequential": lambda: beam_search(emission, vocab, full, beam_cfg, partial),
        "batched": lambda: batch_beam_search(emission, vocab, full, beam_cfg, partial),
    }
    outputs: Dict[str, NBestList] = {}
    timings: Dict[str, List[float]] = {}
    for name, fn in variants.items():
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            outputs[name] = fn()
            times.append(time.perf_counter() - start)
        timings[name] = times

    seq, bat = outputs["sequential"], outputs["batched"]
    equal = len(seq) == len(bat) and all(
        a.yseq == b_.yseq
        and (a.score == b_.score or abs(a.score - b_.score) <= 1e-9)
        for a, b_ in zip(seq.entries, bat.entries)
    )
    digest_src = json.dumps(
        [[list(e.yseq), round(e.score, 9)] for e in seq.entries], sort_keys=True
    )
    digest = hashlib.sha256(digest_src.encode()).hexdigest()

    def stats(times: List[float]) -> Dict[str, float]:
        arr = np.sort(np.array(times))
        return {
            "mean": float(arr.mean()),
            "p50": float(np.percentile(arr, 50)),
            "p95": float(np.percentile(arr, 95)),
        }

    # the speedup is only reported when both variants gave the same hypotheses
    payload = {
        "config": {"V": v, "T": t, "B": b, "repeats": repeats, "seed": cfg.seed},
        "equal": equal,
        "hypothesis_digest": digest,
        "speedup": (
            float(np.mean(timings["sequential"]) / np.mean(timings["batched"]))
            if equal
            else None
        ),
        "timings": {name: stats(ts) for name, ts in timings.items()},
    }
    _emit_json(payload, cfg.output)
    if not equal:
        print("bench: sequential and batched outputs differ", file=sys.stderr)
        return 1
    return 0


_RUNNERS = {
    "decode": run_decode,
    "transducer": run_transducer,
    "maskctc": run_maskctc,
    "align": run_align,
    "vad": run_vad,
    "bench": run_bench,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqdecode",
        description="Decode emission lattices with beam search, transducer search, "
        "mask-predict refinement, CTC alignment, or VAD; or benchmark the "
        "sequential vs batched search.",
    )
    sub = parser.add_subparsers(dest="task", required=True)
    for task in TASKS:
        p = sub.add_parser(task)
        # each task takes only the flags it reads; the others read as unset
        p.set_defaults(emission=None, sequential=False, oracle=False)
        p.add_argument("--config", help="JSON run configuration")
        if task in ("decode", "maskctc", "align", "vad"):
            p.add_argument("--emission", action="append", help="emission path (repeatable)")
        p.add_argument("--output", help="output JSON path (default: stdout)")
        if task == "decode":
            p.add_argument("--sequential", action="store_true",
                           help="use the per-hypothesis search instead of the batched one")
        p.add_argument("--seed", type=int, default=None)
        if task in ("decode", "transducer"):
            p.add_argument("--oracle", action="store_true",
                           help="verify against the brute-force oracle (tiny inputs only)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _config_values():
            cfg = _build_run_config(args.task, args)
        return _RUNNERS[args.task](cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except FormatError as e:
        print(f"format error: {e}", file=sys.stderr)
        return 3
    except InfeasibleError as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 4
    except FileNotFoundError as e:
        print(f"format error: missing file {e.filename}", file=sys.stderr)
        return 3
    except DecodeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
