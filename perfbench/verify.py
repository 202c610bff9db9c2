"""Verify phase, run after the timed window: brute-force oracles on tiny
seeded instances, the sequential search against the batched one on a real
request, and CLI byte-determinism. Each check returns a list of failure
messages (empty when it passed)."""

from __future__ import annotations

import itertools
import json
import math
import os
from typing import Callable, Dict, List, Tuple

import numpy as np

from seqdecode import (
    BeamConfig,
    CTCPrefixScorer,
    EmissionMatrix,
    TableScorer,
    TableTransducer,
    TransducerBeamConfig,
    Vocabulary,
    batch_beam_search,
    beam_search,
    ctc_forward,
    oracle_best_sequence,
    oracle_ctc_prob,
    oracle_transducer_prob,
    save_emission,
    transducer_decode,
)
from seqdecode.cli import main as cli_main
from seqdecode.oracle import OracleBudget

from workloads import SCORE_TOL, SEARCHES, Prepared

LINEAR_TOL = 1e-6


def tiny_vocab(n_labels: int) -> Vocabulary:
    tokens = ["<blank>"] + [f"l{i}" for i in range(n_labels)] + ["<eos>", "<sos>"]
    return Vocabulary(tokens=tuple(tokens), blank_id=0, sos_id=n_labels + 2, eos_id=n_labels + 1)


def tiny_emission(rng: np.random.Generator, frames: int, vocab_size: int) -> EmissionMatrix:
    return EmissionMatrix.from_logits(1.5 * rng.normal(size=(frames, vocab_size)))


def tiny_table(rng: np.random.Generator, vocab_size: int) -> TableScorer:
    rows = {(): np.log(rng.dirichlet(np.ones(vocab_size)))}
    for i in range(vocab_size):
        rows[(i,)] = np.log(rng.dirichlet(np.ones(vocab_size)))
    return TableScorer(1, vocab_size, rows)


def dag_transducer(rng: np.random.Generator, n_labels: int, frames: int) -> TableTransducer:
    """Label j may only follow a smaller label, so the support is the finite
    set of increasing sequences and exhaustive beams are exact sums."""
    rows: Dict[Tuple[int, ...], np.ndarray] = {}
    for ctx in [()] + [(j,) for j in range(n_labels)]:
        rank = ctx[0] if ctx else -1
        mat = np.full((frames, n_labels + 1), -np.inf)
        for t in range(frames):
            allowed = [j for j in range(n_labels) if j > rank]
            w = rng.dirichlet(np.ones(len(allowed) + 1))
            mat[t, n_labels] = math.log(0.25 + 0.5 * rng.random())
            for j, wj in zip(allowed, w[:-1]):
                mat[t, j] = math.log(wj + 1e-3)
            mat[t] -= np.logaddexp.reduce(mat[t])
        rows[ctx] = mat
    return TableTransducer(context_order=1, frames=frames, num_labels=n_labels, rows=rows)


def _close_linear(a: float, b: float) -> bool:
    return abs(math.exp(a) - math.exp(b)) <= LINEAR_TOL


def check_ctc_oracle(rng: np.random.Generator, n: int = 8) -> List[str]:
    out = []
    for k in range(n):
        V = int(rng.integers(2, 4))
        em = tiny_emission(rng, int(rng.integers(1, 6)), V)
        labels = tuple(int(rng.integers(1, V)) for _ in range(int(rng.integers(0, 4))))
        dp, brute = ctc_forward(em, labels, 0), oracle_ctc_prob(em, labels, 0)
        if not _close_linear(dp, brute):
            out.append(f"ctc oracle {k}: forward {dp!r} vs enumeration {brute!r}")
    return out


def check_beam_oracle(rng: np.random.Generator, n: int = 4) -> List[str]:
    """The batched search at exhaustive width finds the brute-force optimum."""
    out = []
    budget = OracleBudget(max_vocab=8, max_frames=6, max_len=5)
    for k in range(n):
        n_labels = int(rng.integers(1, 4))
        vocab = tiny_vocab(n_labels)
        em = tiny_emission(rng, int(rng.integers(2, 6)), vocab.size)
        max_len = int(rng.integers(1, 4))
        full = {"att": tiny_table(rng, vocab.size)}
        partial = {"ctc": CTCPrefixScorer(blank_id=vocab.blank_id, eos_id=vocab.eos_id)}
        weights = {"att": float(rng.uniform(0.3, 1.2)), "ctc": float(rng.uniform(0.2, 0.8))}
        width = (n_labels + 1) ** (max_len + 1)
        cfg = BeamConfig(weights=weights, beam_size=width,
                         pre_beam_size=max(width, vocab.size), max_steps=max_len + 1)
        best = batch_beam_search(em, vocab, full, cfg, partial).best()
        yseq, score = oracle_best_sequence(vocab, em, full, weights, max_len=max_len,
                                           partial_scorers=partial, budget=budget)
        if best.yseq != yseq or abs(best.score - score) > LINEAR_TOL:
            out.append(f"beam oracle {k}: search {best.yseq} {best.score!r}, "
                       f"oracle {yseq} {score!r}")
    return out


def check_transducer_oracle(rng: np.random.Generator, n: int = 4) -> List[str]:
    """Every beam algorithm at exhaustive width returns the most probable
    label sequence, found by summing the alignments of every sequence the
    model allows, with that sum as its score."""
    out = []
    for k in range(n):
        frames, n_labels = int(rng.integers(1, 5)), int(rng.integers(1, 3))
        model = dag_transducer(rng, n_labels, frames)
        support = [seq for r in range(n_labels + 1)
                   for seq in itertools.combinations(range(n_labels), r)]
        probs = {seq: oracle_transducer_prob(model, frames, seq) for seq in support}
        ranked = sorted(probs.values(), reverse=True)
        if len(ranked) > 1 and _close_linear(ranked[0], ranked[1]):
            continue  # a near tie has no single right answer
        oracle = max(probs, key=probs.get)
        limits = dict(beam_size=16, max_exp_per_step=n_labels + 1, u_max=n_labels + 1,
                      n_steps=n_labels + 1)
        for alg, fn in SEARCHES.items():
            best = fn(model, frames, TransducerBeamConfig(algorithm=alg, **limits)).best()
            if best.yseq != oracle or not _close_linear(best.score, probs[oracle]):
                out.append(f"transducer oracle {k} {alg}: search {best.yseq} {best.score!r}, "
                           f"oracle {oracle} {probs[oracle]!r}")
    return out


def _same_nbest(a, b) -> bool:
    return [e.yseq for e in a.entries] == [e.yseq for e in b.entries] and all(
        x.score == y.score or abs(x.score - y.score) <= SCORE_TOL
        for x, y in zip(a.entries, b.entries)
    )


def check_sequential_batched(prep: Prepared) -> List[str]:
    """On the shortest real request, beam_search and batch_beam_search give
    the same n-best (transducer: the dispatcher matches each search)."""
    utt = min(prep.utts, key=lambda u: u.frames)
    if utt.model is not None:
        out = []
        for alg, fn in SEARCHES.items():
            cfg = TransducerBeamConfig(beam_size=4, algorithm=alg)
            if not _same_nbest(fn(utt.model, utt.frames, cfg),
                               transducer_decode(utt.model, utt.frames, cfg)):
                out.append(f"transducer_decode differs from transducer_{alg}")
        return out
    full = prep.full[utt.variant]
    seq = beam_search(utt.emission, prep.vocab, full, prep.beam, prep.partial)
    bat = batch_beam_search(utt.emission, prep.vocab, full, prep.beam, prep.partial)
    if not _same_nbest(seq, bat):
        return [f"beam_search and batch_beam_search differ on a T={utt.frames} request"]
    return []


def _cli_twice(workdir: str, argv: List[str]) -> List[str]:
    blobs = []
    for k in (1, 2):
        path = os.path.join(workdir, f"cli-{k}.json")
        code = cli_main(argv + ["--output", path])
        if code != 0:
            return [f"cli {argv[0]} exited {code}"]
        with open(path, "rb") as f:
            blobs.append(f.read())
    return [] if blobs[0] == blobs[1] else [f"cli {argv[0]} output differs between two runs"]


def check_cli(prep: Prepared, rng: np.random.Generator, workdir: str) -> List[str]:
    """Run the CLI twice on the same inputs and compare the bytes."""
    cfg_path = os.path.join(workdir, "cli-config.json")
    utt = min(prep.utts, key=lambda u: u.frames)
    if utt.model is not None:
        model_path = os.path.join(workdir, "cli-model.json")
        utt.model.save(model_path)
        config = {"model": model_path, "transducer": {"beam_size": 4, "algorithm": "tsd"}}
        argv = ["transducer"]
    else:
        em_path = os.path.join(workdir, "cli-emission.json")
        if "arpa" in prep.files:  # letter workload: real LM files and a real request
            vocab, em = prep.vocab, utt.emission
            scorers = {"lm": {"type": "lookahead", "arpa": prep.files["arpa"],
                              "lexicon": prep.files["lexicon"]}}
            beam = {"beam_size": prep.beam.beam_size, "pre_beam_size": prep.beam.pre_beam_size,
                    "weights": prep.beam.weights}
        else:  # a V=1000 table is too large for JSON round trips; use a small one
            vocab = tiny_vocab(10)
            em = tiny_emission(rng, 20, vocab.size)
            table_path = os.path.join(workdir, "cli-table.json")
            tiny_table(rng, vocab.size).save(table_path)
            scorers = {"lm": {"type": "table", "path": table_path}}
            beam = {"beam_size": 4, "weights": {"lm": 0.7, "ctc": 0.3}}
        scorers["ctc"] = {"type": "ctc_prefix"}
        save_emission(em, em_path, fmt="json")
        config = {"vocab": vocab.to_dict(), "emission": em_path, "scorers": scorers,
                  "beam": beam}
        argv = ["decode"]
    with open(cfg_path, "w", encoding="utf-8") as f:
        json.dump(config, f)
    return _cli_twice(workdir, argv + ["--config", cfg_path])


def verify_phase(prep: Prepared, rng: np.random.Generator, workdir: str
                 ) -> Dict[str, List[str]]:
    checks: Dict[str, Callable[[], List[str]]] = {
        "ctc_oracle": lambda: check_ctc_oracle(rng),
        "beam_oracle": lambda: check_beam_oracle(rng),
        "transducer_oracle": lambda: check_transducer_oracle(rng),
        "sequential_batched": lambda: check_sequential_batched(prep),
        "cli_determinism": lambda: check_cli(prep, rng, workdir),
    }
    results = {}
    for name, fn in checks.items():
        try:
            results[name] = fn()
        except Exception as e:  # a crash is a failed check, reported with its type
            results[name] = [f"{name} raised {type(e).__name__}: {e}"]
    return results
