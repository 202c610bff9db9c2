"""A raw-f32 emission holds float32 values and every reader computes in
float64, so each public function that takes an emission returns, bit for
bit, what it returns on the float64 matrix of the same values. Scores are
compared as ``float.hex``.

A new public function with an ``emission`` parameter must join ``GATE``:
``test_gate_lists_every_emission_reader`` fails until it does."""

import dataclasses
import inspect

import numpy as np
import pytest

import seqdecode
from seqdecode import (
    BeamConfig,
    CTCPrefixScorer,
    DecodeError,
    EmissionMatrix,
    MaskCtcConfig,
    OracleBudget,
    TableMLM,
    batch_beam_search,
    beam_search,
    ctc_confidence_collapse,
    ctc_forced_align,
    ctc_forward,
    ctc_vad,
    load_emission,
    mask_ctc_decode,
    oracle_best_sequence,
    oracle_ctc_prob,
    save_emission,
)

from conftest import make_vocab, random_table_scorer

# the ROADMAP's edges: -inf entries, masked (-1e10, exact in float32, so
# the scans' floor path runs) entries, T=1, B >= V, no eos reached
EDGES = ["plain", "neg_inf", "masked", "t1", "b_ge_v", "no_eos"]

# a blank emission at which the floor path's block length, -65536 over the
# smallest emission above the floor, is 9 in float64 and 10 in float32
FLOOR_EDGE = float(np.float32(-6553.6))


@dataclasses.dataclass
class Instance:
    f32: EmissionMatrix  # loaded from a raw-f32 file
    f64: EmissionMatrix  # the same values as float64
    vocab: seqdecode.Vocabulary
    table: seqdecode.TableScorer
    config: BeamConfig
    labels: tuple

    @property
    def budget(self):
        return OracleBudget(max_vocab=self.vocab.size, max_frames=self.f32.frames)

    @property
    def speech_probs(self):
        """Each frame's speech probability, as thresholds that frame sits
        exactly on: a reader that rounds it otherwise moves the frame."""
        return (1.0 - np.exp(self.f64[:, self.vocab.blank_id])).tolist()


def instance(edge, tiny, seed, tmp_path):
    """An instance on ``edge``; ``tiny`` ones (T <= 4) fit the oracles."""
    rng = np.random.default_rng([4100, EDGES.index(edge), tiny, seed])
    vocab = make_vocab(3, with_mask=True)
    if edge == "t1":
        frames = 1
    elif edge == "no_eos":
        frames = 4 if tiny else 9
    else:
        frames = int(rng.integers(3, 5) if tiny else rng.integers(12, 40))
    logits = 1.5 * rng.normal(size=(frames, vocab.size))
    labels = list(vocab.label_ids())
    path = rng.choice(labels, size=frames)
    logits[np.arange(frames), path] += 3.0
    if edge == "neg_inf":
        logits[:, labels] = np.where(rng.random((frames, len(labels))) < 0.3, -np.inf,
                                     logits[:, labels])
    elif edge == "masked":
        logits[:, labels] = np.where(rng.random((frames, len(labels))) < 0.1, -1e10,
                                     logits[:, labels])
        logits[frames // 2, vocab.blank_id] = -1e10
    rows = EmissionMatrix.from_logits(logits).data.copy()
    if edge == "masked":  # the blank's mass there was 0.0 and stays so
        rows[frames // 2, vocab.blank_id] = FLOOR_EDGE
    file = tmp_path / f"{edge}{tiny}.emis"
    save_emission(EmissionMatrix(rows), str(file), "raw-f32")
    f32 = load_emission(str(file))
    assert f32.data.dtype == np.float32  # no frame was renormalised
    beam = vocab.size + 1 if edge == "b_ge_v" else 3
    config = BeamConfig(
        weights={"att": 1.0, "ctc": 0.5}, beam_size=beam, pre_beam_size=max(beam, 5),
        max_steps=frames - 1 if edge == "no_eos" else frames + 1,
        min_len_ratio=0.99 if edge == "no_eos" else 0.0, end_detect_margin=-1e9)
    collapsed = [int(t) for i, t in enumerate(path) if i == 0 or t != path[i - 1]]
    return Instance(f32, EmissionMatrix(f32.data.astype(np.float64)), vocab,
                    random_table_scorer(rng, 1, vocab.size), config,
                    tuple(collapsed[:max(1, frames // 3)]))


def ctc(inst):
    return CTCPrefixScorer(inst.vocab.blank_id, inst.vocab.eos_id)


# name -> (needs a tiny instance, call on (instance, emission))
GATE = {
    "beam_search": (False, lambda i, em: beam_search(
        em, i.vocab, {"att": i.table}, i.config, {"ctc": ctc(i)})),
    "batch_beam_search": (False, lambda i, em: batch_beam_search(
        em, i.vocab, {"att": i.table}, i.config, {"ctc": ctc(i)})),
    "ctc_forward": (False, lambda i, em: ctc_forward(em, i.labels, i.vocab.blank_id)),
    "ctc_forced_align": (False, lambda i, em: ctc_forced_align(em, i.labels, i.vocab.blank_id)),
    "ctc_vad": (False, lambda i, em: [
        ctc_vad(em, i.vocab.blank_id, on_threshold=0.4, min_gap_frames=2, margin_frames=1)] + [
        ctc_vad(em, i.vocab.blank_id, on_threshold=p) for p in i.speech_probs]),
    "ctc_confidence_collapse": (False, lambda i, em: ctc_confidence_collapse(
        em, i.vocab.blank_id)),
    "mask_ctc_decode": (False, lambda i, em: [
        mask_ctc_decode(em, TableMLM(i.vocab.size, i.vocab.mask_id), i.vocab,
                        MaskCtcConfig(threshold=c, iterations=2))
        for c in (0.8,) + ctc_confidence_collapse(i.f64, i.vocab.blank_id)[1]]),
    "oracle_ctc_prob": (True, lambda i, em: oracle_ctc_prob(
        em, i.labels, i.vocab.blank_id, budget=i.budget)),
    "oracle_best_sequence": (True, lambda i, em: oracle_best_sequence(
        i.vocab, em, {"att": i.table}, i.config.weights, 2, {"ctc": ctc(i)}, i.budget)),
}


def canonical(value):
    """``value`` with every float as its hex string, containers and
    dataclasses taken apart, so == is bit equality."""
    if isinstance(value, (float, np.floating)):
        return float.hex(float(value))
    if isinstance(value, np.ndarray):
        return canonical(value.tolist())
    if isinstance(value, (int, str, bool, np.integer)) or value is None:
        return value
    if isinstance(value, dict):
        return {k: canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,
                {f.name: canonical(getattr(value, f.name)) for f in dataclasses.fields(value)})
    raise TypeError(f"no canonical form for {type(value).__name__}")


def outcome(call, inst, em):
    try:
        return canonical(call(inst, em))
    except DecodeError as e:  # an infeasible alignment, say: the same on both
        return type(e).__name__, str(e)


def test_gate_lists_every_emission_reader():
    readers = {
        name for name, obj in vars(seqdecode).items()
        if not name.startswith("_") and inspect.isfunction(obj)
        and "emission" in inspect.signature(obj).parameters
    }
    assert readers == set(GATE)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("edge", EDGES)
@pytest.mark.parametrize("name", sorted(GATE))
def test_float32_storage_decodes_as_float64(name, edge, seed, ctc_tier, tmp_path):
    tiny, call = GATE[name]
    inst = instance(edge, tiny, seed, tmp_path)
    assert np.array_equal(inst.f32.data, inst.f64.data) and inst.f64.data.dtype == np.float64
    assert outcome(call, inst, inst.f32) == outcome(call, inst, inst.f64)


def test_canonical_tells_one_ulp_apart():
    a = 0.1
    assert canonical([a, {"s": a}]) != canonical([np.nextafter(a, 1.0), {"s": a}])
    assert canonical((a,)) == canonical([np.float64(a)])
