"""The error branches a bad input or a bad config reaches, one table per
module. Each case raises the named error type with its whole message; each
CLI case exits with its code and prints one line on stderr."""

import re
import struct

import numpy as np
import pytest

from seqdecode import (
    BeamConfig,
    ConfigError,
    CTCPrefixScorer,
    DecodeError,
    EmissionMatrix,
    FormatError,
    InfeasibleError,
    LookAheadLMScorer,
    TableScorer,
    Vocabulary,
    WordTrie,
    batch_beam_search,
    load_arpa,
    load_emission,
    save_emission,
)
from seqdecode import cli as cli_mod
from seqdecode.cli import main
from seqdecode.core import NBestList
from seqdecode.maskctc import MaskCtcConfig, TableMLM, mask_ctc_decode
from seqdecode.transducer import TableTransducer, TransducerBeamConfig

from conftest import make_vocab, random_emission, random_table_scorer
from test_cli import write_json
from test_lm import char_vocab, five_word_arpa

VOCAB = make_vocab(2)  # <blank> l0 l1 <eos> <sos>


def raises(call, error, message):
    """``call()`` raises exactly ``error`` with exactly ``message``."""
    with pytest.raises(error, match="^" + re.escape(message) + "$") as info:
        call()
    assert type(info.value) is error


# --- beam_search -------------------------------------------------------------

def _table(vocab_size):
    return random_table_scorer(np.random.default_rng(1), 0, vocab_size)


def _search(full, partial):
    em = random_emission(np.random.default_rng(0), 3, VOCAB.size)
    weights = dict.fromkeys(list(full) + list(partial), 1.0)
    return batch_beam_search(em, VOCAB, full, BeamConfig(weights=weights), partial)


BEAM_SEARCH = {
    "max_len_ratio": (lambda: BeamConfig(weights={}, max_len_ratio=0.0),
                      ConfigError, "max_len_ratio must be in (0, 1]"),
    "min_len_ratio": (lambda: BeamConfig(weights={}, min_len_ratio=1.0),
                      ConfigError, "min_len_ratio must be in [0, 1)"),
    "end_detect_window": (lambda: BeamConfig(weights={}, end_detect_window=0),
                          ConfigError, "end_detect_window must be >= 1"),
    "max_steps": (lambda: BeamConfig(weights={}, max_steps=0),
                  ConfigError, "max_steps must be >= 1"),
    "negative_weight": (lambda: BeamConfig(weights={"att": -0.5}),
                        ConfigError, "weight for scorer 'att' must be >= 0"),
    "duplicate_names": (lambda: _search({"s": _table(5)}, {"s": CTCPrefixScorer(0, 3)}),
                        ConfigError,
                        "scorer names must be unique across full and partial scorers"),
    "width_mismatch": (lambda: _search({"att": _table(6)}, {}), ConfigError,
                       "scorer 'att' returned 6 scores for vocabulary size 5"),
}


@pytest.mark.parametrize("case", BEAM_SEARCH)
def test_beam_search_errors(case):
    raises(*BEAM_SEARCH[case])


# --- transducer --------------------------------------------------------------

_HALF = np.log(np.full((1, 2), 0.5))

TRANSDUCER = {
    "beam_size": (lambda: TransducerBeamConfig(beam_size=0), ConfigError,
                  "beam_size must be >= 1"),
    "algorithm": (lambda: TransducerBeamConfig(algorithm="mAES"), ConfigError,
                  "algorithm must be one of ('greedy', 'beam', 'tsd', 'alsd', 'nsc')"),
    "max_exp_per_step": (lambda: TransducerBeamConfig(max_exp_per_step=0), ConfigError,
                         "max_exp_per_step must be >= 1"),
    "u_max_ratio": (lambda: TransducerBeamConfig(u_max_ratio=0.0), ConfigError,
                    "u_max_ratio must be > 0"),
    "n_steps": (lambda: TransducerBeamConfig(n_steps=0), ConfigError, "n_steps must be >= 1"),
    "u_max": (lambda: TransducerBeamConfig(u_max=-1), ConfigError, "u_max must be >= 0"),
    "lm_weight": (lambda: TransducerBeamConfig(lm_weight=-0.1), ConfigError,
                  "lm_weight must be >= 0"),
    "table_context_order": (lambda: TableTransducer(-1, 1, 1, {(): _HALF}), ConfigError,
                            "context_order must be >= 0"),
    "table_frames": (lambda: TableTransducer(0, 0, 1, {(): _HALF}), ConfigError,
                     "need frames >= 1 and num_labels >= 1"),
    "table_labels": (lambda: TableTransducer(0, 1, 0, {(): _HALF}), ConfigError,
                     "need frames >= 1 and num_labels >= 1"),
}


@pytest.mark.parametrize("case", TRANSDUCER)
def test_transducer_errors(case):
    raises(*TRANSDUCER[case])


# --- maskctc -----------------------------------------------------------------

class _WrongPositions(TableMLM):
    """A masked LM that predicts one position too many."""

    def predict(self, tokens):
        out = super().predict(tokens)
        out[len(tokens)] = np.full(self.vocab_size, -np.log(self.vocab_size))
        return out


def _mask_ctc_with_wrong_positions():
    vocab = make_vocab(2, with_mask=True)
    logits = np.full((2, vocab.size), -5.0)
    logits[:, 1] = 0.0  # l0 at every frame, below a threshold of 1
    mlm = _WrongPositions(vocab.size, vocab.mask_id)
    mask_ctc_decode(EmissionMatrix.from_logits(logits), mlm, vocab, MaskCtcConfig(1.0))


MASKCTC = {
    "threshold": (lambda: MaskCtcConfig(threshold=1.5), ConfigError,
                  "threshold must be in [0, 1]"),
    "iterations": (lambda: MaskCtcConfig(iterations=0), ConfigError, "iterations must be >= 1"),
    "mlm_vocab_size": (lambda: TableMLM(1, 0), ConfigError, "vocab_size must be >= 2"),
    "mlm_positions": (_mask_ctc_with_wrong_positions, ConfigError,
                      "masked LM must predict exactly the masked positions: "
                      "expected [0], got [0, 1]"),
}


@pytest.mark.parametrize("case", MASKCTC)
def test_maskctc_errors(case):
    raises(*MASKCTC[case])


# --- scorers -----------------------------------------------------------------

def _ctc_scored_row(row):
    em = random_emission(np.random.default_rng(2), 4, VOCAB.size)
    ctc = CTCPrefixScorer(VOCAB.blank_id, VOCAB.eos_id)
    _, scored = ctc.batch_score_partial([(VOCAB.sos_id,)], np.array([[1, 2]]),
                                        [ctc.init_state(em)], em)
    return scored[row]


def _ctc_flat_candidates():
    em = random_emission(np.random.default_rng(2), 4, VOCAB.size)
    ctc = CTCPrefixScorer(VOCAB.blank_id, VOCAB.eos_id)
    ctc.batch_score_partial([(VOCAB.sos_id,)], np.array([1, 2]), [ctc.init_state(em)], em)


SCORERS = {
    "table_context_order": (lambda: TableScorer(-1, 4, {}), ConfigError,
                            "context_order must be >= 0"),
    "table_vocab_size": (lambda: TableScorer(0, 1, {}), ConfigError, "vocab_size must be >= 2"),
    "ctc_blank_is_eos": (lambda: CTCPrefixScorer(3, 3), ConfigError,
                         "blank_id and eos_id must differ"),
    "ctc_flat_candidates": (_ctc_flat_candidates, ValueError,
                            "batched candidates must be a (B, P) matrix"),
    "ctc_scored_row": (lambda: _ctc_scored_row(1), IndexError, "1"),
}


@pytest.mark.parametrize("case", SCORERS)
def test_scorers_errors(case):
    raises(*SCORERS[case])


# --- core --------------------------------------------------------------------

def _load_text(tmp_path, text):
    path = tmp_path / "e.json"
    path.write_text(text)
    return lambda: load_emission(str(path))


def _load_bytes(tmp_path, blob):
    path = tmp_path / "e.bin"
    path.write_bytes(blob)
    return lambda: load_emission(str(path))


def _vocab(**ids):
    return lambda: Vocabulary(tokens=("a", "b", "c"), **{"blank_id": 0, "sos_id": 1,
                                                        "eos_id": 2, **ids})


CORE = {
    "vocab_id_range": (lambda tmp: _vocab(eos_id=3), ConfigError, "eos_id=3 outside [0, 3)"),
    "vocab_mask_range": (lambda tmp: _vocab(mask_id=-1), ConfigError,
                         "mask_id=-1 outside [0, 3)"),
    "vocab_missing_key": (lambda tmp: lambda: Vocabulary.from_dict(
        {"tokens": ["a", "b", "c"], "blank_id": 0, "sos_id": 1}), ConfigError,
        "vocabulary definition missing key 'eos_id'"),
    "emission_row_width": (lambda tmp: _load_text(
        tmp, '{"T": 2, "V": 2, "logprobs": [[-0.7, -0.7], [0.0]]}'), FormatError,
        "emission frame 1 has 1 entries, expected V=2"),
    "emission_empty": (lambda tmp: _load_text(tmp, '{"T": 0, "V": 2, "logprobs": []}'),
                       FormatError, "emission JSON is empty"),
    "raw_header": (lambda tmp: _load_bytes(tmp, b"EMIS" + struct.pack("<I", 1)), FormatError,
                   "raw emission header truncated"),
    "empty_nbest": (lambda tmp: NBestList(()).best, InfeasibleError, "empty n-best list"),
}


@pytest.mark.parametrize("case", CORE)
def test_core_errors(tmp_path, case):
    build, error, message = CORE[case]
    raises(build(tmp_path), error, message)


# --- lm ----------------------------------------------------------------------

def _arpa(tmp_path, text):
    path = tmp_path / "lm.arpa"
    path.write_text(text, encoding="utf-8")
    return lambda: load_arpa(str(path))


def _lookahead(tmp_path, vocab, delimiter_id=None):
    model = load_arpa(five_word_arpa(tmp_path / "five.arpa"))
    return lambda: LookAheadLMScorer(WordTrie(["ad"], model), model, vocab, delimiter_id)


_HEAD = "\\data\\\nngram 1=1\n\n"

LM = {
    "bad_value": (lambda tmp: _arpa(tmp, _HEAD + "\\1-grams:\n-0.5x ab\n\\end\\\n"),
                  FormatError, "line 5: bad log-probability '-0.5x'"),
    "ngram_count": (lambda tmp: _arpa(tmp, "\\data\\\nngram 1\n"), FormatError,
                    "line 2: malformed ngram count 'ngram 1'"),
    "data_content": (lambda tmp: _arpa(tmp, "\\data\\\nwords\n"), FormatError,
                     "line 2: unexpected content in \\data\\ section"),
    "section_header": (lambda tmp: _arpa(tmp, _HEAD + "\\x-grams:\n"), FormatError,
                       "line 4: malformed section header " + repr("\\x-grams:")),
    "undeclared_order": (lambda tmp: _arpa(tmp, _HEAD + "\\2-grams:\n"), FormatError,
                         "line 4: section for order 2 not declared in \\data\\"),
    "truncated_entry": (lambda tmp: _arpa(tmp, _HEAD + "\\1-grams:\n-0.5\n"), FormatError,
                        "line 5: truncated 1-gram entry"),
    "no_data_header": (lambda tmp: _arpa(tmp, "\\1-grams:\n"), FormatError,
                       "line 1: n-gram section before \\data\\ header"),
    "no_header_at_all": (lambda tmp: _arpa(tmp, "-0.5 ab\n"), FormatError,
                         "line 1: missing \\data\\ header"),
    "no_orders": (lambda tmp: _arpa(tmp, "\\data\\\n\\end\\\n"), FormatError,
                  "\\data\\ section declares no n-gram orders"),
    "delimiter_range": (lambda tmp: _lookahead(tmp, char_vocab(), 8), ConfigError,
                        "delimiter id 8 outside vocabulary"),
    "no_delimiter": (lambda tmp: _lookahead(tmp, make_vocab(2)), ConfigError,
                     "no delimiter: pass delimiter_id or include '<space>' in the vocabulary"),
}


@pytest.mark.parametrize("case", LM)
def test_lm_errors(tmp_path, case):
    build, error, message = LM[case]
    raises(build(tmp_path), error, message)


# --- cli ---------------------------------------------------------------------

@pytest.fixture
def files(tmp_path):
    """Paths of small valid inputs: vocabularies, emissions, scorer tables,
    transducer models and a masked LM."""
    vocab, masked = make_vocab(1), make_vocab(1, with_mask=True)
    rng = np.random.default_rng(3)
    paths = {name: str(tmp_path / f"{name}.json") for name in (
        "emission", "long_emission", "masked_emission", "table", "model", "long_model",
        "lm", "mlm")}
    save_emission(random_emission(rng, 2, vocab.size), paths["emission"], "json")
    save_emission(random_emission(rng, 20, vocab.size), paths["long_emission"], "json")
    save_emission(random_emission(rng, 2, masked.size), paths["masked_emission"], "json")
    random_table_scorer(rng, 0, vocab.size).save(paths["table"])
    # label 0 first, then blanks: the top-1 is (0,), which a fused LM scores
    first, then = np.log([[0.9, 0.05, 0.05]] * 2), np.log([[0.05, 0.05, 0.9]] * 2)
    TableTransducer(1, 2, 2, {(): first, (0,): then, (1,): then}).save(paths["model"])
    # the label at 0.9 in every frame: the top-1 has more alignments than
    # the oracle may count
    TableTransducer(0, 30, 1, {(): np.log(np.array([[0.9, 0.1]] * 30))}).save(
        paths["long_model"])
    TableScorer(0, 2, {(): np.log(np.array([0.3, 0.7]))}).save(paths["lm"])
    TableMLM(masked.size, masked.mask_id).save(paths["mlm"])
    paths.update(vocab=vocab.to_dict(), masked_vocab=masked.to_dict(), dir=str(tmp_path))
    return paths


def _decode(f, **extra):
    return {"vocab": f["vocab"], "emission": f["emission"],
            "scorers": {"att": {"type": "table", "path": f["table"]},
                        "ctc": {"type": "ctc_prefix"}},
            "beam": {"beam_size": 2, "weights": {"att": 0.5, "ctc": 0.5}}, **extra}


def _without(config, key):
    return {k: v for k, v in config.items() if k != key}


# case: (task, config from the files or None for no --config, extra argv,
#        exit code, stderr line as a regex)
CLI = {
    "no_config": ("vad", None, [], 2, re.escape("config error: vad config needs 'vocab' or "
                                                "'blank_id'")),
    "not_json": ("decode", "{", [], 2, r"config error: config file is not valid JSON: .+"),
    "not_an_object": ("decode", "[1, 2]", [], 2,
                      re.escape("config error: config file must hold a JSON object")),
    "no_vocab": ("decode", lambda f: _without(_decode(f), "vocab"), [], 2,
                 re.escape("config error: config needs a 'vocab' block")),
    "no_scorers": ("decode", lambda f: _without(_decode(f), "scorers"), [], 2,
                   re.escape("config error: config needs a non-empty 'scorers' block")),
    "unknown_scorer": ("decode", lambda f: _decode(f, scorers={"lm": {"type": "rnn"}}), [], 2,
                       re.escape("config error: scorer 'lm' has unknown type 'rnn'")),
    "no_emission": ("decode", lambda f: _without(_decode(f), "emission"), [], 2,
                    re.escape("config error: decode needs at least one emission path")),
    "no_model": ("transducer", lambda f: {}, [], 2,
                 re.escape("config error: transducer config needs a 'model' path")),
    "token_count": ("transducer", lambda f: {"model": f["model"], "tokens": ["a"]}, [], 2,
                    re.escape("config error: config lists 1 tokens but the model has 2 labels")),
    "no_mask_id": ("maskctc", lambda f: {"vocab": f["vocab"], "emission": f["emission"],
                                         "mlm": f["mlm"]}, [], 2,
                   re.escape("config error: maskctc needs a vocabulary with mask_id")),
    "no_mlm": ("maskctc", lambda f: {"vocab": f["masked_vocab"],
                                     "emission": f["masked_emission"]}, [], 2,
               re.escape("config error: maskctc config needs an 'mlm' path")),
    "no_labels": ("align", lambda f: {"vocab": f["vocab"], "emission": f["emission"]}, [], 2,
                  re.escape("config error: align config needs a 'labels' list")),
    "unknown_label": ("align", lambda f: {"vocab": f["vocab"], "emission": f["emission"],
                                          "labels": ["zz"]}, [], 2,
                      re.escape("config error: label 'zz' is not in the vocabulary")),
    "bench_vocab": ("bench", lambda f: {"bench": {"V": 3}}, [], 2,
                    re.escape("config error: bench needs V >= 4 and positive T, B, repeats")),
    "bench_repeats": ("bench", lambda f: {"bench": {"repeats": 0}}, [], 2,
                      re.escape("config error: bench needs V >= 4 and positive T, B, repeats")),
    "decode_oracle_budget": ("decode", lambda f: _decode(f, emission=f["long_emission"]),
                             ["--oracle"], 2,
                             r"config error: --oracle: max_len=\d+ exceeds the oracle budget"),
    "transducer_oracle_budget": ("transducer", lambda f: {"model": f["long_model"]},
                                 ["--oracle"], 2,
                                 r"config error: --oracle: oracle enumeration of \S+ paths "
                                 r"exceeds the budget \(10000000\)"),
    "transducer_oracle_mismatch": ("transducer", lambda f: {
        "model": f["model"],
        "transducer": {"algorithm": "beam", "lm_table": f["lm"], "lm_weight": 1.0}},
        ["--oracle"], 1, re.escape("oracle mismatch on transducer top-1 score")),
    "missing_file": ("decode", lambda f: _decode(f, emission=f["dir"] + "/none.json"), [], 3,
                     r"format error: missing file .*none\.json"),
}


@pytest.mark.parametrize("case", CLI)
def test_cli_errors(files, tmp_path, capsys, case):
    task, config, extra, code, line = CLI[case]
    argv = [task, "--output", str(tmp_path / "out.json")] + extra
    if config is not None:
        path = tmp_path / "run.json"
        if isinstance(config, str):
            path.write_text(config)
        else:
            write_json(path, config(files))
        argv += ["--config", str(path)]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and re.fullmatch(line, err[:-1]), err


def test_cli_decode_error_is_exit_1(files, tmp_path, monkeypatch, capsys):
    # a DecodeError raised while decoding (a nan score, say) is neither a
    # config nor a format error
    def search(*args):
        raise DecodeError("scorer 'att' gave a nan score")

    monkeypatch.setattr(cli_mod, "batch_beam_search", search)
    config = write_json(tmp_path / "run.json", _decode(files))
    assert main(["decode", "--config", config]) == 1
    assert capsys.readouterr().err == "error: scorer 'att' gave a nan score\n"
