import dataclasses
import json

import numpy as np
import pytest

from seqdecode import EmissionMatrix, TableScorer, Vocabulary, load_emission, save_emission
from seqdecode import cli as cli_mod
from seqdecode.cli import main
from seqdecode.maskctc import TableMLM
from seqdecode.transducer import TableTransducer

from conftest import make_vocab, random_emission, random_table_scorer
from test_lm import char_vocab, five_word_arpa


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def read_json(path):
    return json.loads(path.read_text())


def task_configs(tmp_path):
    """A small valid config for each task but decode, with its emission."""
    vocab = make_vocab(1, with_mask=True)
    emission_path = tmp_path / "e.json"
    save_emission(EmissionMatrix.from_logits(np.zeros((2, vocab.size))),
                  str(emission_path), "json")
    mlm_path, model_path = tmp_path / "mlm.json", tmp_path / "model.json"
    TableMLM(vocab.size, vocab.mask_id).save(str(mlm_path))
    TableTransducer(0, 1, 1, {(): np.log(np.full((1, 2), 0.5))}).save(str(model_path))
    common = {"vocab": vocab.to_dict(), "emission": str(emission_path)}
    return {
        "transducer": {"model": str(model_path), "transducer": {"beam_size": 2}},
        "maskctc": {**common, "mlm": str(mlm_path), "maskctc": {"threshold": 0.5}},
        "align": {**common, "labels": ["l0"]},
        "vad": {**common, "vad": {"on_threshold": 0.5}},
        "bench": {"bench": {"V": 8, "T": 4, "B": 2, "repeats": 1}},
    }


@pytest.fixture
def decode_setup(tmp_path, rng):
    vocab = make_vocab(2)
    em = random_emission(rng, 4, vocab.size)
    emission_path = tmp_path / "utt.json"
    save_emission(em, str(emission_path), "json")
    table = random_table_scorer(rng, 1, vocab.size)
    table_path = tmp_path / "table.json"
    table.save(str(table_path))
    config = {
        "vocab": vocab.to_dict(),
        "emission": str(emission_path),
        "scorers": {
            "att": {"type": "table", "path": str(table_path)},
            "ctc": {"type": "ctc_prefix"},
        },
        "beam": {"beam_size": 3, "weights": {"att": 0.7, "ctc": 0.3}, "max_steps": 3},
    }
    config_path = tmp_path / "run.json"
    write_json(config_path, config)
    return tmp_path, config, config_path


class TestDecode:
    def test_basic_run_writes_nbest(self, decode_setup):
        tmp_path, config, config_path = decode_setup
        out = tmp_path / "out.json"
        rc = main(["decode", "--config", str(config_path), "--output", str(out)])
        assert rc == 0
        payload = read_json(out)
        assert payload["nbest"]
        entry = payload["nbest"][0]
        assert set(entry) == {"tokens", "token_ids", "score", "scores"}
        scores = [e["score"] for e in payload["nbest"]]
        assert scores == sorted(scores, reverse=True)

    def test_same_seed_byte_identical(self, decode_setup):
        tmp_path, config, config_path = decode_setup
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["decode", "--config", str(config_path), "--output", str(out1),
                     "--seed", "7"]) == 0
        assert main(["decode", "--config", str(config_path), "--output", str(out2),
                     "--seed", "7"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sequential_flag_matches_batched(self, decode_setup):
        tmp_path, config, config_path = decode_setup
        out1, out2 = tmp_path / "seq.json", tmp_path / "bat.json"
        assert main(["decode", "--config", str(config_path), "--output", str(out1),
                     "--sequential"]) == 0
        assert main(["decode", "--config", str(config_path), "--output", str(out2)]) == 0
        assert read_json(out1)["nbest"] == read_json(out2)["nbest"]

    def test_multiple_emissions_in_input_order(self, decode_setup, rng):
        tmp_path, config, config_path = decode_setup
        vocab = make_vocab(2)
        second = tmp_path / "utt2.json"
        save_emission(random_emission(rng, 5, vocab.size), str(second), "json")
        out = tmp_path / "multi.json"
        rc = main([
            "decode", "--config", str(config_path),
            "--emission", config["emission"], "--emission", str(second),
            "--output", str(out),
        ])
        assert rc == 0
        payload = read_json(out)
        assert len(payload["utterances"]) == 2
        # single-emission runs must match the batch entries positionally
        for i, path in enumerate([config["emission"], str(second)]):
            solo = tmp_path / f"solo{i}.json"
            assert main(["decode", "--config", str(config_path), "--emission", path,
                         "--output", str(solo)]) == 0
            assert payload["utterances"][i]["nbest"] == read_json(solo)["nbest"]

    def test_oracle_flag_verifies_top1(self, decode_setup):
        tmp_path, config, config_path = decode_setup
        config["beam"] = {
            "beam_size": 64, "pre_beam_size": 64,
            "weights": {"att": 0.7, "ctc": 0.3}, "max_steps": 3,
        }
        cfg2 = tmp_path / "run-oracle.json"
        write_json(cfg2, config)
        out = tmp_path / "oracle.json"
        rc = main(["decode", "--config", str(cfg2), "--output", str(out), "--oracle"])
        assert rc == 0
        assert read_json(out)["oracle"]["match"] is True

    def test_oracle_mismatch_is_exit_1(self, decode_setup, monkeypatch, capsys):
        # three utterances at exhaustive width; the oracle of the second one is made wrong
        tmp_path, config, config_path = decode_setup
        config["emissions"] = [config.pop("emission")] * 3
        config["beam"].update(beam_size=64, pre_beam_size=64)
        write_json(config_path, config)
        oracle, calls = cli_mod.oracle_best_sequence, []

        def second_wrong(*args, **kwargs):
            calls.append(None)
            yseq, score = oracle(*args, **kwargs)
            return (yseq, score - 1.0) if len(calls) == 2 else (yseq, score)

        monkeypatch.setattr(cli_mod, "oracle_best_sequence", second_wrong)
        out = tmp_path / "oracle.json"
        assert main(["decode", "--config", str(config_path), "--output", str(out),
                     "--oracle"]) == 1
        assert [u["oracle"]["match"] for u in read_json(out)["utterances"]] == [True, False, True]
        assert capsys.readouterr().err == "oracle mismatch on 1 utterance(s)\n"

    def test_missing_config_is_exit_2(self, tmp_path):
        assert main(["decode", "--config", str(tmp_path / "nope.json")]) == 2

    def test_bad_emission_is_exit_3(self, decode_setup):
        tmp_path, config, config_path = decode_setup
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"T": 1, "V": 2, "logprobs": [[-0.1, -0.1]]}))
        rc = main(["decode", "--config", str(config_path), "--emission", str(bad)])
        assert rc == 3

    def test_unknown_scorer_weight_is_exit_2(self, decode_setup):
        tmp_path, config, config_path = decode_setup
        config["beam"]["weights"]["ghost"] = 1.0
        cfg2 = write_json(tmp_path / "bad-cfg.json", config)
        assert main(["decode", "--config", cfg2]) == 2


class TestTransducer:
    @pytest.fixture
    def model_path(self, tmp_path):
        rows = {
            (): np.log(np.array([[0.05, 0.05, 0.9], [0.05, 0.05, 0.9]])),
            (0,): np.log(np.array([[0.05, 0.05, 0.9], [0.05, 0.05, 0.9]])),
            (1,): np.log(np.array([[0.05, 0.05, 0.9], [0.05, 0.05, 0.9]])),
        }
        model = TableTransducer(1, 2, 2, rows)
        path = tmp_path / "model.json"
        model.save(str(path))
        return path

    def test_greedy_on_blank_dominant_model_is_empty(self, tmp_path, model_path):
        config = write_json(tmp_path / "t.json", {
            "model": str(model_path),
            "tokens": ["a", "b"],
            "transducer": {"algorithm": "greedy"},
        })
        out = tmp_path / "out.json"
        assert main(["transducer", "--config", config, "--output", str(out)]) == 0
        assert read_json(out)["nbest"][0]["tokens"] == []

    def test_beam_with_oracle_check(self, tmp_path, model_path):
        config = write_json(tmp_path / "t.json", {
            "model": str(model_path),
            "tokens": ["a", "b"],
            "transducer": {"algorithm": "beam", "beam_size": 8},
        })
        out = tmp_path / "out.json"
        rc = main(["transducer", "--config", config, "--output", str(out), "--oracle"])
        assert rc == 0
        assert read_json(out)["oracle"]["match"] is True

    @pytest.mark.parametrize("truncated", [False, True])
    def test_payload_says_truncated_only_when_it_was(self, tmp_path, model_path, monkeypatch,
                                                     truncated):
        decode = cli_mod.transducer_decode
        monkeypatch.setattr(cli_mod, "transducer_decode", lambda *args: dataclasses.replace(
            decode(*args), truncated=truncated))
        config = write_json(tmp_path / "t.json", {"model": str(model_path)})
        out = tmp_path / "out.json"
        assert main(["transducer", "--config", config, "--output", str(out)]) == 0
        payload = read_json(out)
        assert set(payload) == ({"nbest", "truncated"} if truncated else {"nbest"})
        assert payload.get("truncated", True) is True

    @pytest.mark.parametrize("cap", [1, None])
    def test_pop_cap_from_the_config(self, tmp_path, cap):
        # one frame in which label 0 repeats with probability 0.9: the beam
        # pops many times before B completions beat every active entry
        rows = {(): np.log(np.full((1, 3), 1 / 3)), (0,): np.log(np.array([[0.9, 0.05, 0.05]])),
                (1,): np.log(np.full((1, 3), 1 / 3))}
        path = tmp_path / "model.json"
        TableTransducer(1, 1, 2, rows).save(str(path))
        block = {"algorithm": "beam", "beam_size": 4}
        if cap is not None:
            block["max_pops_per_frame"] = cap
        config = write_json(tmp_path / "t.json", {"model": str(path), "transducer": block})
        out = tmp_path / "out.json"
        assert main(["transducer", "--config", config, "--output", str(out)]) == 0
        assert read_json(out).get("truncated", False) is (cap == 1)

    def test_lm_weight_without_lm_table_is_exit_2(self, tmp_path, model_path, capsys):
        config = write_json(tmp_path / "t.json", {
            "model": str(model_path),
            "transducer": {"algorithm": "beam", "lm_weight": 0.5},
        })
        assert main(["transducer", "--config", config]) == 2
        assert "no lm" in capsys.readouterr().err

    def test_greedy_with_lm_table_is_exit_2(self, tmp_path, model_path, capsys):
        lm_path = tmp_path / "lm.json"
        TableScorer(0, 2, {(): np.log(np.array([0.2, 0.8]))}).save(str(lm_path))
        config = write_json(tmp_path / "t.json", {
            "model": str(model_path),
            "transducer": {"algorithm": "greedy", "lm_table": str(lm_path),
                           "lm_weight": 0.5},
        })
        assert main(["transducer", "--config", config]) == 2
        assert "greedy" in capsys.readouterr().err

    def test_determinism(self, tmp_path, model_path):
        config = write_json(tmp_path / "t.json", {
            "model": str(model_path), "tokens": ["a", "b"],
            "transducer": {"algorithm": "tsd", "beam_size": 4, "max_exp_per_step": 2},
        })
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["transducer", "--config", config, "--output", str(a)]) == 0
        assert main(["transducer", "--config", config, "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestMaskCtc:
    def test_run(self, tmp_path):
        vocab = make_vocab(2, with_mask=True)
        probs = np.full((2, vocab.size), 0.01)
        probs[0, 1] = 0.5
        probs[1, 2] = 0.9
        em = EmissionMatrix.from_logits(np.log(probs))
        emission_path = tmp_path / "e.json"
        save_emission(em, str(emission_path), "json")
        mlm = TableMLM(vocab.size, vocab.mask_id)
        mlm_path = tmp_path / "mlm.json"
        mlm.save(str(mlm_path))
        config = write_json(tmp_path / "m.json", {
            "vocab": vocab.to_dict(),
            "emission": str(emission_path),
            "mlm": str(mlm_path),
            "maskctc": {"threshold": 0.4, "iterations": 2},
        })
        out = tmp_path / "out.json"
        assert main(["maskctc", "--config", config, "--output", str(out)]) == 0
        payload = read_json(out)
        assert payload["mlm_calls"] <= 2
        assert len(payload["tokens"]) == len(payload["token_ids"])

    def test_determinism(self, tmp_path):
        vocab = make_vocab(2, with_mask=True)
        em = EmissionMatrix.from_logits(np.log(np.full((3, vocab.size), 1.0)))
        emission_path = tmp_path / "e.json"
        save_emission(em, str(emission_path), "json")
        mlm_path = tmp_path / "mlm.json"
        TableMLM(vocab.size, vocab.mask_id).save(str(mlm_path))
        config = write_json(tmp_path / "m.json", {
            "vocab": vocab.to_dict(), "emission": str(emission_path),
            "mlm": str(mlm_path), "maskctc": {"threshold": 0.9, "iterations": 3},
        })
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["maskctc", "--config", config, "--output", str(a)]) == 0
        assert main(["maskctc", "--config", config, "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestAlignVad:
    def test_align_trivial_instance(self, tmp_path):
        vocab = make_vocab(1)
        probs = np.full((2, vocab.size), 0.01)
        probs[0, 0] = 0.9  # blank-heavy frame 0
        probs[1, 1] = 0.9  # label-heavy frame 1
        em = EmissionMatrix.from_logits(np.log(probs))
        emission_path = tmp_path / "e.json"
        save_emission(em, str(emission_path), "json")
        config = write_json(tmp_path / "a.json", {
            "vocab": vocab.to_dict(),
            "emission": str(emission_path),
            "labels": ["l0"],
        })
        out = tmp_path / "out.json"
        assert main(["align", "--config", config, "--output", str(out)]) == 0
        payload = read_json(out)
        assert payload["path"] == [0, 1]
        assert payload["spans"] == [{"token": 1, "start": 1, "end": 2}]

    def test_align_unreachable_is_exit_4(self, tmp_path):
        vocab = make_vocab(1)
        em = EmissionMatrix.from_logits(np.zeros((1, vocab.size)))
        emission_path = tmp_path / "e.json"
        save_emission(em, str(emission_path), "json")
        config = write_json(tmp_path / "a.json", {
            "vocab": vocab.to_dict(), "emission": str(emission_path),
            "labels": ["l0", "l0"],
        })
        assert main(["align", "--config", config]) == 4

    def test_vad_all_blank(self, tmp_path):
        vocab = make_vocab(1)
        probs = np.full((3, vocab.size), 1e-4)
        probs[:, 0] = 1.0
        em = EmissionMatrix.from_logits(np.log(probs))
        emission_path = tmp_path / "e.json"
        save_emission(em, str(emission_path), "json")
        config = write_json(tmp_path / "v.json", {
            "blank_id": 0, "emission": str(emission_path),
            "vad": {"on_threshold": 0.5},
        })
        out = tmp_path / "out.json"
        assert main(["vad", "--config", config, "--output", str(out)]) == 0
        assert read_json(out)["segments"] == [{"start": 0, "end": 3, "kind": "nonspeech"}]


class TestRawF32Emission:
    """A raw-f32 emission holds float32 values; every task prints, byte for
    byte, what it prints on the emission's JSON copy (float64)."""

    @pytest.mark.parametrize("task", ["decode", "align", "vad", "maskctc"])
    def test_stdout_equals_the_json_copys(self, task, tmp_path, rng, capsys):
        vocab = make_vocab(3, with_mask=True)
        logits = rng.normal(size=(24, vocab.size))
        logits[np.arange(24), rng.choice(vocab.label_ids(), size=24)] += 4.0
        raw, copy = tmp_path / "e.emis", tmp_path / "e.json"
        save_emission(EmissionMatrix.from_logits(logits), str(raw), "raw-f32")
        loaded = load_emission(str(raw))
        assert loaded.data.dtype == np.float32
        save_emission(loaded, str(copy), "json")
        table_path, mlm_path = tmp_path / "table.json", tmp_path / "mlm.json"
        random_table_scorer(rng, 1, vocab.size).save(str(table_path))
        TableMLM(vocab.size, vocab.mask_id).save(str(mlm_path))
        config = {
            "decode": {"vocab": vocab.to_dict(),
                       "scorers": {"att": {"type": "table", "path": str(table_path)},
                                   "ctc": {"type": "ctc_prefix"}},
                       "beam": {"beam_size": 4, "weights": {"att": 0.6, "ctc": 0.4}}},
            "align": {"vocab": vocab.to_dict(), "labels": ["l0", "l2", "l1"]},
            "vad": {"blank_id": vocab.blank_id, "vad": {"on_threshold": 0.5}},
            "maskctc": {"vocab": vocab.to_dict(), "mlm": str(mlm_path),
                        "maskctc": {"threshold": 0.9, "iterations": 2}},
        }[task]
        printed = []
        for path in (raw, copy):
            config_path = write_json(tmp_path / "run.json", {**config, "emission": str(path)})
            assert main([task, "--config", config_path]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1] and printed[0]


class TestBench:
    def test_tiny_bench_reports_equality(self, tmp_path):
        config = write_json(tmp_path / "b.json", {
            "bench": {"V": 8, "T": 6, "B": 2, "repeats": 1},
        })
        out = tmp_path / "report.json"
        rc = main(["bench", "--config", config, "--output", str(out), "--seed", "3"])
        assert rc == 0
        payload = read_json(out)
        assert payload["equal"] is True
        assert payload["speedup"] > 0
        assert set(payload["timings"]) == {"sequential", "batched"}
        for stats in payload["timings"].values():
            assert set(stats) == {"mean", "p50", "p95"}

    def test_bench_deterministic_payload_across_runs(self, tmp_path):
        config = write_json(tmp_path / "b.json", {
            "bench": {"V": 8, "T": 6, "B": 2, "repeats": 1},
        })
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["bench", "--config", config, "--output", str(out1), "--seed", "5"]) == 0
        assert main(["bench", "--config", config, "--output", str(out2), "--seed", "5"]) == 0
        p1, p2 = read_json(out1), read_json(out2)
        for key in ("equal", "hypothesis_digest", "config"):
            assert p1[key] == p2[key]

    def test_injected_mismatch_is_nonzero_exit(self, tmp_path, monkeypatch):
        import seqdecode.cli as cli_mod

        def corrupted(*args, **kwargs):
            from seqdecode.core import NBestEntry, NBestList
            return NBestList.from_entries([NBestEntry(yseq=(1, 2, 3), score=-1.0)])

        monkeypatch.setattr(cli_mod, "batch_beam_search", corrupted)
        config = write_json(tmp_path / "b.json", {
            "bench": {"V": 8, "T": 6, "B": 2, "repeats": 1},
        })
        out = tmp_path / "report.json"
        rc = main(["bench", "--config", config, "--output", str(out), "--seed", "3"])
        assert rc == 1
        payload = read_json(out)
        assert payload["equal"] is False
        assert payload["speedup"] is None


class TestConfigHardening:
    def test_scorer_missing_path_is_exit_2(self, decode_setup):
        tmp_path, config, _ = decode_setup
        config["scorers"]["att"] = {"type": "table"}  # no path
        cfg = write_json(tmp_path / "nopath.json", config)
        assert main(["decode", "--config", cfg]) == 2

    def test_non_numeric_beam_size_is_exit_2(self, decode_setup):
        tmp_path, config, _ = decode_setup
        config["beam"]["beam_size"] = "huge"
        cfg = write_json(tmp_path / "badbeam.json", config)
        assert main(["decode", "--config", cfg]) == 2

    def test_non_numeric_emission_is_exit_3(self, decode_setup):
        tmp_path, config, _ = decode_setup
        bad = tmp_path / "nonnum.json"
        bad.write_text(json.dumps({"T": 1, "V": 2, "logprobs": [["x", "y"]]}))
        assert main(["decode", "--config", write_json(tmp_path / "c.json", config),
                     "--emission", str(bad)]) == 3

    def test_emission_nested_a_level_too_deep_is_exit_3(self, decode_setup, capsys):
        tmp_path, _, config_path = decode_setup
        bad = tmp_path / "deep.json"
        half = -0.6931471805599453
        bad.write_text(json.dumps({"T": 1, "V": 2, "logprobs": [[[half], [half]]]}))
        assert main(["decode", "--config", str(config_path), "--emission", str(bad)]) == 3
        assert "emission must be 2-D, got shape (1, 2, 1)" in capsys.readouterr().err

    def test_emissions_key_holding_one_path_is_exit_2(self, decode_setup, capsys):
        tmp_path, config, _ = decode_setup
        config["emissions"] = config.pop("emission")
        assert main(["decode", "--config", write_json(tmp_path / "c.json", config)]) == 2
        assert "config key 'emissions' must be a list" in capsys.readouterr().err

    def test_emission_key_holding_a_list_is_exit_2(self, decode_setup, capsys):
        tmp_path, config, _ = decode_setup
        config["emission"] = [config["emission"]]
        assert main(["decode", "--config", write_json(tmp_path / "c.json", config)]) == 2
        assert "config key 'emission' must be one path" in capsys.readouterr().err

    def test_table_key_longer_than_its_order_is_exit_2(self, decode_setup, capsys):
        tmp_path, config, _ = decode_setup
        table = tmp_path / "long-key.json"
        row = [-0.6931471805599453] * 2 + [float("-inf")] * 3
        table.write_text(json.dumps({"context_order": 1, "vocab_size": 5,
                                     "rows": {"": row, "3,4": row}}))
        config["scorers"]["att"]["path"] = str(table)
        assert main(["decode", "--config", write_json(tmp_path / "c.json", config)]) == 2
        assert "longer than context_order" in capsys.readouterr().err

    def test_transducer_context_longer_than_its_order_is_exit_2(self, tmp_path, capsys):
        model = tmp_path / "long-key.json"
        mat = [[-0.6931471805599453, -0.6931471805599453]]
        model.write_text(json.dumps({"context_order": 0, "T": 1, "vocab_size": 1,
                                     "rows": {"": mat, "0": mat}}))
        config = write_json(tmp_path / "t.json", {"model": str(model)})
        assert main(["transducer", "--config", config]) == 2
        assert "longer than context_order" in capsys.readouterr().err

    def test_malformed_table_json_is_exit_3(self, decode_setup):
        tmp_path, config, _ = decode_setup
        broken = tmp_path / "broken-table.json"
        broken.write_text(json.dumps({"context_order": 0, "vocab_size": 5, "rows": []}))
        config["scorers"]["att"]["path"] = str(broken)
        cfg = write_json(tmp_path / "broken.json", config)
        assert main(["decode", "--config", cfg]) == 3


class TestErrorMapping:
    """Only reading the config maps to exit 2; an exception raised while
    decoding is a fault in the program and propagates."""

    @pytest.mark.parametrize("error", [ValueError, TypeError, KeyError])
    def test_error_inside_search_is_not_a_config_error(self, decode_setup, monkeypatch, error):
        _, _, config_path = decode_setup

        def broken_search(*args, **kwargs):
            raise error("fault inside the search")

        monkeypatch.setattr(cli_mod, "batch_beam_search", broken_search)
        with pytest.raises(error, match="fault inside the search"):
            main(["decode", "--config", str(config_path)])

    def test_error_inside_transducer_search_is_not_a_config_error(self, tmp_path, monkeypatch):
        rows = {(): np.log(np.full((1, 2), 0.5))}
        model_path = tmp_path / "model.json"
        TableTransducer(0, 1, 1, rows).save(str(model_path))
        config = write_json(tmp_path / "t.json", {"model": str(model_path)})

        def broken_decode(*args, **kwargs):
            raise ValueError("fault inside the search")

        monkeypatch.setattr(cli_mod, "transducer_decode", broken_decode)
        with pytest.raises(ValueError, match="fault inside the search"):
            main(["transducer", "--config", config])

    @pytest.mark.parametrize("edit", [
        lambda c: c.update(seed="seven"),
        lambda c: c.update(emissions=7),
        lambda c: c.update(emissions=[7]),
        lambda c: c["beam"].update(max_steps="three"),
        lambda c: c["beam"]["weights"].update(att="heavy"),
        lambda c: c.update(beam=["beam_size", 3]),
        lambda c: c["scorers"].update(att="table"),
        lambda c: c["vocab"].update(blank_id="zero"),
    ])
    def test_malformed_decode_config_value_is_exit_2(self, decode_setup, edit, capsys):
        tmp_path, config, _ = decode_setup
        edit(config)
        cfg = write_json(tmp_path / "bad.json", config)
        assert main(["decode", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("width", [3, 6])
    def test_decode_emission_width_other_than_vocab_is_exit_2(self, tmp_path, rng, width,
                                                             capsys):
        vocab = make_vocab(1)  # 4 tokens
        emission_path = tmp_path / "e.json"
        save_emission(random_emission(rng, 4, width), str(emission_path), "json")
        table_path = tmp_path / "table.json"
        random_table_scorer(rng, 1, width).save(str(table_path))
        cfg = write_json(tmp_path / "d.json", {
            "vocab": vocab.to_dict(), "emission": str(emission_path),
            "scorers": {"att": {"type": "table", "path": str(table_path)},
                        "ctc": {"type": "ctc_prefix"}},
            "beam": {"beam_size": 3, "weights": {"att": 0.7, "ctc": 0.3}, "max_steps": 3},
        })
        assert main(["decode", "--config", cfg]) == 2
        assert f"emission has {width} columns" in capsys.readouterr().err

    @pytest.mark.parametrize("width", [4, 7])
    def test_maskctc_emission_width_other_than_vocab_is_exit_2(self, tmp_path, width, capsys):
        vocab = make_vocab(1, with_mask=True)  # 5 tokens
        probs = np.full((2, width), 0.01)
        probs[:, width - 1] = 0.9  # the collapse emits the last column
        emission_path = tmp_path / "e.json"
        save_emission(EmissionMatrix.from_logits(np.log(probs)), str(emission_path), "json")
        mlm_path = tmp_path / "mlm.json"
        TableMLM(vocab.size, vocab.mask_id).save(str(mlm_path))
        cfg = write_json(tmp_path / "m.json", {
            "vocab": vocab.to_dict(), "emission": str(emission_path), "mlm": str(mlm_path),
        })
        assert main(["maskctc", "--config", cfg]) == 2
        assert f"emission has {width} columns" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", [0.0, 0.99])
    @pytest.mark.parametrize("mlm_size", [4, 7])
    def test_maskctc_mlm_size_other_than_vocab_is_exit_2(self, tmp_path, mlm_size, threshold,
                                                         capsys):
        """The size check does not wait for a masked position: at threshold
        0 nothing is masked and the masked LM is never asked."""
        vocab = make_vocab(2, with_mask=True)  # 6 tokens
        probs = np.full((2, vocab.size), 0.1)
        probs[:, 1] = 0.5
        emission_path = tmp_path / "e.json"
        save_emission(EmissionMatrix(np.log(probs)), str(emission_path), "json")
        mlm_path = tmp_path / "mlm.json"
        TableMLM(mlm_size, vocab.mask_id).save(str(mlm_path))
        cfg = write_json(tmp_path / "m.json", {
            "vocab": vocab.to_dict(), "emission": str(emission_path), "mlm": str(mlm_path),
            "maskctc": {"threshold": threshold},
        })
        assert main(["maskctc", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"masked-LM vocab_size {mlm_size} differs from the vocabulary's 6" in err

    @pytest.mark.parametrize("reserved", ["blank_id", "sos_id", "eos_id"])
    def test_mask_id_equal_to_a_reserved_id_is_exit_2(self, decode_setup, reserved, capsys):
        tmp_path, config, _ = decode_setup
        config["vocab"]["mask_id"] = config["vocab"][reserved]
        assert main(["decode", "--config", write_json(tmp_path / "mask.json", config)]) == 2
        assert f"mask_id must differ from {reserved}" in capsys.readouterr().err

    @pytest.mark.parametrize("blank_id", [-1, 9])
    def test_vad_blank_id_outside_emission_is_exit_2(self, tmp_path, blank_id, capsys):
        emission_path = tmp_path / "e.json"
        save_emission(EmissionMatrix.from_logits(np.zeros((3, 5))), str(emission_path), "json")
        cfg = write_json(tmp_path / "v.json", {
            "blank_id": blank_id, "emission": str(emission_path)})
        assert main(["vad", "--config", cfg]) == 2
        assert "blank_id" in capsys.readouterr().err

    def test_align_blank_id_outside_emission_is_exit_2(self, tmp_path, capsys):
        # blank is the last token, one past the emission's 3 columns
        vocab = Vocabulary(("<sos>", "<eos>", "a", "<blank>"), blank_id=3, sos_id=0, eos_id=1)
        emission_path = tmp_path / "e.json"
        save_emission(EmissionMatrix.from_logits(np.zeros((3, 3))), str(emission_path), "json")
        cfg = write_json(tmp_path / "a.json", {
            "vocab": vocab.to_dict(), "emission": str(emission_path), "labels": [2]})
        assert main(["align", "--config", cfg]) == 2
        assert "blank_id" in capsys.readouterr().err

    @pytest.mark.parametrize("task, edit, message", [
        ("align", {"labels": [0]}, "labels must not contain the blank id"),
        ("align", {"labels": [9]}, "label 9 outside vocabulary"),
        ("vad", {"vad": {"on_threshold": 1.5}}, "on_threshold must be in [0, 1]"),
        ("vad", {"vad": {"margin_frames": -1}}, "must be >= 0"),
    ])
    def test_ctc_tool_argument_checks_are_exit_2(self, tmp_path, task, edit, message, capsys):
        cfg = write_json(tmp_path / "c.json", {**task_configs(tmp_path)[task], **edit})
        assert main([task, "--config", cfg]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("task, kernel", [("align", "ctc_forced_align"), ("vad", "ctc_vad")])
    def test_error_inside_ctc_tool_is_not_a_config_error(self, tmp_path, monkeypatch, task,
                                                         kernel):
        def broken(*args, **kwargs):
            raise ValueError("fault inside the kernel")

        monkeypatch.setattr(cli_mod, kernel, broken)
        cfg = write_json(tmp_path / "c.json", task_configs(tmp_path)[task])
        with pytest.raises(ValueError, match="fault inside the kernel"):
            main([task, "--config", cfg])

    @pytest.mark.parametrize("block", [
        "beam", "beam.end_detect", "transducer", "maskctc", "vad", "bench"])
    def test_unknown_key_in_any_block_is_exit_2(self, decode_setup, block, capsys):
        tmp_path, config, _ = decode_setup
        configs = {"decode": config, **task_configs(tmp_path)}
        task = "decode" if block.startswith("beam") else block
        cfg = configs[task]
        assert main([task, "--config", write_json(tmp_path / "ok.json", cfg),
                     "--output", str(tmp_path / "out.json")]) == 0
        if block == "beam.end_detect":
            cfg["beam"]["end_detect"] = {"window": 2, "margn": -5.0}
        else:
            cfg[block]["beam_szie"] = 9
        assert main([task, "--config", write_json(tmp_path / "typo.json", cfg)]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_unknown_key_in_a_scorer_entry_is_exit_2(self, decode_setup, capsys):
        tmp_path, config, _ = decode_setup
        config["scorers"]["att"]["weight"] = 5.0
        assert main(["decode", "--config", write_json(tmp_path / "typo.json", config)]) == 2
        assert "unknown scorers.att config keys: ['weight']" in capsys.readouterr().err

    @pytest.mark.parametrize("task", ["decode", "transducer", "maskctc", "align", "vad", "bench"])
    def test_unknown_top_level_key_is_exit_2(self, decode_setup, task, capsys):
        tmp_path, config, _ = decode_setup
        cfg = {"decode": config, **task_configs(tmp_path)}[task]
        argv = [task, "--output", str(tmp_path / "out.json"), "--config"]
        assert main(argv + [write_json(tmp_path / "ok.json", cfg)]) == 0
        cfg["sead"] = 3
        assert main(argv + [write_json(tmp_path / "typo.json", cfg)]) == 2
        assert "unknown top-level config keys: ['sead']" in capsys.readouterr().err

    def test_word_lm_scorer_entries_take_their_keys(self, tmp_path, rng):
        tokens = ("<blank>", "a", "b", "<space>", "<eos>", "<sos>")
        vocab = Vocabulary(tokens=tokens, blank_id=0, sos_id=5, eos_id=4)
        arpa = tmp_path / "lm.arpa"
        arpa.write_text("\\data\\\nngram 1=4\n\n\\1-grams:\n-0.5 </s>\n-0.5 <s>\n"
                        "-0.3 a\n-0.4 b\n\n\\end\\\n")
        lexicon = tmp_path / "words.txt"
        lexicon.write_text("a\nb\n")
        table = tmp_path / "chars.json"
        random_table_scorer(rng, 1, vocab.size).save(str(table))
        emission = tmp_path / "e.json"
        save_emission(random_emission(rng, 4, vocab.size), str(emission), "json")
        config = {
            "vocab": vocab.to_dict(), "emission": str(emission),
            "scorers": {
                "ml": {"type": "multilevel", "arpa": str(arpa), "char_table": str(table),
                       "delimiter_id": 3},
                "la": {"type": "lookahead", "arpa": str(arpa), "lexicon": str(lexicon)},
                "ctc": {"type": "ctc_prefix"},
            },
            "beam": {"beam_size": 2, "weights": {"ml": 0.5, "la": 0.5, "ctc": 1.0}},
        }
        out = tmp_path / "out.json"
        cfg = write_json(tmp_path / "lm.json", config)
        assert main(["decode", "--config", cfg, "--output", str(out)]) == 0
        assert read_json(out)["nbest"]
        config["scorers"]["la"]["char_table"] = str(table)  # a multilevel key
        assert main(["decode", "--config", write_json(tmp_path / "bad.json", config)]) == 2

    def test_lookahead_lexicon_word_longer_than_the_recursion_limit(self, tmp_path, rng):
        tokens = ("<blank>", "a", "b", "<space>", "<eos>", "<sos>")
        vocab = Vocabulary(tokens=tokens, blank_id=0, sos_id=5, eos_id=4)
        arpa = tmp_path / "lm.arpa"
        arpa.write_text("\\data\\\nngram 1=4\n\n\\1-grams:\n-0.5 </s>\n-0.5 <s>\n"
                        f"-0.3 a\n-0.4 {'ab' * 2500}\n\n\\end\\\n")
        lexicon = tmp_path / "words.txt"
        lexicon.write_text(f"a\n{'ab' * 2500}\n")
        emission = tmp_path / "e.json"
        save_emission(random_emission(rng, 4, vocab.size), str(emission), "json")
        config = {
            "vocab": vocab.to_dict(), "emission": str(emission),
            "scorers": {"la": {"type": "lookahead", "arpa": str(arpa), "lexicon": str(lexicon)},
                        "ctc": {"type": "ctc_prefix"}},
            "beam": {"beam_size": 2, "weights": {"la": 0.5, "ctc": 1.0}},
        }
        out = tmp_path / "out.json"
        assert main(["decode", "--config", write_json(tmp_path / "lm.json", config),
                     "--output", str(out)]) == 0
        assert read_json(out)["nbest"]

    @pytest.mark.parametrize("task", ["maskctc", "align", "vad"])
    def test_single_emission_tasks_reject_a_second_path(self, tmp_path, task, capsys):
        cfg = task_configs(tmp_path)[task]
        argv = [task, "--config", write_json(tmp_path / "c.json", cfg)]
        assert main(argv) == 0
        assert main(argv + ["--emission", cfg["emission"],
                            "--emission", str(tmp_path / "nonexistent.json")]) == 2
        assert "exactly one emission path, got 2" in capsys.readouterr().err

    def test_malformed_values_of_other_tasks_are_exit_2(self, tmp_path):
        vocab = make_vocab(1)
        emission_path = tmp_path / "e.json"
        save_emission(EmissionMatrix.from_logits(np.zeros((2, vocab.size))),
                      str(emission_path), "json")
        vad = write_json(tmp_path / "v.json", {
            "blank_id": 0, "emission": str(emission_path), "vad": {"on_threshold": "high"}})
        align = write_json(tmp_path / "a.json", {
            "vocab": vocab.to_dict(), "emission": str(emission_path), "labels": [{"id": 1}]})
        bench = write_json(tmp_path / "b.json", {"bench": {"V": "many"}})
        rows = {(): np.log(np.full((1, 2), 0.5))}
        model_path = tmp_path / "model.json"
        TableTransducer(0, 1, 1, rows).save(str(model_path))
        transducer = write_json(tmp_path / "t.json", {
            "model": str(model_path), "transducer": {"beam_size": "wide"}})
        for task, cfg in (("vad", vad), ("align", align), ("bench", bench),
                          ("transducer", transducer)):
            assert main([task, "--config", cfg]) == 2, task


class TestWordLMFiles:
    """A word LM file the decoder cannot use is a format error (exit 3)
    with one line on stderr, never a traceback or a config error."""

    @pytest.fixture
    def lookahead_setup(self, tmp_path):
        """A look-ahead decode over lexicon cab / ad, an 8-token letter
        vocabulary and a 12-frame emission; returns (config, arpa path)."""
        vocab = char_vocab()
        emission = tmp_path / "e.json"
        logits = np.random.default_rng(1).normal(size=(12, vocab.size))
        save_emission(EmissionMatrix.from_logits(logits), str(emission), "json")
        lexicon = tmp_path / "words.txt"
        lexicon.write_text("cab\nad\n", encoding="utf-8")
        arpa = tmp_path / "lm.arpa"
        config = {
            "vocab": vocab.to_dict(), "emission": str(emission),
            "scorers": {"la": {"type": "lookahead", "arpa": str(arpa), "lexicon": str(lexicon)},
                        "ctc": {"type": "ctc_prefix"}},
            "beam": {"beam_size": 2, "weights": {"la": 1.0, "ctc": 0.5}},
        }
        return write_json(tmp_path / "c.json", config), arpa

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    def test_non_finite_log_probability_is_exit_3(self, lookahead_setup, value, capsys):
        config, arpa = lookahead_setup
        five_word_arpa(arpa, value)
        assert main(["decode", "--config", config]) == 3
        err = capsys.readouterr().err
        assert err == f"format error: line 5: log-probability '{value}' is nan or +inf\n"

    def test_minus_inf_log_probability_decodes(self, lookahead_setup, tmp_path):
        config, arpa = lookahead_setup
        five_word_arpa(arpa, "-inf")
        out = tmp_path / "out.json"
        assert main(["decode", "--config", config, "--output", str(out)]) == 0
        assert read_json(out)["nbest"]

    @pytest.mark.parametrize("which", ["arpa", "lexicon"])
    def test_a_file_that_is_not_utf8_is_exit_3(self, lookahead_setup, which, capsys):
        config, arpa = lookahead_setup
        five_word_arpa(arpa, "-0.3")
        path = arpa if which == "arpa" else arpa.parent / "words.txt"
        path.write_bytes(path.read_text(encoding="utf-8").replace("cab", "c\xe1b")
                         .encode("latin-1"))
        assert main(["decode", "--config", config]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"format error: {path} is not UTF-8 text: ")
        assert err.count("\n") == 1
