"""The benchmark's four tiny workloads, run at seed 3 untraced and traced,
decode to the digests they have always had. A digest covers the top-1
sequence and rounded score of every decoder on the first requests, so a
selection fast path that reorders or drops a hypothesis changes it. The
traced run's scorer proxies forward only ``select_state``, so it takes the
default ``select_states`` loop, where the untraced run takes the CTC batch;
and the CTC proxy's batched kernel takes no ``keep``, so the traced search
scores every CTC cell where the untraced one prunes by bounds. The
``perfbench`` fixture lives in conftest.py."""

import argparse

import pytest

DIGESTS = {"wide-beam": "8c297c557b868d1d", "long-form": "7157d4d4b66dfdcb",
           "char-word-lm": "04b139cd2ab388b7", "transducer": "bf097cc04650f177"}


def check_digest(perfbench, workload, trace, tmp_path):
    bench, smoke = perfbench
    args = argparse.Namespace(workload=workload, seed=3, seconds=0.0, trace=trace)
    out = bench.measure(args, smoke.TINY[workload](), str(tmp_path))
    assert out["failed"] == 0, out["failures"][:3]
    assert out["report"]["digest"].startswith(DIGESTS[workload])


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_tiny_workload_digest_is_unchanged(perfbench, workload, tmp_path):
    check_digest(perfbench, workload, 0, tmp_path)


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_traced_tiny_workload_gives_the_same_digest(perfbench, workload, tmp_path):
    check_digest(perfbench, workload, 1, tmp_path)
