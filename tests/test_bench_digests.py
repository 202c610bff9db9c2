"""The benchmark's four tiny workloads, run at seed 3 untraced and traced,
decode to the digests they have always had. A digest covers the top-1
sequence and rounded score of every decoder on the first requests, so a
selection fast path that reorders or drops a hypothesis changes it. The
traced run's scorer proxies forward only ``select_state``, so it takes the
default ``select_states`` loop and the CTC scorer's list of pending states,
where the untraced run takes the CTC batch."""

import argparse
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DIGESTS = {"wide-beam": "8c297c557b868d1d", "long-form": "7157d4d4b66dfdcb",
           "char-word-lm": "04b139cd2ab388b7", "transducer": "bf097cc04650f177"}


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's ``run`` and ``smoke`` modules. They import their siblings
    by bare names (``run``, ``layers``, ``workloads``, ...), so perfbench/ is
    on sys.path and those names are in sys.modules only while this module's
    tests run; both are restored afterwards."""
    names = {p.stem for p in PERFBENCH.glob("*.py")}
    saved_path = list(sys.path)
    saved = {name: sys.modules.pop(name) for name in names if name in sys.modules}
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("run"), importlib.import_module("smoke")
    finally:
        sys.path[:] = saved_path
        for name in names:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


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
