"""Every concrete scorer of the package has a batch kernel of its own: each
``FullScorer`` subclass defines ``batch_score`` and each ``PartialScorer``
subclass ``batch_score_partial``. The base-class versions score one
hypothesis at a time, which the batched search is not meant to run.
Successor states are the other way round: only the CTC prefix scorer
overrides ``select_states``."""

import importlib
import inspect
import pkgutil

import numpy as np

import seqdecode
from seqdecode import FullScorer, PartialScorer
from seqdecode.scorers import _Scorer

KERNELS = {FullScorer: "batch_score", PartialScorer: "batch_score_partial"}


def package_classes():
    """Every class defined in a module of the package."""
    classes = []
    for info in pkgutil.iter_modules(seqdecode.__path__):
        module = importlib.import_module(f"seqdecode.{info.name}")
        classes.extend(cls for _, cls in inspect.getmembers(module, inspect.isclass)
                       if cls.__module__ == module.__name__)
    return classes


def missing_kernels(classes):
    """Names of the concrete scorers among ``classes`` whose own body lacks
    the batch kernel of their interface."""
    return sorted(cls.__name__ for cls in classes for base, kernel in KERNELS.items()
                  if issubclass(cls, base) and not inspect.isabstract(cls)
                  and kernel not in vars(cls))


def batch_selections(classes):
    """Names of the scorers among ``classes`` that override
    ``_Scorer.select_states``, in their own body or a base's."""
    return sorted(cls.__name__ for cls in classes if issubclass(cls, _Scorer)
                  and cls.select_states is not _Scorer.select_states)


def test_only_the_ctc_scorer_batches_its_successors():
    """Every other scorer gives its successors by ``select_state`` alone,
    which the base ``select_states`` loops over. The CTC prefix scorer's
    batch lets the next scoring call run one recursion for all the kept
    successors. The word LMs' and the table's batch selections saved
    nothing a whole decode showed, so a batch selection returns only with
    an end-to-end measurement that shows its gain."""
    assert batch_selections(package_classes()) == ["CTCPrefixScorer"]


def test_checker_sees_a_scorer_that_batches_its_successors():
    class Looping(FullScorer):
        def init_state(self, emission):
            return None

        def score(self, prefix, state, emission):
            return np.zeros(2), state

    class Batching(Looping):
        def select_states(self, scored, rows, tokens):
            return [None] * len(rows)

    class Inherits(Batching):
        pass

    class OneCell(Looping):
        def select_state(self, scored_state, token):
            return token

    assert batch_selections([Looping, Batching, Inherits, OneCell, FullScorer]) == [
        "Batching", "Inherits"]


def test_every_package_scorer_has_its_own_kernel():
    scorers = [cls for cls in package_classes() if issubclass(cls, tuple(KERNELS))]
    assert {"TableScorer", "CTCPrefixScorer", "MultiLevelLMScorer",
            "LookAheadLMScorer"} <= {cls.__name__ for cls in scorers}
    assert missing_kernels(scorers) == []


def test_checker_sees_a_scorer_without_a_kernel():
    class Looping(FullScorer):
        def init_state(self, emission):
            return None

        def score(self, prefix, state, emission):
            return np.zeros(2), state

    class Kernel(Looping):
        def batch_score(self, prefixes, states, emission):
            return np.zeros((len(states), 2)), list(states)

    class Inherits(Kernel):
        pass

    class Abstract(FullScorer):
        pass

    class Partial(PartialScorer):
        def init_state(self, emission):
            return None

        def score_partial(self, prefix, candidates, state, emission):
            return np.zeros(len(candidates)), state

    assert missing_kernels([Looping, Kernel, Inherits, Abstract, Partial]) == [
        "Inherits", "Looping", "Partial"]
