"""Every concrete scorer of the package has a batch kernel of its own: each
``FullScorer`` subclass defines ``batch_score`` and each ``PartialScorer``
subclass ``batch_score_partial``. The base-class versions score one
hypothesis at a time, which the batched search is not meant to run."""

import importlib
import inspect
import pkgutil

import numpy as np

import seqdecode
from seqdecode import FullScorer, PartialScorer

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
