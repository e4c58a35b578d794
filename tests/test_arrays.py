"""Constructors that keep an array hold a read-only array of their own."""

import numpy as np
import pytest

from emovox.audio import Waveform
from emovox.evaluation import FoldOutcome
from emovox.features import FeatureVector


def fold_outcome(confusion):
    return FoldOutcome(fold=0, c=1.0, gamma=1.0, confusion=confusion, uar=0.5, acc=0.5,
                       sen=None, spe=None, test_count=0, converged=True)


@pytest.mark.parametrize("make, field, values", [
    (lambda a: Waveform(a, 8000), "samples", np.zeros(100)),
    (lambda a: FeatureVector("phonation", a), "values", np.zeros(28)),
    (fold_outcome, "confusion", np.zeros((2, 2), dtype=np.int64)),
], ids=["Waveform", "FeatureVector", "FoldOutcome"])
def test_constructor_leaves_the_caller_array_writable(make, field, values):
    kept = getattr(make(values), field)
    assert values.flags.writeable
    assert not kept.flags.writeable
    values[...] = 1
    assert not kept.any()
