"""The finite-difference checks catch a wrong gradient entry: a returned
gradient that is off by 1e-3 in its first, a middle or its last entry reads
above the 1e-4 bound."""

import pytest

from hybridstream import baseline, checks, estimators, recognition

GRADIENTS = {"recognition": (recognition, "rec_gradients",
                             checks.gradcheck_recognition),
             "mf-bp": (estimators, "mf_bp_gradients", checks.gradcheck_mf_bp),
             "mlp": (baseline, "mlp_gradients", checks.gradcheck_mlp)}


@pytest.mark.parametrize("name", list(GRADIENTS))
def test_unchanged_gradient_passes(name):
    assert GRADIENTS[name][2]() < 1e-4


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("name", list(GRADIENTS))
def test_one_wrong_entry_fails_the_check(name, where, monkeypatch):
    module, function, check = GRADIENTS[name]
    exact = getattr(module, function)
    bumped = []

    def off_by_one_entry(*args, **kwargs):
        grads = exact(*args, **kwargs)
        i = {"first": 0, "middle": grads.data.size // 2, "last": -1}[where]
        grads.data[i] += 1e-3
        bumped.append(i)
        return grads

    monkeypatch.setattr(module, function, off_by_one_entry)
    assert check() > 1e-4
    assert len(bumped) == 1
