"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def off_optimum_guard(monkeypatch):
    """Wrap ``select_greedy`` as each given module binds it, so that every
    context greedy selects on is checked to score off its own optimum.

    At a pool's own optimum its summed gradient vanishes, so every score is
    round-off next to the per-sample gradients and ``mu`` changes nothing.
    Returns the list of checked ``(max |score|, max |gradient|)`` pairs.
    """
    checked = []

    def install(*modules):
        for module in modules:
            def guarded(ctx, *args, _select=module.select_greedy, **kwargs):
                score, grad = np.abs(ctx.scores()).max(), np.abs(ctx.grads).max()
                assert score >= 1e-9 * grad, (
                    f"greedy selects at the pool's own optimum: max |score| {score:.1e}, "
                    f"max |gradient| {grad:.1e}")
                checked.append((score, grad))
                return _select(ctx, *args, **kwargs)
            monkeypatch.setattr(module, "select_greedy", guarded)
        return checked
    return install
