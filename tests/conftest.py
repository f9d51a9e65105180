"""Fixtures shared by the test modules."""

import sys

import numpy as np
import pytest

from coresel import oracles
from coresel.oracles import mu_terms


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
                score, grad = np.abs(ctx.scores()).max(), np.abs(mu_terms(ctx, 0.0)).max()
                assert score >= 1e-9 * grad, (
                    f"greedy selects at the pool's own optimum: max |score| {score:.1e}, "
                    f"max |gradient| {grad:.1e}")
                checked.append((score, grad))
                return _select(ctx, *args, **kwargs)
            monkeypatch.setattr(module, "select_greedy", guarded)
        return checked
    return install


@pytest.fixture
def oracle_entries():
    """Run a call under ``sys.setprofile`` and return the sorted names of
    the functions defined in ``coresel/oracles.py`` that it entered."""
    def entries(call):
        entered = set()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == oracles.__file__:
                entered.add(frame.f_code.co_name)

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            call()
        finally:
            sys.setprofile(previous)
        return sorted(entered)
    return entries
