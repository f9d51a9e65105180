"""Spans around calls into the coresel modules, installed from outside.

The tracer replaces each target function with a timing wrapper at every
place a caller can look it up: the defining module's attribute and any
``from ... import`` binding of the same object in another loaded coresel
module (``harness`` and ``cli`` bind ``build_context``/``select_greedy``
that way, ``influence`` binds ``cg_solve``). Methods are patched on their
class. A target that no longer exists is reported as missing and its
metrics read zero, so a later refactor that deletes a function cannot
crash the benchmark. Nothing in ``src/`` is edited; :meth:`Tracer.remove`
restores every binding.

Self time is a span's duration minus the time of the wrapped spans it
encloses, so the self times of nested calls add up to the traced wall time
without double counting.
"""

import functools
import importlib
import sys
import time

# (module, qualified name) of every wrapped function, grouped by layer.
TARGETS = (
    ("numkit", "cg_solve"),
    ("models", "stack_samples"),
    ("models", "set_hvp"),
    ("models", "grad_matrix"),
    ("models", "grad_sum"),
    ("models", "hvp_matrix"),
    ("models", "dense_hessian"),
    ("models", "fit"),
    ("models", "loss_sum"),
    ("models", "accuracy"),
    ("influence", "build_context"),
    ("influence", "InfluenceContext.solve"),
    ("influence", "regularizer_taylor_grad"),
    ("selection", "select_greedy"),
    ("selection", "select_reservoir"),
    ("harness", "run_continual"),
    ("harness", "kendall_tau"),
    ("harness", "loo_retrain_delta"),
    ("cli", "write_artifacts"),
)


def _cg_iterations(args, result):
    return result.iterations


def _stacked_rows(args, result):
    return len(result[0])


def _greedy_drops(args, result):
    return len(result[1].drop_order)


def _tau_pairs(args, result):
    n = len(args[0])
    return n * (n - 1) // 2


# Work counts read from a call's arguments or return value:
# metric name -> (target, extractor(args, result)).
COUNTS = {
    "numkit.cg_solve.iterations": ("numkit.cg_solve", _cg_iterations),
    "models.stack_samples.rows": ("models.stack_samples", _stacked_rows),
    "selection.select_greedy.drops": ("selection.select_greedy", _greedy_drops),
    "harness.kendall_tau.pairs": ("harness.kendall_tau", _tau_pairs),
}

PACKAGE = "coresel"


def target_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname}"


class Tracer:
    """Collects per-function call counts, self time and work counts."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.calls = {target_name(*t): 0 for t in self.targets}
        self.self_s = {target_name(*t): 0.0 for t in self.targets}
        self.counts = {name: 0 for name in COUNTS}
        self.missing = []
        self.unreadable = set()
        self._child_time = []          # one accumulator per open span
        self._patches = []             # (owner, attribute, original)

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for module_name, qualname in self.targets:
            name = target_name(module_name, qualname)
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            self._patch(owner, attr, original, wrapper)
            if not path:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original and module is not owner:
                            self._patch(module, key, original, wrapper)
        return self

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        counters = [(metric, extract) for metric, (target, extract) in COUNTS.items()
                    if target == name]
        stack = self._child_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += span
                self.calls[name] += 1
                self.self_s[name] += span - children
            for metric, extract in counters:
                try:
                    self.counts[metric] += extract(args, result)
                except (AttributeError, IndexError, TypeError):
                    self.unreadable.add(metric)
            return result

        return wrapper

    def metrics(self) -> dict:
        """Per-layer metric values by name (unit-free numbers)."""
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counts)
        cg_calls = self.calls.get("numkit.cg_solve", 0)
        out["numkit.cg_solve.iterations_per_call"] = (
            self.counts["numkit.cg_solve.iterations"] / cg_calls if cg_calls else 0.0)
        loo_calls = self.calls.get("harness.loo_retrain_delta", 0)
        out["models.fit.calls_per_loo"] = (
            self.calls.get("models.fit", 0) / loo_calls if loo_calls else 0.0)
        return out
