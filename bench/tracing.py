"""Per-layer spans for the traced run.

The public functions of planebranch are wrapped from outside: each wrapper
counts its calls and adds up its self time, which is the span's duration
minus the time of the spans that ran inside it.  A function that another
module imports by name is rebound there too, so every call site goes
through the wrapper.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

from workloads import SUITES

# metric prefix -> (module, attribute); "Class.method" wraps a method
LAYERS = {
    "series.TSeries.mul": ("planebranch.series", "TSeries.__mul__"),
    "series.bipoly_pullback": ("planebranch.series", "bipoly_pullback"),
    "series.series_root_unit": ("planebranch.series", "series_root_unit"),
    "branch.PuiseuxParam": ("planebranch.branch", "PuiseuxParam.__init__"),
    "valuation.lambda_set": ("planebranch.valuation", "lambda_set"),
    "valuation.form_witnesses": ("planebranch.valuation", "form_witnesses"),
    "valuation.function_witnesses": ("planebranch.valuation", "function_witnesses"),
    "valuation.integrand": ("planebranch.valuation", "integrand"),
    "normalform.apply_coordinate_change": ("planebranch.normalform", "apply_coordinate_change"),
    "normalform.eliminate_term": ("planebranch.normalform", "eliminate_term"),
    "normalform.compose_changes": ("planebranch.normalform", "compose_changes"),
    "normalform.to_normal_form": ("planebranch.normalform", "to_normal_form"),
    "catalog.run_reproduction": ("planebranch.catalog", "run_reproduction"),
    "cli.main": ("planebranch.cli", "main"),
}
COUNTED = (
    "series.TSeries.mul", "series.bipoly_pullback", "series.series_root_unit",
    "branch.PuiseuxParam", "valuation.lambda_set", "valuation.form_witnesses",
    "valuation.function_witnesses", "valuation.integrand",
    "normalform.apply_coordinate_change", "normalform.eliminate_term",
    "normalform.compose_changes",
)
SELF_ONLY = ("normalform.to_normal_form", "cli.main")


class Tracer:
    def __init__(self):
        self.enabled = True
        self.calls = Counter()
        self.self_s = Counter()
        self.suite_s = defaultdict(list)
        self.coeff_bits_max = 0
        self._child = []  # time spent in child spans, one entry per open span

    def wrap(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self._child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.calls[name] += 1
                self.self_s[name] += dt - self._child.pop()
                if self._child:
                    self._child[-1] += dt
            if after is not None:
                after(args, result, dt)
            return result
        return wrapper

    def _after_change(self, args, branch, dt):
        for c in branch.terms.values():
            bits = max(abs(c.numerator).bit_length(), c.denominator.bit_length())
            if bits > self.coeff_bits_max:
                self.coeff_bits_max = bits

    def _after_suite(self, args, report, dt):
        self.suite_s[args[0]].append(dt)

    def install(self):
        hooks = {
            "normalform.apply_coordinate_change": self._after_change,
            "catalog.run_reproduction": self._after_suite,
        }
        modules = [m for n, m in list(sys.modules.items())
                   if n == "planebranch" or n.startswith("planebranch.")]
        for name, (module, attr) in LAYERS.items():
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, cls.__dict__[meth], hooks.get(name)))
                continue
            orig = getattr(owner, attr)
            wrapper = self.wrap(name, orig, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)

    def metrics(self, ops: int) -> dict:
        """Per-layer metrics, per completed operation where they are totals."""
        ops = max(ops, 1)
        out = {}
        for name in COUNTED:
            out[f"{name}.calls"] = (self.calls[name] / ops, "calls/op")
            out[f"{name}.self_s"] = (self.self_s[name] / ops, "s/op")
        for name in SELF_ONLY:
            out[f"{name}.self_s"] = (self.self_s[name] / ops, "s/op")
        out["normalform.coeff_bits_max"] = (self.coeff_bits_max, "bits")
        for suite in SUITES:
            times = self.suite_s.get(suite)
            out[f"catalog.suite_{suite}_s"] = (statistics.median(times) if times else 0.0, "s")
        return out
