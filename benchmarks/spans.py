"""Span tracer that wraps icsim's public callables from outside the program.

Each wrapped call is a span.  Spans are aggregated in memory per
(span name, parent span name) into a call count, a total time and a self
time (the total minus the time of wrapped spans inside it).  Nothing is
appended per call, so a run with millions of wrapped calls stays small.

A name is patched where callers look it up: a module-level function is
replaced in every icsim module that holds it (``icsim.simulate.draw_hash``
as well as ``icsim.hashing.draw_hash``), a method on its class.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# Phase spans mark the boundaries of one ``icsim eval`` job.  They are the
# only spans of an untraced run and are patched in ``icsim.cli`` alone, so
# each wraps exactly the call ``cmd_eval`` makes.
PHASES = {
    "phase.setup": ["cli:build_engine"],
    "phase.trials": ["cli:run_trials", "cli:batch_round_trials"],
    "phase.estimate": ["cli:measure_sim_error"],
    "phase.budget": ["cli:protocol3_tv_budget", "cli:protocol4_tv_budget",
                     "cli:protocol5_tv_budget",
                     "simulate:SlepianWolfCoder.analytic_error_bound",
                     "simulate:InteractiveSWCoder.analytic_error_bound"],
}

_ENGINES = ("SlepianWolfCoder", "InteractiveSWCoder", "RoundSimulator",
            "ImprovedRoundSimulator", "ProtocolSimulator")

# Layer spans of the traced run, named ``<module>.<what>``.  A module-level
# function is given as ``module:name`` and patched in every icsim module
# that holds it; ``module:Class.method`` patches the class.
LAYERS = {
    "probcore.sample": ["probcore:JointSource.sample"],
    "probcore.source": ["probcore:dsbs_source", "probcore:product_source"],
    "probcore.spectrum": ["probcore:spectrum",
                          "probcore:SpectrumTable.from_atoms",
                          "probcore:auto_slice_config"],
    "protocol.law": ["protocol:send_value_protocol",
                     "protocol:data_exchange_protocol",
                     "protocol:constant_protocol",
                     "protocol:xor_reply_protocol",
                     "protocol:noisy_send_protocol"],
    "protocol.round_view": ["protocol:TranscriptLaw.round_view"],
    "simulate.round_spectrum": ["simulate:round_density_spectrum"],
    "simulate.build": [f"simulate:{c}.__init__" for c in _ENGINES],
    "simulate.driver": ["simulate:run_trials", "simulate:batch_round_trials"],
    "simulate.run": [f"simulate:{c}.run" for c in _ENGINES],
    "hashing.draw": ["hashing:draw_hash"],
    "hashing.apply": ["hashing:HashFamily.apply_bits",
                      "hashing:HashFamily.apply_packed"],
    "hashing.enumerate": ["hashing:enumerate_family"],
    "evaluate.true_law": [f"simulate:{c}.true_view_law" for c in _ENGINES],
    "evaluate.exact_law": ["evaluate:exact_view_law"]
                          + [f"simulate:{c}.exact_view_law" for c in _ENGINES
                             if c != "ImprovedRoundSimulator"],
}

# Targets whose calls also feed a work counter:
# target -> (counter name, f(args, result) -> amount).  Counters add up,
# except ``protocol.law_bytes``, the size of the largest law built.
_COUNTERS = {
    "probcore:SpectrumTable.from_atoms": (
        "probcore.spectrum_atoms", lambda args, result: len(args[1])),
    **{t: ("protocol.law_bytes",
           lambda args, result: result.p_tau_given_xy.nbytes)
       for t in LAYERS["protocol.law"]},
}


class Tracer:
    """Aggregating span recorder plus the patches that feed it."""

    def __init__(self):
        self.stats: dict = {}     # (name, parent) -> [calls, total_s, self_s]
        self.counts: dict = {}    # name -> work items counted at the span
        self.captured: dict = {}  # phase name -> last return value
        self._stack = [["", 0.0]]  # root frame
        self._undo: list = []     # (owner, attribute, original value)

    def reset(self):
        self.stats = {}
        self.counts = {}
        self.captured = {}

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, fn, capture: bool = False, counter=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                parent[1] += dt
                key = (name, parent[0])
                rec = self.stats.get(key)
                if rec is None:
                    rec = self.stats[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if capture:
                self.captured[name] = result
            if counter is not None:
                key, amount = counter
                value = amount(args, result)
                old = self.counts.get(key, 0)
                self.counts[key] = (max(old, value) if key.endswith("_bytes")
                                    else old + value)
            return result
        return wrapper

    def wrap_iter(self, name: str, fn):
        """Wrap a generator function: each ``next`` is one span.

        Only ``enumerate_family`` is wrapped this way; its items are counted
        as ``hashing.families``.
        """
        step = self.wrap(name, next)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            items = 0
            try:
                while True:
                    try:
                        item = step(it)
                    except StopIteration:
                        return
                    items += 1
                    yield item
            finally:
                self.counts["hashing.families"] = (
                    self.counts.get("hashing.families", 0) + items)
        return wrapper

    # -- queries ---------------------------------------------------------------

    def calls(self, name: str, outermost: bool = False) -> int:
        return sum(r[0] for (n, p), r in self.stats.items()
                   if n == name and not (outermost and p == name))

    def self_s(self, name: str) -> float:
        return sum(r[2] for (n, _), r in self.stats.items() if n == name)

    def total_s(self, name: str) -> float:
        """Time inside the outermost spans of ``name``."""
        return sum(r[1] for (n, p), r in self.stats.items()
                   if n == name and p != name)

    # -- patching --------------------------------------------------------------

    def set_traced(self, traced: bool):
        """Patch the phase spans, and the layer spans too when ``traced``.

        Layers go in first, so the phase wrappers in ``icsim.cli`` call the
        layer wrappers and each phase span is the parent of its layer spans.
        """
        self.restore()
        groups = (LAYERS, PHASES) if traced else (PHASES,)
        for table in groups:
            for name, targets in table.items():
                for target in targets:
                    self._patch(name, target, phase=table is PHASES)

    def restore(self):
        """Undo every patch, last first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, name: str, target: str, phase: bool):
        mod_name, _, path = target.partition(":")
        module = sys.modules[f"icsim.{mod_name}"]
        counter = _COUNTERS.get(target)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__,
                                            counter=counter))
            else:
                new = self.wrap(name, raw, counter=counter)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, new)
            return
        original = getattr(module, path)
        if phase:
            holders = [module]
        else:
            holders = [m for key, m in sys.modules.items()
                       if (key == "icsim" or key.startswith("icsim."))
                       and getattr(m, path, None) is original]
        if name == "hashing.enumerate":
            new = self.wrap_iter(name, original)
        else:
            new = self.wrap(name, original, capture=phase, counter=counter)
        for holder in holders:
            self._undo.append((holder, path, original))
            setattr(holder, path, new)
