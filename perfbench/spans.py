"""Span tracing of swaplab's layers, installed from outside the program.

The tracer replaces every module binding of every public swaplab function with
a wrapper that records a span: name, start, end, parent span and job id. A
function bound under several names (``scenario`` and ``cli`` import with
``from .x import f``, so they hold their own copies) gets one wrapper, put into
every binding; patching only the defining module would miss those calls.
``numpy.linalg.eigh`` and three methods are wrapped too. Spans stay in memory
until the run writes them out; ``uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

SPAN_FIELDS = ("name", "start", "end", "parent", "job", "value")

#: (module, class, method, span name)
METHODS = (
    ("isomorphism", "EvolutionTriple", "states_at", "isomorphism.states_at"),
    ("symmetry", "GeometricDiagonalModel", "diagonal_weights", "symmetry.diagonal_weights"),
    ("linalg", "DenseOperator", "__init__", "linalg.DenseOperator_init"),
)


def _dense_bytes(args, result):
    return 16 * args[0].dim ** 2  # complex128 entries computed by the constructor


def _passed(args, result):
    return int(result.passed)


def _text_bytes(args, result):
    return len(result.encode("utf-8"))


#: per-span value recorded after a successful call, keyed by span name
VALUES = {
    "linalg.DenseOperator_init": _dense_bytes,
    "symmetry.certify_lemma1": _passed,
    "symmetry.certify_lemma2": _passed,
    "reporting.emit_report": _text_bytes,
}


class Tracer:
    """Records spans of swaplab calls while installed."""

    def __init__(self):
        self.spans = []  # lists laid out as SPAN_FIELDS
        self.job = -1  # id stamped on new spans; the caller counts it up per job
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, measure = self.spans, self._stack, VALUES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)  # a recursive call is part of the outer span
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if measure is not None:
                span[5] = measure(args, result)
            return result

        traced.perfbench_span = name
        return traced

    def _patch(self, owner, attribute, wrapper):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def install(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items() if n == "swaplab" or n.startswith("swaplab.")]
        wrappers = {}
        for module in modules:
            for attribute, value in list(vars(module).items()):
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__.startswith("swaplab.")
                    and not value.__name__.startswith("_")
                    and not hasattr(value, "perfbench_span")
                ):
                    if value not in wrappers:
                        layer = value.__module__.rsplit(".", 1)[1]
                        wrappers[value] = self._wrap(f"{layer}.{value.__name__}", value)
                    self._patch(module, attribute, wrappers[value])
        self._patch(np.linalg, "eigh", self._wrap("linalg.eigh", np.linalg.eigh))
        for module, cls, method, name in METHODS:
            owner = getattr(sys.modules[f"swaplab.{module}"], cls)
            self._patch(owner, method, self._wrap(name, vars(owner)[method]))
        return self

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


#: spans whose self time is reported, in seconds per cycle
SELF_TIMED = (
    "linalg.eigh",
    "linalg.hermitian_exponential",
    "linalg.commutator_norm",
    "linalg.unitarity_defect",
    "linalg.unitarity_defect_of",
    "linalg.frobenius_norm",
    "linalg.tensor_product",
    "linalg.DenseOperator_init",
    "measurement.make_pointer_grid",
    "measurement.interaction_hamiltonian",
    "measurement.evolve",
    "measurement.readout",
    "symmetry.certify_lemma1",
    "symmetry.certify_lemma2",
    "symmetry.parity_permutation",
    "symmetry.parity_swap",
    "symmetry.parity_swap_momentum",
    "symmetry.scaling_swap",
    "symmetry.scaling_permutation",
    "symmetry.diagonal_weights",
    "isomorphism.states_at",
    "isomorphism.check_isomorphism",
    "isomorphism.distinctness_witness",
    "scenario.run_prince_pauper",
    "scenario.run_multiworld",
    "scenario.run_classical_level",
    "scenario.build_diagonal_model",
    "reporting.emit_report",
    "reporting.emit_distribution_csv",
    "reporting.render_json",
    "config.parse_config",
    "cli.main",
)

#: spans whose call count is reported, per cycle
COUNTED = (
    "linalg.eigh",
    "measurement.make_pointer_grid",
    "measurement.interaction_hamiltonian",
    "measurement.evolve",
    "measurement.readout",
    "isomorphism.states_at",
    "isomorphism.check_isomorphism",
    "isomorphism.distinctness_witness",
)

CERTIFIERS = ("symmetry.certify_lemma1", "symmetry.certify_lemma2")


def span_totals(spans) -> tuple:
    """Self time, call count and summed value per span name, and the time the
    direct children of ``cli.main`` spans cover.

    A span's self time is its duration minus the time its child spans cover;
    spans nest on one thread, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, job, value in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s, calls, values = defaultdict(float), Counter(), Counter()
    covered = 0.0
    for index, (name, start, end, parent, job, value) in enumerate(spans):
        self_s[name] += end - start - child_time[index]
        calls[name] += 1
        if value is not None:
            values[name] += value
        if name == "cli.main":
            covered += child_time[index]
    return self_s, calls, values, covered


def layer_metrics(spans, cycles: int, job_seconds: float, overhead: float) -> dict:
    """Per-layer metrics of a traced phase of whole cycles: name -> (value, unit).

    Counts and times are per cycle, so counts repeat exactly across runs.
    ``job_seconds`` is the summed wall time of the traced jobs.
    """
    self_s, calls, values, covered = span_totals(spans)
    metrics = {}
    for name in COUNTED:
        metrics[f"{name}.calls"] = (calls[name] / cycles, "count/cycle")
    metrics["linalg.dense_operators"] = (calls["linalg.DenseOperator_init"] / cycles, "count/cycle")
    metrics["linalg.dense_bytes"] = (values["linalg.DenseOperator_init"] / cycles, "B/cycle")
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = (self_s[name] / cycles, "s/cycle")
    metrics["symmetry.certificates_passed"] = (
        sum(values[n] for n in CERTIFIERS) / cycles, "count/cycle"
    )
    metrics["symmetry.certificates_attempted"] = (
        sum(calls[n] for n in CERTIFIERS) / cycles, "count/cycle"
    )
    metrics["reporting.report_bytes"] = (values["reporting.emit_report"] / cycles, "B/cycle")
    metrics["trace.coverage"] = (covered / job_seconds, "ratio")
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics
