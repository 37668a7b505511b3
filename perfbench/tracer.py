"""Spans and counts around the calls into syklab's public functions.

The tracer replaces each public function listed in ``SPANS`` and ``COUNTED``
by a wrapper at every place it is bound in a ``syklab`` module (its own
module and every module that imported the name), so calls through any
import site are seen.  A name that no longer exists raises at install time
instead of reporting a silent zero.

``SPANS`` functions record one span per call: name, start, end and the
span that was open when it began.  ``COUNTED`` functions are hot leaves
(millions of calls in the oracle workload) and only count calls.  A few
counts are computed from the arguments of traced calls, not measured;
``PER_LAYER`` marks them as computed.  Traced passes run single-threaded
(``SYKLAB_WORKERS=1``), so one stack of open spans serves and the
counters take no lock.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
import weakref
from collections import Counter

import numpy as np

# span name -> public syklab functions timed under that name
SPANS = {
    "experiments.cmd": ("experiments.cmd_scan_n", "experiments.cmd_scan_t",
                        "experiments.cmd_oracle", "experiments.cmd_solve_r"),
    "linalg.expected_norm": ("linalg.expected_norm",),
    "linalg.assemble": ("linalg.assemble",),
    "linalg.exact_evolution": ("linalg.exact_evolution",),
    "linalg.schatten_norm": ("linalg.schatten_norm",),
    "trotter.build_schedule": ("trotter.build_schedule",),
    "trotter.trotterized": ("trotter.trotterized",),
    "fermions.term_operator": ("fermions.term_operator",),
    "model.sample": ("model.sample_dense", "model.sample_sparse",
                     "model.sample_bernoulli_mask"),
    "bounds.eval": ("bounds.delta1_dense", "bounds.delta_l_dense",
                    "bounds.delta_l_sparse"),
    "bounds.solve_trotter_number": ("bounds.solve_trotter_number",),
    "chains.syk_termset": ("chains.syk_termset",),
    "chains.build_graph": ("chains.build_graph",),
    "chains.gw": ("chains.gw_bruteforce", "chains.avg_gw_exact"),
    "chains.greedy_coloring": ("chains.greedy_coloring",),
}
COUNTED = {
    "pauli.multiply": ("pauli.multiply",),
    "pauli.commutes": ("pauli.commutes",),
    "chains.indicator": ("chains.indicator",),
}

DENSE, SPARSE, SPECTRAL, ORACLE = "dense-scan", "sparse-scan", "spectral-tscan", "oracle"
ALL = (DENSE, SPARSE, SPECTRAL, ORACLE)

# (metric, unit, end-to-end metrics it should move, workloads where it should
# move, workloads where no change is predicted, computed rather than timed).
# Every traced name must be hit at least once on the workloads where its
# metrics should move (test_bench.py checks this).
PER_LAYER = [
    ("fermions.term_operator.calls", "count", "wall_s cpu_s", (DENSE, SPARSE, ORACLE), (SPECTRAL,), False),
    ("fermions.term_operator.s", "s", "wall_s cpu_s", (DENSE, SPARSE, ORACLE), (SPECTRAL,), False),
    ("linalg.assemble.calls", "count", "wall_s", (DENSE, SPARSE), (SPECTRAL,), False),
    ("linalg.assemble.s", "s", "wall_s", (DENSE, SPARSE), (SPECTRAL,), False),
    ("trotter.trotterized.calls", "count", "wall_s", (DENSE, SPARSE), (), False),
    ("trotter.trotterized.s", "s", "wall_s", (DENSE, SPARSE), (), False),
    ("trotter.build_schedule.s", "s", "wall_s", (DENSE, SPARSE), (), False),
    ("trotter.exponentials", "count", "wall_s", (SPARSE,), (DENSE,), True),
    ("trotter.power_matmuls", "count", "wall_s", (SPECTRAL,), (DENSE,), True),
    ("trotter.flops_computed", "flop", "wall_s", (SPECTRAL,), (DENSE,), True),
    ("linalg.exact_evolution.s", "s", "wall_s", (SPECTRAL,), (DENSE,), False),
    ("linalg.schatten_norm.calls", "count", "wall_s", (SPECTRAL,), (DENSE,), False),
    ("linalg.schatten_norm.s", "s", "wall_s", (SPECTRAL,), (DENSE,), False),
    ("linalg.expected_norm.self_s", "s", "wall_s cpu_s", (SPECTRAL,), (), False),
    ("experiments.cmd.self_s", "s", "wall_s cpu_s", (SPECTRAL,), (), False),
    ("linalg.matrix_bytes_computed", "bytes", "peak_rss_mb", (SPECTRAL, DENSE), (), True),
    ("model.sample.calls", "count", "wall_s", (SPARSE,), (), False),
    ("model.sample.s", "s", "wall_s", (SPARSE,), (), False),
    ("pauli.multiply.calls", "count", "wall_s", (ORACLE,), (), False),
    ("pauli.commutes.calls", "count", "wall_s", (ORACLE,), (), False),
    ("chains.indicator.calls", "count", "wall_s", (ORACLE,), (), False),
    ("chains.syk_termset.s", "s", "wall_s", (ORACLE,), (), False),
    ("chains.build_graph.s", "s", "wall_s", (ORACLE,), (), False),
    ("chains.gw.s", "s", "wall_s", (ORACLE,), (), False),
    ("chains.greedy_coloring.s", "s", "wall_s", (ORACLE,), (), False),
    ("bounds.eval.calls", "count", "wall_s", (ORACLE,), (), False),
    ("bounds.eval.s", "s", "wall_s", (ORACLE,), (), False),
    ("bounds.solve_trotter_number.s", "s", "wall_s", (ORACLE,), (), False),
    ("trace.overhead_s", "s", "none", (), (DENSE, SPARSE, ORACLE), False),
]


def resolve(qualname: str):
    """The syklab function ``module.name``; raises if it is gone."""
    module_name, _, attr = qualname.rpartition(".")
    module = importlib.import_module(f"syklab.{module_name}")
    func = getattr(module, attr)  # AttributeError names the missing function
    if not callable(func):
        raise TypeError(f"syklab.{qualname} is not callable")
    return func


def _trotter_work(instance, schedule, t, r) -> dict:
    """Computed work of one trotterized() call, from its arguments.

    Each schedule step whose term is active (unmasked, nonzero coupling)
    applies one Pauli exponential to a D x D matrix, 16 flops per entry;
    the repeated-squaring power does one squaring per bit of r plus one
    product per set bit, 8 D^3 flops each.
    """
    active = np.asarray(instance.couplings) != 0.0
    if instance.mask is not None:
        active &= np.asarray(instance.mask) != 0
    exponentials = schedule.stages * int(np.count_nonzero(active)) if t != 0 else 0
    matmuls = r.bit_length() + bin(r).count("1")
    dim = 1 << (instance.n // 2)
    return {
        "trotter.exponentials": exponentials,
        "trotter.power_matmuls": matmuls,
        "trotter.flops_computed": 16 * dim**2 * exponentials + 8 * dim**3 * matmuls,
    }


# span name -> counts computed from the arguments of each call
COMPUTED = {"trotter.trotterized": _trotter_work}


class Tracer:
    """Span and count recorder for one process."""

    def __init__(self) -> None:
        self.spans: list = []  # [name, parent index or -1, start, end]
        self.calls: Counter = Counter()  # public name -> calls
        self.counts: Counter = Counter()  # computed counts
        self.wrapped: dict[str, list[str]] = {}  # public name -> rebound sites
        self._stack: list[int] = []  # indices of the open spans
        self._live_bytes = 0
        self.peak_bytes = 0

    def _track(self, result) -> None:
        """Count live ndarray results of traced calls (weakref release)."""
        if isinstance(result, np.ndarray) and result.ndim >= 2:
            self._live_bytes += result.nbytes
            self.peak_bytes = max(self.peak_bytes, self._live_bytes)
            weakref.finalize(result, self._release, result.nbytes)

    def _release(self, nbytes: int) -> None:
        self._live_bytes -= nbytes

    def _span_wrapper(self, name: str, qualname: str, func):
        spans, stack, track, calls = self.spans, self._stack, self._track, self.calls
        compute = COMPUTED.get(name)
        signature = inspect.signature(func)

        def traced(*args, **kwargs):
            calls[qualname] += 1
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, 0.0, 0.0])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][2:] = (start, end)
            track(result)
            if compute is not None:
                self.counts.update(compute(**signature.bind(*args, **kwargs).arguments))
            return result

        return traced

    def _count_wrapper(self, name: str, qualname: str, func):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[qualname] += 1
            return func(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every listed function at every syklab module that binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "syklab" or n.startswith("syklab.")]
        for table, make in ((SPANS, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for name, qualnames in table.items():
                for qualname in qualnames:
                    func = resolve(qualname)
                    wrapper = make(name, qualname, func)
                    sites = []
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is func:
                                setattr(module, attr, wrapper)
                                sites.append(f"{module.__name__}.{attr}")
                    self.wrapped[qualname] = sites

    def layers(self) -> dict:
        """name -> [calls, total s, self s] over the recorded spans.

        Total time counts only the outermost span of each name, so nested
        calls of one name are not counted twice; self time is a span's
        duration minus the durations of its direct children.
        """
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict = {}
        for index, (name, parent, start, end) in enumerate(self.spans):
            entry = table.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[2] += end - start - child_time[index]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][1]
            if ancestor < 0:
                entry[1] += end - start
        return table

    def report(self, origin: float, with_spans: bool = False) -> dict:
        """JSON-ready summary; span times are seconds after ``origin``."""
        out = {
            "layers": self.layers(),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "matrix_bytes_computed": self.peak_bytes,
            "wrapped": self.wrapped,
        }
        if with_spans:
            out["spans"] = [[i, parent, name, round(start - origin, 9), round(end - origin, 9)]
                            for i, (name, parent, start, end) in enumerate(self.spans)]
        return out
