"""Layer-boundary spans recorded from outside the package.

``Tracer.request_scope`` replaces, in every loaded ``ottospin`` module, the
module-level names through which one layer calls the next
(``propagator.slice_product``, ``cycle.evolve_unitary``,
``cli.cycle_with_uncertainty`` ...) by wrappers that record a span (name,
start, end, parent, request id, count).  The wrappers are in place only
while a traced request runs; spans stay in memory until the run writes
them out.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import importlib.util
import sys
import time
from collections import defaultdict

# work counted at a boundary: slices asked of the kernel, slices the
# propagator returned, Monte Carlo samples drawn
_COUNTS = {
    "slice_product": lambda args, kwargs, result: args[3],
    "evolve_unitary": lambda args, kwargs, result: result.n_steps,
    "cycle_with_uncertainty": lambda args, kwargs, result: (
        kwargs.get("n_samples", 0) if kwargs.get("rel_noise", 0.0) > 0.0 else 0),
}
# (defining module, name); every ottospin module that holds the same object
# under that name gets the wrapper, and the span takes the name
BOUNDARIES = (
    ("ottospin.propagator", "slice_product"),
    ("ottospin.cycle", "evolve_unitary"),
    ("ottospin.cycle", "transition_probability"),
    ("ottospin.cycle", "propagate_state"),
    ("ottospin.cycle", "gibbs_state"),
    ("ottospin.propagator", "eigensystem"),
    ("ottospin.cycle", "cycle_with_uncertainty"),
    ("ottospin.cycle", "sweep_tau"),
    ("ottospin.cycle", "run_cycle"),
    ("ottospin.cycle", "_report_from_states"),
    ("ottospin.cycle", "_repair_batch"),
    ("ottospin.cycle", "_relative_entropy_batch"),
    ("ottospin.cycle", "_trace_pairing"),
    ("ottospin.tpm", "engine_work_distribution"),
    ("ottospin.tpm", "engine_heat_distribution"),
    ("ottospin.tpm", "characteristic_function"),
    ("ottospin.tpm", "invert_characteristic"),
    ("ottospin.process", "choi_from_unitary"),
    ("ottospin.process", "mix_processes"),
    ("ottospin.process", "unitality_defect"),
    ("ottospin.process", "process_trace_distance"),
    ("ottospin.config", "parse_config"),
    ("ottospin.cli", "_render_table"),
    ("ottospin.cli", "_write_text"),
)


class Tracer:
    """In-memory span store.  A span is the list
    [name, start, end, parent index or None, request id, count]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: boundaries of BOUNDARIES the package does not have
        self.missing: list[str] = []
        self.request: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, func):
        count = _COUNTS.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else None, self.request, 0]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def request_scope(self, request: int):
        """Trace one request: wrap every boundary that exists, record its
        spans under ``request``, then put the originals back.  A boundary
        the package no longer has is listed in ``missing``; the metrics
        built on it are null rather than 0."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "ottospin" or n.startswith("ottospin."))]
        replaced = []
        for module_name, name in BOUNDARIES:
            home = sys.modules.get(module_name)
            if home is None and importlib.util.find_spec(module_name) is not None:
                continue  # a layer this request does not load
            original = getattr(home, name, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original)
            for module in modules:
                if getattr(module, name, None) is original:
                    setattr(module, name, wrapper)
                    replaced.append((module, name, original))
        self.request = request
        try:
            yield
        finally:
            self.request = None
            for module, name, original in replaced:
                setattr(module, name, original)


def merge(span_lists: list[list[list]]) -> list[list]:
    """Concatenate per-request span lists, rebasing parent indexes."""
    merged: list[list] = []
    for spans in span_lists:
        offset = len(merged)
        merged.extend([*s[:3], None if s[3] is None else s[3] + offset, *s[4:]]
                      for s in spans)
    return merged


def _self_times(spans: list[list]) -> list[float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans: list[list], n_requests: int, request_wall_s: float,
                  missing: set[str]) -> dict:
    """Per-layer numbers, per traced request (counts and seconds) or as a
    share of traced request wall time (percent); None for a metric built on
    a boundary in ``missing``."""
    busy = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    own = _self_times(spans)
    self_time = defaultdict(float)
    mc_math = 0.0
    slices_under_evolve = 0
    for s, own_s in zip(spans, own):
        name, duration = s[0], s[2] - s[1]
        busy[name] += duration
        calls[name] += 1
        counts[name] += s[5]
        self_time[name] += own_s
        parent = spans[s[3]][0] if s[3] is not None else None
        if name in MC_MATH and parent == "cycle_with_uncertainty":
            mc_math += duration
        if name == "slice_product" and parent == "evolve_unitary":
            slices_under_evolve += s[5]

    n = max(n_requests, 1)
    wall = max(request_wall_s, 1e-12)

    def pct(seconds: float) -> float:
        return 100.0 * seconds / wall

    slices = counts["slice_product"]
    metrics = {  # name: (value, boundaries it is built on)
        "kernels.slice_product.calls": (calls["slice_product"] / n, KERNEL),
        "kernels.slice_product.slices": (slices / n, KERNEL),
        "kernels.slice_product.busy_s": (busy["slice_product"] / n, KERNEL),
        "kernels.slice_product.ns_per_slice":
            (1e9 * busy["slice_product"] / slices if slices else 0.0, KERNEL),
        "propagator.evolve_unitary.calls": (calls["evolve_unitary"] / n, EVOLVE),
        "propagator.evolve_unitary.busy_s": (busy["evolve_unitary"] / n, EVOLVE),
        "propagator.evolve_unitary.self_s": (self_time["evolve_unitary"] / n, EVOLVE),
        "propagator.useful_slice_ratio": (
            counts["evolve_unitary"] / slices_under_evolve if slices_under_evolve else 0.0,
            KERNEL + EVOLVE),
        "propagator.transition_probability.busy_s":
            (busy["transition_probability"] / n, ("transition_probability",)),
        "propagator.propagate_state.busy_s":
            (busy["propagate_state"] / n, ("propagate_state",)),
        "spin.gibbs_state.busy_s": (busy["gibbs_state"] / n, ("gibbs_state",)),
        "spin.eigensystem.calls": (calls["eigensystem"] / n, ("eigensystem",)),
        "spin.eigensystem.busy_s": (busy["eigensystem"] / n, ("eigensystem",)),
        "cycle.mc.samples": (counts["cycle_with_uncertainty"] / n, MC),
        "cycle.mc.draw_pct": (pct(self_time["cycle_with_uncertainty"]), MC + MC_MATH),
        "cycle.mc.math_pct": (pct(mc_math), MC + MC_MATH),
        "cycle.report_s": (busy["_report_from_states"] / n, ("_report_from_states",)),
        "tpm.distribution.busy_pct": (pct(sum(busy[b] for b in TPM_DIST)), TPM_DIST),
        "tpm.roundtrip.busy_pct": (pct(sum(busy[b] for b in TPM_ROUND)), TPM_ROUND),
        "process.diagnostics.busy_pct": (pct(sum(busy[b] for b in PROCESS)), PROCESS),
        "config.parse_s": (busy["parse_config"] / n, ("parse_config",)),
        "cli.render_pct": (pct(sum(busy[b] for b in RENDER)), RENDER),
    }
    return {name: None if missing.intersection(needs) else value
            for name, (value, needs) in metrics.items()}


KERNEL = ("slice_product",)
EVOLVE = ("evolve_unitary",)
MC = ("cycle_with_uncertainty",)
MC_MATH = ("_repair_batch", "_relative_entropy_batch", "_trace_pairing")
TPM_DIST = ("engine_work_distribution", "engine_heat_distribution")
TPM_ROUND = ("characteristic_function", "invert_characteristic")
PROCESS = ("choi_from_unitary", "mix_processes", "unitality_defect",
           "process_trace_distance")
RENDER = ("_render_table", "_write_text")
