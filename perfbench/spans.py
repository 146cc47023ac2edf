"""In-memory span tracer for the benchmark's traced passes.

The tracer wraps public ``bicmb`` functions at every module name that
refers to them (so a call through ``bicmb.harness`` or ``bicmb.cli`` is
caught wherever those modules look the name up), plus
``numpy.linalg.svd`` for the sweep's batched SVD.  Each call becomes a
span (name, start, end, parent, operation id, attributes).  Spans stay
in memory; the worker writes them out when it exits.

Per-layer metrics are sums of span *self time*: a span's duration minus
the part of its interval that its child spans cover.  Self times of all
spans partition the traced time, so no second is counted twice.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import Counter, defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, start, end, parent=-1, op=None, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.attrs = attrs or {}

    def as_list(self):
        return [self.name, self.start, self.end, self.parent, self.op, self.attrs]


def _viterbi_attrs(args, kwargs, result):
    trellis = args[0] if args else kwargs["trellis"]
    costs = args[1] if len(args) > 1 else kwargs["branch_costs"]
    shape = getattr(costs, "shape", ())
    batch = shape[0] if len(shape) == 4 else 1
    steps = shape[-3]
    states = trellis.n_states
    # Two candidate paths per state per step; the decoder stores one
    # uint8 survivor decision per state per step.
    return {"acs_ops": batch * steps * states * 2,
            "survivor_bytes": batch * steps * states}


def svd_real_flops(m: int, n: int, complex_input: bool) -> int:
    """Flops of a values-only SVD of one m x n matrix.

    Golub-Kahan bidiagonalisation, 4*m*n**2 - 4*n**3/3 real flops for
    m >= n (Golub & Van Loan, Table 8.6.1); a complex multiply-add costs
    four real ones.
    """
    m, n = max(m, n), min(m, n)
    flops = 4 * m * n * n - (4 * n ** 3) // 3
    return flops * (4 if complex_input else 1)


def _svd_attrs(args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    shape = a.shape
    matrices = math.prod(shape[:-2])
    flops = svd_real_flops(shape[-2], shape[-1], a.dtype.kind == "c")
    return {"matrices": matrices, "flops": matrices * flops}


def _spectrum_attrs(args, kwargs, result):
    return {"events": sum(e.event_count for e in result.entries.values())}


# (module, attribute, span name, attribute function)
TARGETS = (
    ("bicmb.harness", "sweep", "harness.sweep", None),
    ("bicmb.harness", "parse_config", "harness.parse_config", None),
    ("bicmb.harness", "preset", "harness.preset", None),
    ("bicmb.harness", "build_runtime", "harness.build_runtime", None),
    ("bicmb.harness", "spectrum_stats", "harness.spectrum_stats", None),
    ("bicmb.cli", "main", "cli.main", None),
    ("bicmb.coding", "encode", "coding.encode", None),
    ("bicmb.coding", "viterbi_decode", "coding.viterbi_decode", _viterbi_attrs),
    ("bicmb.coding", "distance_spectrum", "coding.distance_spectrum",
     _spectrum_attrs),
    ("bicmb.coding", "build_trellis", "coding.build_trellis", None),
    ("bicmb.coding", "free_distance", "coding.free_distance", None),
    ("bicmb.channel", "draw_channel", "channel.draw_channel", None),
    ("bicmb.beamforming", "singular_values", "beamforming.singular_values", None),
    ("bicmb.beamforming", "predicted_gains", "beamforming.predicted_gains", None),
    ("numpy.linalg", "svd", "numpy.linalg.svd", _svd_attrs),
    ("bicmb.bicm", "structured_interleaver", "bicm.structured_interleaver", None),
    ("bicmb.bicm", "random_interleaver", "bicm.random_interleaver", None),
    ("bicmb.bicm", "adversarial_interleaver", "bicm.adversarial_interleaver", None),
    ("bicmb.bicm", "map_frame", "bicm.map_frame", None),
    ("bicmb.bicm", "bit_metrics", "bicm.bit_metrics", None),
    ("bicmb.bicm", "deinterleave_metrics", "bicm.deinterleave_metrics", None),
    ("bicmb.analysis", "union_bound_ber", "analysis.union_bound_ber", None),
    ("bicmb.analysis", "gamma_fit", "analysis.gamma_fit", None),
)

# Self time of these spans is summed into each ``*_s`` layer metric.
SELF_TIME_METRICS = {
    "harness.self_s": ("harness.sweep", "harness.parse_config", "harness.preset",
                       "harness.build_runtime", "harness.spectrum_stats"),
    "coding.viterbi_s": ("coding.viterbi_decode",),
    "coding.encode_s": ("coding.encode",),
    "coding.distance_spectrum_s": ("coding.distance_spectrum",),
    "coding.trellis_s": ("coding.build_trellis", "coding.free_distance"),
    "channel.draw_channel_s": ("channel.draw_channel",),
    "beamforming.svd_s": ("beamforming.singular_values", "numpy.linalg.svd"),
    "beamforming.predicted_gains_s": ("beamforming.predicted_gains",),
    "bicm.interleaver_build_s": ("bicm.structured_interleaver",
                                 "bicm.random_interleaver",
                                 "bicm.adversarial_interleaver"),
    "bicm.map_frame_s": ("bicm.map_frame",),
    "bicm.bit_metrics_s": ("bicm.bit_metrics",),
    "bicm.deinterleave_metrics_s": ("bicm.deinterleave_metrics",),
    "analysis.union_bound_s": ("analysis.union_bound_ber",),
    "analysis.gamma_fit_s": ("analysis.gamma_fit",),
    "cli.self_s": ("cli.main",),
}

CALL_COUNT_METRICS = {
    "channel.draws": "channel.draw_channel",
    "bicm.map_frame_calls": "bicm.map_frame",
    "bicm.bit_metrics_calls": "bicm.bit_metrics",
    "bicm.deinterleave_metrics_calls": "bicm.deinterleave_metrics",
}

# (metric, span name, attribute, reduction)
ATTR_METRICS = (
    ("coding.viterbi_acs_ops", "coding.viterbi_decode", "acs_ops", sum),
    ("coding.viterbi_survivor_bytes", "coding.viterbi_decode",
     "survivor_bytes", max),
    ("coding.spectrum_events", "coding.distance_spectrum", "events", sum),
    ("beamforming.matrices", "numpy.linalg.svd", "matrices", sum),
    ("beamforming.svd_flops", "numpy.linalg.svd", "flops", sum),
)


class Tracer:
    """Records spans of wrapped calls while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, fn, name, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, 0.0, 0.0, parent, tracer.op)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                tracer._stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    def run_op(self, op_id, fn):
        """Run ``fn`` as the root span of one benchmark operation."""
        self.op = op_id
        try:
            return self.wrap(fn, "bench.op")()
        finally:
            self.op = None

    def install(self, targets=TARGETS):
        """Replace every package-level reference to each target function."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        owners = [importlib.import_module(t[0]) for t in targets]
        bicmb_modules = [m for n, m in list(sys.modules.items())
                         if (n == "bicmb" or n.startswith("bicmb.")) and m]
        for owner, (_, attr, name, attrs) in zip(owners, targets):
            original = getattr(owner, attr)
            traced = self.wrap(original, name, attrs)
            for mod in {id(m): m for m in bicmb_modules + [owner]}.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, traced)

    def uninstall(self):
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children[i], key=lambda k: spans[k].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def work_counts(spans) -> dict:
    """Call and work counts; they must repeat exactly for the same inputs."""
    calls = Counter(s.name for s in spans)
    counts = {metric: calls[name] for metric, name in CALL_COUNT_METRICS.items()}
    for metric, name, key, reduce in ATTR_METRICS:
        values = [s.attrs[key] for s in spans if s.name == name and key in s.attrs]
        counts[metric] = reduce(values) if values else 0
    return counts


def layer_metrics(spans) -> dict:
    """Per-layer self times and work counts of one pass's spans."""
    self_by_name = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        self_by_name[s.name] += t
    metrics = {metric: sum(self_by_name[n] for n in names)
               for metric, names in SELF_TIME_METRICS.items()}
    metrics.update(work_counts(spans))
    draws = metrics["channel.draws"]
    metrics["channel.us_per_draw"] = (
        metrics["channel.draw_channel_s"] / draws * 1e6 if draws else 0.0)
    acs = metrics["coding.viterbi_acs_ops"]
    metrics["coding.viterbi_ns_per_acs"] = (
        metrics["coding.viterbi_s"] / acs * 1e9 if acs else 0.0)
    metrics["trace.spans"] = len(spans)
    return metrics
