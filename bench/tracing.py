"""Span recorder for the traced benchmark run.

Spans are recorded from outside the package: ``SpanRecorder.install``
rebinds the traced functions and methods (listed in ``TRACED``) in every
``halfline_dnls`` module that holds them, and ``uninstall`` puts the
originals back.  Nothing under ``src/`` is edited.

A span holds its name, start, end, parent span and op id.  Spans are kept
in compact arrays in memory and written out when the run ends.  A layer is a
package module; a layer's self time is its spans' durations minus the time
their child spans cover.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict
from functools import update_wrapper

import numpy as np

PACKAGE = "halfline_dnls"
LAYERS = ("spectral", "phase", "quadrature", "trajectory", "cascade",
          "normalform", "gauge", "inflation", "cli")
OP_SPAN = "bench.op"

# per-layer metrics (all per op unless the name says otherwise) and units
LAYER_UNITS = {
    "spectral.calls": "count", "spectral.busy_s": "s",
    "spectral.products": "count", "spectral.ns_per_product": "ns",
    "gauge.solve_s": "s", "gauge.iterations": "count",
    "gauge.rhs_evals": "count", "gauge.rhs_s": "s",
    "gauge.exp_evals": "count", "gauge.exp_s": "s", "gauge.defects_s": "s",
    "normalform.solve_s": "s", "normalform.iterations": "count",
    "normalform.map_apps": "count", "normalform.s_per_map": "s",
    "normalform.ratio_max": "ratio",
    "cascade.solve_s": "s", "cascade.tracked_modes": "count",
    "cascade.panels": "count", "cascade.attempts": "count",
    "cascade.ns_per_mode_panel": "ns", "cascade.recenter_s": "s",
    "quadrature.march_calls": "count", "quadrature.march_s": "s",
    "quadrature.refinements": "count",
    "trajectory.dense_points": "count", "trajectory.dense_s": "s",
    "trajectory.serialize_s": "s",
    "phase.certify_s": "s", "phase.tuples": "count",
    "phase.tuples_per_s": "1/s",
    "cli.output_bytes": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead": "ratio", "trace.coverage": "ratio",
}


def _columns(x) -> int:
    """Length-(M+1) columns in a coefficient argument: 1 for a vector, the
    trailing batch size for a batched array."""
    shape = np.shape(getattr(x, "coeffs", x))
    return int(np.prod(shape[1:])) if len(shape) > 1 else 1


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _power_products(j: int) -> int:
    # binary powering: one product per set bit plus one squaring per
    # further bit
    return bin(j).count("1") + j.bit_length() - 1 if j > 0 else 0


# -- counters read at the layer boundaries --------------------------------------
# each takes (counters, args, kwargs, result)

def _count_convolve(c, args, kwargs, result):
    c["spectral.products"] += _columns(_arg(args, kwargs, 0, "a"))


def _count_power(c, args, kwargs, result):
    c["spectral.products"] += (_columns(_arg(args, kwargs, 0, "a"))
                               * _power_products(int(_arg(args, kwargs, 1, "j"))))


def _count_rhs(c, args, kwargs, result):
    c["gauge.rhs_evals"] += _columns(_arg(args, kwargs, 0, "u"))


def _count_exp(c, args, kwargs, result):
    c["gauge.exp_evals"] += _columns(_arg(args, kwargs, 0, "lam"))


def _count_gauge_solve(c, args, kwargs, result):
    c["gauge.iterations"] += len(result[2].iterations)


def _count_picard(c, args, kwargs, result):
    log = result[1]
    c["normalform.iterations"] += len(log.iterations)
    c["normalform.ratio_max"] = max(c["normalform.ratio_max"],
                                    max(log.ratios, default=0.0))


def _count_cascade(c, args, kwargs, result):
    modes, panels = int(result.modes.size), int(result.n_panels)
    c["cascade.solves"] += 1
    c["cascade.tracked_modes"] += modes
    c["cascade.panels"] += panels
    c["cascade.mode_panels"] += modes * panels


def _count_certify(c, args, kwargs, result):
    c["phase.tuples"] += result.tuples_checked


def _count_point(c, args, kwargs, result):
    c["trajectory.dense_points"] += 1


def _count_points(c, args, kwargs, result):
    c["trajectory.dense_points"] += np.size(_arg(args, kwargs, 2, "ts"))


# (module, function or Class.method, counter); entries missing from the
# package are skipped and reported, so a later refactor does not break the run
TRACED = (
    ("cli", "dispatch", None),
    ("inflation", "run_experiment", None),
    ("inflation", "cross_validate", None),
    ("cascade", "cascade_integrate", _count_cascade),
    ("cascade", "mean_zero_transform", None),
    ("cascade", "mean_zero_inverse", None),
    ("cascade", "weak_residual", None),
    ("normalform", "picard_solve", _count_picard),
    ("normalform", "NormalFormOperators._apply_map_tensor", None),
    ("gauge", "gauge_picard_solve", _count_gauge_solve),
    ("gauge", "gauge_system_rhs", _count_rhs),
    ("gauge", "exp_coeffs", _count_exp),
    ("gauge", "compatible_gauge_data", None),
    ("gauge", "compatibility_defects", None),
    ("quadrature", "oscillatory_march", None),
    ("quadrature", "tail_ratio", None),
    ("quadrature", "PanelGrid.refined", None),
    ("trajectory", "Trajectory.coeffs_at", _count_point),
    ("trajectory", "Trajectory.mode_values", _count_points),
    ("trajectory", "Trajectory.to_dict", None),
    ("trajectory", "Trajectory.write_csv", None),
    ("trajectory", "sup_sobolev_diff", None),
    ("spectral", "convolve", _count_convolve),
    ("spectral", "power", _count_power),
    ("spectral", "sobolev_norm", None),
    ("phase", "certify_phase_bound", _count_certify),
    ("phase", "support_semigroup", None),
)


class SpanRecorder:
    """Records nested spans for one thread; ``op`` tags the current op."""

    def __init__(self):
        self.names: list = []
        self.ids: dict = {}
        self.name = array("l")
        self.parent = array("l")
        self.op_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters = defaultdict(float)
        self.op = -1
        self.skipped: list = []
        self._stack = [-1]
        self._patches: list = []

    def _intern(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.op_of.append(self.op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def begin_op(self, op: int) -> int:
        """Open the root span of op number ``op``."""
        self.op = op
        return self.open(OP_SPAN)

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def traced(self, name: str, fn, count=None):
        """``fn`` wrapped in a span named ``name``; ``count`` updates the
        counters from the call's arguments and result."""
        open_, close, counters = self.open, self.close, self.counters

        def wrapper(*args, **kwargs):
            idx = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return update_wrapper(wrapper, fn)

    # -- installation ---------------------------------------------------------

    def install(self):
        self.skipped = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE
                                         or n.startswith(PACKAGE + "."))]
        for layer, target, count in TRACED:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            owner_name, _, attr = target.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.skipped.append(f"{layer}.{target}")
                continue
            wrapper = self.traced(f"{layer}.{attr}", original, count)
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def write(self, path):
        """All spans as gzip'd CSV: span, parent, op, name, start_s, end_s."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span,parent,op,name,start_s,end_s\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i},{self.parent[i]},{self.op_of[i]},"
                         f"{names[self.name[i]]},{self.start[i]!r},"
                         f"{self.end[i]!r}\n")


def layer_metrics(rec: SpanRecorder, n_ops: int) -> dict:
    """Per-op layer metrics from the recorded spans and counters."""
    name = np.asarray(rec.name, dtype=np.int64)
    parent = np.asarray(rec.parent, dtype=np.int64)
    dur = np.asarray(rec.end, dtype=float) - np.asarray(rec.start, dtype=float)
    n_names = len(rec.names)
    layer_names = sorted({n.split(".")[0] for n in rec.names} | set(LAYERS))
    layer_id = {l: i for i, l in enumerate(layer_names)}
    name_layer = np.array([layer_id[n.split(".")[0]] for n in rec.names],
                          dtype=np.int64)
    span_layer = name_layer[name]

    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=dur.size)
    self_time = dur - child
    parent_layer = np.full(dur.size, -1, dtype=np.int64)
    parent_layer[has_parent] = span_layer[parent[has_parent]]

    by_name_total = np.bincount(name, weights=dur, minlength=n_names)
    by_name_count = np.bincount(name, minlength=n_names)
    layer_self = np.bincount(span_layer, weights=self_time,
                             minlength=len(layer_names))

    def total(span_name):
        i = rec.ids.get(span_name)
        return float(by_name_total[i]) if i is not None else 0.0

    def count(span_name):
        i = rec.ids.get(span_name)
        return int(by_name_count[i]) if i is not None else 0

    def ratio(a, b):
        return a / b if b else 0.0

    c = rec.counters
    ops = max(n_ops, 1)
    solves = c["cascade.solves"]

    # refinements made inside a cascade solve
    cascade_refinements = 0
    refined_id = rec.ids.get("quadrature.refined")
    cascade_id = rec.ids.get("cascade.cascade_integrate")
    if refined_id is not None and cascade_id is not None:
        for idx in np.flatnonzero(name == refined_id):
            p = parent[idx]
            while p >= 0 and name[p] != cascade_id:
                p = parent[p]
            cascade_refinements += p >= 0

    op_time = total(OP_SPAN)
    # op time inside the library layers: spans entered from the CLI or the
    # benchmark, not from another library span
    in_library = np.isin(span_layer,
                         [layer_id[l] for l in LAYERS if l != "cli"])
    entering_library = in_library.copy()
    entering_library[has_parent] &= ~in_library[parent[has_parent]]
    cascade_s = total("cascade.cascade_integrate")
    certify_s = total("phase.certify_phase_bound")
    # the spectral layer is busy while any of its spans is open
    outer_spectral = ((span_layer == layer_id["spectral"])
                      & (parent_layer != layer_id["spectral"]))
    spectral_s = float(np.sum(dur[outer_spectral]))
    map_s = total("normalform._apply_map_tensor")

    m = {
        "spectral.calls": (count("spectral.convolve") + count("spectral.power")) / ops,
        "spectral.busy_s": spectral_s / ops,
        "spectral.products": c["spectral.products"] / ops,
        "spectral.ns_per_product": 1e9 * ratio(
            total("spectral.convolve") + total("spectral.power"),
            c["spectral.products"]),
        "gauge.solve_s": total("gauge.gauge_picard_solve") / ops,
        "gauge.iterations": c["gauge.iterations"] / ops,
        "gauge.rhs_evals": c["gauge.rhs_evals"] / ops,
        "gauge.rhs_s": total("gauge.gauge_system_rhs") / ops,
        "gauge.exp_evals": c["gauge.exp_evals"] / ops,
        "gauge.exp_s": total("gauge.exp_coeffs") / ops,
        "gauge.defects_s": total("gauge.compatibility_defects") / ops,
        "normalform.solve_s": total("normalform.picard_solve") / ops,
        "normalform.iterations": c["normalform.iterations"] / ops,
        "normalform.map_apps": count("normalform._apply_map_tensor") / ops,
        "normalform.s_per_map": ratio(map_s, count("normalform._apply_map_tensor")),
        "normalform.ratio_max": c["normalform.ratio_max"],
        "cascade.solve_s": cascade_s / ops,
        "cascade.tracked_modes": ratio(c["cascade.tracked_modes"], solves),
        "cascade.panels": ratio(c["cascade.panels"], solves),
        "cascade.attempts": ratio(solves + cascade_refinements, solves),
        "cascade.ns_per_mode_panel": 1e9 * ratio(cascade_s, c["cascade.mode_panels"]),
        "cascade.recenter_s": (total("cascade.mean_zero_transform")
                               + total("cascade.mean_zero_inverse")) / ops,
        "quadrature.march_calls": count("quadrature.oscillatory_march") / ops,
        "quadrature.march_s": total("quadrature.oscillatory_march") / ops,
        "quadrature.refinements": count("quadrature.refined") / ops,
        "trajectory.dense_points": c["trajectory.dense_points"] / ops,
        "trajectory.dense_s": (total("trajectory.coeffs_at")
                               + total("trajectory.mode_values")) / ops,
        "trajectory.serialize_s": (total("trajectory.to_dict")
                                   + total("trajectory.write_csv")) / ops,
        "phase.certify_s": certify_s / ops,
        "phase.tuples": c["phase.tuples"] / ops,
        "phase.tuples_per_s": ratio(c["phase.tuples"], certify_s),
        "cli.output_bytes": c["cli.output_bytes"] / ops,
        "trace.coverage": ratio(float(np.sum(dur[entering_library])), op_time),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(layer_self[layer_id[layer]]) / ops
    return m

