"""Spans around the public functions of each fanolines layer, from outside.

The tracer replaces chosen functions with timing wrappers in every
``fanolines`` module that holds them, by name, and restores the originals
when it is closed. Nothing under ``src/`` changes. Spans live in memory
as ``[name, start, end, parent, instance]`` rows and are written out once,
at the end of the run. Field-element arithmetic is deliberately left
unwrapped: a per-operation wrapper would cost more than the operation, so
that time stays in the self time of whichever wrapped caller runs it.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# layer -> public callables wrapped in it; "Class.method" patches the class
LAYERS: Dict[str, Tuple[str, ...]] = {
    "field": ("build_extension", "relative_extension", "embedding"),
    "unipoly": ("roots_in_field",),
    "linalg": ("mat_rank", "mat_det", "mat_inverse", "random_invertible"),
    "poly": ("Polynomial.substitute", "Polynomial.apply_matrix",
             "Polynomial.map_coefficients", "parse_polynomial",
             "random_homogeneous"),
    "projgeo": ("move_to_base_point",),
    "groebner": ("groebner_basis", "normal_form", "is_member"),
    "fglm": ("lex_basis_zero_dim",),
    "hilbert": ("staircase_data",),
    "solve": ("solve_projective",),
    "scan": ("variety_scan", "singular_scan"),
    "idealkit": ("groebner_of", "hilbert_data", "is_complete_intersection",
                 "rational_points", "solve_report", "jacobian_rank_at",
                 "certify_reduced_point", "singular_points",
                 "slice_degree", "sample_smooth_points"),
    "fano": ("random_pointed_hypersurface", "line_system", "analyze_lines",
             "run_line_analysis"),
    "voisin": ("normal_form_cubic", "nodes", "certify_node",
               "node_line_system", "rank_drop_ideal", "analyze_node_lines",
               "run_node_analysis"),
    "cli": ("main",),
}

PACKAGE = "fanolines"

NAME, START, END, PARENT, INSTANCE = range(5)


class Tracer:
    """Records one span per call of every wrapped callable.

    ``observers`` maps a span name to ``f(counters, args, kwargs, result)``,
    which updates ``counters`` from a call that returned. It runs outside
    the timed interval of the span but inside its parent's, so observers
    must be cheap.
    """

    def __init__(self, observers: Optional[Dict[str, Callable]] = None):
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.raised: Dict[str, int] = defaultdict(int)
        self.instance = -1
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._observers = observers or {}

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        observe = self._observers.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            row = [name, 0.0, 0.0, stack[-1] if stack else -1, self.instance]
            spans.append(row)
            stack.append(index)
            row[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                row[END] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(self.counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self, layers: Dict[str, Sequence[str]] = LAYERS):
        """Patch every target in its home module, in each ``fanolines``
        module that imported it by name, and on its class for methods.

        A module or name the program no longer has is skipped, so its
        metrics read 0 instead of the traced run failing."""
        for layer, names in layers.items():
            try:
                home = importlib.import_module(f"{PACKAGE}.{layer}")
            except ModuleNotFoundError:
                continue
            for dotted in names:
                span = f"{layer}.{dotted}"
                if "." in dotted:
                    cls_name, attr = dotted.split(".")
                    cls = getattr(home, cls_name, None)
                    original = vars(cls).get(attr) if cls else None
                    if original is not None:
                        self._patch(cls, attr, self._wrap(span, original))
                    continue
                original = getattr(home, dotted, None)
                if original is None:
                    continue
                wrapper = self._wrap(span, original)
                for module in importing_modules(original):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def write(self, path: str):
        """Write the spans as JSON lines, one per span."""
        with open(path, "w") as handle:
            for row in self.spans:
                handle.write(json.dumps(row) + "\n")


def importing_modules(fn: Callable) -> List[object]:
    """Loaded ``fanolines`` modules holding ``fn`` under some name."""
    return [module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))
            and any(value is fn for value in vars(module).values())]


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    Calls are synchronous, so a child's interval lies inside its parent's
    and the children of one parent do not overlap."""
    own = [row[END] - row[START] for row in spans]
    for row in spans:
        if row[PARENT] >= 0:
            own[row[PARENT]] -= row[END] - row[START]
    return own


def summarize(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, busy seconds (outermost calls only, so a
    recursive name is not counted twice) and self seconds."""
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for i, row in enumerate(spans):
        entry = out[row[NAME]]
        entry["calls"] += 1
        entry["self_s"] += own[i]
        if not _has_ancestor_named(spans, i, row[NAME]):
            entry["busy_s"] += row[END] - row[START]
    return dict(out)


def _has_ancestor_named(spans, index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_self_times(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Self seconds summed over the spans of each layer (module)."""
    out: Dict[str, float] = defaultdict(float)
    for row, own in zip(spans, self_times(spans)):
        out[row[NAME].split(".", 1)[0]] += own
    return dict(out)
