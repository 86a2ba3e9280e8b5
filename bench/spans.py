"""In-process tracing of the cliquecav layers, from outside the package.

Tracer.install() replaces each public function named in LAYERS, in every
cliquecav module namespace that holds it, by a wrapper that records a span
(name, start, end, parent, job) and the counters that explain the time.
uninstall() puts the originals back, so traced and untraced passes run in
one process. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# layer -> public functions that make up its boundary
LAYERS = {
    "graph": ("load_edge_list", "k_core_decomposition", "computability_gate"),
    "cliques": ("enumerate_cliques", "complex_to_json", "complex_from_json"),
    "gf2": ("build_boundary_matrix", "gf2_rank", "column_space_basis", "homology_profile"),
    "solver": ("iter_solutions",),
    "cavities": ("select_spanning_and_generators", "find_cavities", "verify_certificate"),
    "cli": ("main",),
}
MODULES = ("cliquecav", *(f"cliquecav.{layer}" for layer in LAYERS))


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or -1, job, order or None]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job = ""
        self._stack: list[int] = []
        self._order_of: dict[int, int] = {}  # id(boundary matrix) -> k
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------
    def _open(self, name: str, order: int | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.job, order])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, after=None, order_of_args=None):
        def wrapper(*args, **kwargs):
            order = order_of_args(*args) if order_of_args else None
            idx = self._open(name, order)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.counts[f"{name}.calls"] += 1
            if after is not None:
                after(result, *args)
            return result
        return wrapper

    # -- layer-specific counters -------------------------------------------
    def _after_boundary(self, matrix, cx, k) -> None:
        self._order_of[id(matrix)] = k

    def _after_rank(self, result, matrix) -> None:
        self.counts["gf2.nnz"] += sum(row.bit_count() for row in matrix.bits)
        self.counts["gf2.bitset_bytes"] += sum((row.bit_length() + 7) // 8 for row in matrix.bits)

    def _after_enumerate(self, cx, *args) -> None:
        self.counts["cliques.count"] += sum(cx.counts)

    def _after_select(self, sel, *args) -> None:
        self.counts["cavities.generators"] += len(sel.generator_cliques)

    def _after_find(self, certs, *args) -> None:
        self.counts["cavities.certificates"] += len(certs)

    def _iter_solutions(self, fn):
        tracer = self

        class TimedSolutions:
            """Times each next() of the solver's lazy solution stream."""

            def __init__(self, it):
                self.it = it

            def __iter__(self):
                return self

            def __next__(self):
                idx = tracer._open("solver.iter_solutions")
                try:
                    mask = next(self.it)
                finally:
                    tracer._close(idx)
                tracer.counts["solver.solutions"] += 1
                return mask

        def start(*args, **kwargs):
            tracer.counts["solver.programs"] += 1
            idx = tracer._open("solver.iter_solutions")
            try:
                it = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            return TimedSolutions(it)
        return start

    # -- install / uninstall -------------------------------------------------
    def install(self) -> None:
        order_of_matrix = lambda m, *rest: self._order_of.get(id(m))  # noqa: E731
        special = {
            "build_boundary_matrix": dict(after=self._after_boundary,
                                          order_of_args=lambda cx, k: k),
            "gf2_rank": dict(after=self._after_rank, order_of_args=order_of_matrix),
            "enumerate_cliques": dict(after=self._after_enumerate),
            "select_spanning_and_generators": dict(after=self._after_select,
                                                   order_of_args=order_of_matrix),
            "find_cavities": dict(after=self._after_find,
                                  order_of_args=lambda bk, bk1, sel, *rest: sel.order),
        }
        replacement = {}
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"cliquecav.{layer}")
            for name in names:
                original = getattr(module, name)
                if name == "iter_solutions":
                    replacement[id(original)] = self._iter_solutions(original)
                else:
                    replacement[id(original)] = self._wrap(
                        f"{layer}.{name}", original, **special.get(name, {}))
        for module in map(importlib.import_module, MODULES):
            for attr, value in list(vars(module).items()):
                if id(value) in replacement:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, replacement[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
        self._order_of.clear()

    # -- results ---------------------------------------------------------------
    def times(self) -> dict[str, float]:
        """Seconds per span name (`<layer>.<function>.s`), per order
        (`....s.k<k>`), and cli.main.self_s: main's duration minus the
        part its child spans cover."""
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _job, order in self.spans:
            total[f"{name}.s"] += end - start
            if order is not None:
                total[f"{name}.s.k{order}"] += end - start
            if parent >= 0:
                child[parent] += end - start
        total["cli.main.self_s"] = sum(
            end - start - child[i]
            for i, (name, start, end, *_rest) in enumerate(self.spans)
            if name == "cli.main"
        )
        return total

    def write(self, f, label: int) -> None:
        """Append the spans as JSON lines, tagged with label (the pass)."""
        for name, start, end, parent, job, order in self.spans:
            f.write(json.dumps({"pass": label, "name": name, "start": start, "end": end,
                                "parent": parent, "job": job, "order": order}) + "\n")


def ensure_package(src: Path) -> None:
    """Import cliquecav from the checkout's src, not from an installed copy."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.import_module("cliquecav.cli")
