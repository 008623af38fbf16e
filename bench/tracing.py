"""In-process tracing of linetrees layers, from outside the package.

``Tracer.install`` wraps the public functions each module exposes to other
modules and patches every module that imported one of them by name (``cli``
imports ``encode``, ``closed_form_count`` and others), so calls between
layers pass through the wrappers.  Each wrapper records a span (name, start,
end, parent, job id) in flat arrays kept in memory, plus work counts taken
at the same boundary.  A layer is a module of ``src/linetrees``, named by
the span prefix before the first dot; its self time is the time its spans
cover minus the time their child spans cover, so the layers' self times add
up to the time spent inside ``cli.main``.

The table build has no public name of its own: when ``sample_uniform`` is
called on a table with an empty memo, its wrapper first fills the memo for
the requested profile, under a ``counting.table_build`` span, which is the
first thing ``sample_uniform`` does anyway.  Enumeration levels are found by
counting yielded trees against the Fuss-Catalan level sizes.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from math import comb

from checks import fuss_catalan

LAYERS = ("cli", "series", "combinatorics", "counting", "trees", "verification", "roots")


class Tracer:
    """Spans and counts of one traced pass; ``uninstall`` restores the package."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.name = array("H")
        self.parent = array("l")
        self.job = array("H")
        self._stack: list[int] = []
        self.job_id = 0
        self.counts: Counter = Counter()
        self.residual_max = 0.0
        self.level_s: dict[tuple[int, int], float] = {}
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.job.append(self.job_id)
        self.child.append(0.0)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> float:
        now = time.perf_counter()
        self.end[index] = now
        self._stack.pop()
        duration = now - self.start[index]
        parent = self.parent[index]
        if parent >= 0:
            self.child[parent] += duration
        return duration

    def span(self, name: str, fn):
        name_id = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper

    # -- installation ---------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        """Swap ``original`` for ``wrapper`` wherever a linetrees module or
        class namespace binds it by name."""
        for module_name, module in list(sys.modules.items()):
            if module_name != "linetrees" and not module_name.startswith("linetrees."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _replace_method(self, cls, attr: str, wrapper) -> None:
        original = vars(cls)[attr]
        for name, value in list(vars(cls).items()):
            if value is original:
                self._undo.append((cls, name, value))
                setattr(cls, name, wrapper)

    def install(self) -> None:
        from linetrees import combinatorics, counting, roots, series, trees, verification

        for module, attr, name in [
            (series, "solve_tree_equation", "series.solve_tree_equation"),
            (series, "closed_form_series", "series.closed_form_series"),
            (series, "verify_linear_recursion", "series.verify"),
            (series, "verify_geometric", "series.verify"),
            (series, "verify_convolution", "series.verify"),
            (combinatorics, "closed_form_count", "combinatorics.closed_form_count"),
            (combinatorics, "fuss_catalan_total", "combinatorics.fuss_catalan_total"),
            (combinatorics, "narayana", "combinatorics.narayana"),
            (trees, "count_by_profile_bruteforce", "trees.count_by_profile_bruteforce"),
            (roots, "build_char_polynomial", "roots.build_char_polynomial"),
        ]:
            original = getattr(module, attr)
            self._replace_everywhere(original, self.span(name, original))
        for module, attr, name, factory in [
            (trees, "encode", "trees.encode", self._encode),
            (trees, "enumerate_by_lines", "trees.enumerate_by_lines", self._enumerate),
            (roots, "rouche_isolation_check", "roots.rouche_isolation_check", self._rouche),
            (verification, "verify_oracle", "verification.verify_oracle", self._verifier),
            (verification, "verify_fuss_catalan_rows", "verification.verify_fuss_catalan_rows",
             self._verifier),
            (verification, "verify_narayana_bridge", "verification.verify_narayana_bridge",
             self._verifier),
        ]:
            original = getattr(module, attr)
            self._replace_everywhere(original, factory(name, original))
        self._replace_method(series.MultiSeries, "__mul__", self._mul(series.MultiSeries))
        table = counting.ProfileCountTable
        self._replace_method(table, "sample_uniform", self._sample(table.sample_uniform))
        for attr in ("recursive_count", "unrank"):
            self._replace_method(table, attr, self.span(f"counting.{attr}", getattr(table, attr)))
        self._replace_method(counting.SplitMix64, "next_word",
                             self._counted("counting.rng.words", counting.SplitMix64.next_word))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- wrappers with counts ---------------------------------------------

    def _counted(self, counter: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _encode(self, name: str, fn):
        """One span per top-level call.  ``encode`` recurses through its module
        global, which points back at the original during the call, so nested
        calls are neither spanned nor counted."""
        name_id = self.name_id(name)
        module = sys.modules[fn.__module__]

        @functools.wraps(fn)
        def wrapper(tree):
            index = self.open(name_id)
            module.encode = fn
            try:
                return fn(tree)
            finally:
                module.encode = wrapper
                self.close(index)
                self.counts["trees.encode.calls"] += 1

        return wrapper

    def _enumerate(self, name: str, fn):
        """A span per ``next()`` of the stream; the ``next()`` that yields a
        level's first tree built and sorted that level."""
        name_id = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(d, max_lines, **kwargs):
            stream = fn(d, max_lines, **kwargs)
            job = self.job_id
            level = 0
            size = left = fuss_catalan(d, 1)
            while True:
                index = self.open(name_id)
                try:
                    tree = next(stream)
                except StopIteration:
                    self.close(index)
                    return
                except BaseException:
                    self.close(index)
                    raise
                duration = self.close(index)
                if left == size:
                    self.level_s[job, level] = self.level_s.get((job, level), 0.0) + duration
                self.counts["trees.enumerate.trees"] += 1
                left -= 1
                if left == 0:
                    level += 1
                    size = left = fuss_catalan(d, level + 1)
                yield tree

        return wrapper

    def _rouche(self, name: str, fn):
        wrapped = self.span(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            report = wrapped(*args, **kwargs)
            self.counts["roots.rouche_isolation_check.calls"] += 1
            self.residual_max = max(self.residual_max, report.residual_max)
            return report

        return wrapper

    def _verifier(self, name: str, fn):
        wrapped = self.span(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            report = wrapped(*args, **kwargs)
            self.counts["verification.coefficients_checked"] += _checked(
                report.kind, report.d, report.params
            )
            return report

        return wrapper

    def _mul(self, cls):
        fn = cls.__mul__
        name_id = self.name_id("series.mul")
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(a, b):
            index = self.open(name_id)
            try:
                return fn(a, b)
            finally:
                self.close(index)
                counts["series.mul.calls"] += 1
                if isinstance(b, cls):
                    visited, kept = _pairs(a, b)
                    counts["series.mul.pairs_visited"] += visited
                    counts["series.mul.pairs_kept"] += kept

        return wrapper

    def _sample(self, fn):
        """A ``counting.sample_uniform`` span; on a fresh table, a child
        ``counting.table_build`` span fills the memo before the draws."""
        name_id = self.name_id("counting.sample_uniform")
        build_id = self.name_id("counting.table_build")

        @functools.wraps(fn)
        def wrapper(table, request):
            self.counts["counting.draws"] += request.count
            index = self.open(name_id)
            try:
                if not table._counts:
                    build = self.open(build_id)
                    try:
                        table._count(table._check(request.profile))
                    finally:
                        self.close(build)
                return fn(table, request)
            finally:
                self.close(index)

        return wrapper

    # -- results ------------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter, dict[str, float]]:
        """Per span name: inclusive time and span count; per layer: self time."""
        inclusive: Counter = Counter()
        calls: Counter = Counter()
        layer_self = dict.fromkeys(LAYERS, 0.0)
        layer_of = [name.split(".", 1)[0] for name in self.names]
        for i in range(len(self.start)):
            duration = self.end[i] - self.start[i]
            name = self.names[self.name[i]]
            inclusive[name] += duration
            calls[name] += 1
            layer_self[layer_of[self.name[i]]] += duration - self.child[i]
        return inclusive, calls, layer_self


def _pairs(a, b) -> tuple[int, int]:
    """Pairs a product visits and keeps, from the operands' degree histograms."""
    hist_a, hist_b = Counter(map(sum, a.coeffs)), Counter(map(sum, b.coeffs))
    kept = sum(
        na * nb for da, na in hist_a.items() for db, nb in hist_b.items() if da + db <= a.order
    )
    return len(a.coeffs) * len(b.coeffs), kept


def _checked(kind: str, d: int, params: dict) -> int:
    """Coefficients a verification report compared, from its parameters."""
    if kind == "fuss-catalan":
        return params["p_max"]
    # One coefficient per profile with total <= max_total: C(max_total + d, d).
    return comb(params["max_total"] + d, d)
