"""Span tracing around the public functions of centralizer_lab.

:class:`Tracer` replaces each traced function with a wrapper at every module
attribute of ``centralizer_lab`` that is bound to it, so calls made through
``linalg.eig`` and through a name imported with ``from .linalg import eig``
are both seen.  A span is (id, parent id, workload operation, name, start,
end); spans are kept in memory while the workload runs and written out
once, after it.  Nothing inside the library is edited on disk.
"""

from __future__ import annotations

import array
import functools
import gzip
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict

# Traced layers.  A span name is "module.function"; linalg.solve is folded
# into linalg.inv, because both are the same dense inverse kernel.
TRACED = {
    "linalg": ("eig", "mat_exp", "gauss_ldu", "inv", "solve"),
    "lie_core": ("adjoint", "centralizer_basis"),
    "invariants": ("section_from_invariants", "invariant_vector"),
    "kostant_maps": ("decompose_to_section", "stabilizer_lift", "chamber_form",
                     "unipotent_exp", "gstar_factor", "dress"),
    "toda": ("in_flow_domain", "toda_flow", "embed", "embed_inverse",
             "toda_point_from_matrix"),
    "centralizer": ("cjl_chart", "chart_pushforward_section", "symplectic_form",
                    "check_z_point", "cjl_pullback_deviation"),
    "sampling": ("sample_flow_domain",),
}
ALIASES = {"linalg.solve": "linalg.inv"}
SPAN_FIELDS = 6


def layer_names() -> list:
    """Span names in report order, aliases folded."""
    names = []
    for module, funcs in TRACED.items():
        for func in funcs:
            name = ALIASES.get(f"{module}.{func}", f"{module}.{func}")
            if name not in names:
                names.append(name)
    return names


class Tracer:
    """Spans of the traced functions, recorded while installed.

    Spans are packed six integers each into one array, the name as its
    index in :func:`layer_names`, so a traced check sweep of several
    hundred thousand spans stays small in memory.
    """

    def __init__(self):
        self.names = layer_names()
        self.op = -1
        self._spans = array.array("q")
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = self._find_patches()

    def _wrap(self, name: str, fn):
        spans, ids, local = self._spans, self._ids, self._local
        index = self.names.index(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.extend((span_id, parent, self.op, index, start, end))

        return wrapper

    def _find_patches(self) -> list:
        """(module, attribute, original, wrapper) for every module name
        bound to a traced function."""
        for module in TRACED:
            importlib.import_module(f"centralizer_lab.{module}")
        modules = [m for key, m in list(sys.modules.items())
                   if key == "centralizer_lab" or key.startswith("centralizer_lab.")]
        patches = []
        for module, funcs in TRACED.items():
            home = sys.modules[f"centralizer_lab.{module}"]
            for func in funcs:
                original = getattr(home, func)
                wrapper = self._wrap(ALIASES.get(f"{module}.{func}", f"{module}.{func}"),
                                     original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, attr, original, wrapper))
        return patches

    def install(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def spans(self):
        """(id, parent, op, name, start_ns, end_ns) tuples."""
        flat = self._spans
        for k in range(0, len(flat), SPAN_FIELDS):
            span_id, parent, op, index, start, end = flat[k:k + SPAN_FIELDS]
            yield span_id, parent, op, self.names[index], start, end

    def span_count(self) -> int:
        return len(self._spans) // SPAN_FIELDS

    def layer_totals(self) -> dict:
        """Per span name: (calls, self seconds, inclusive seconds).

        Self time is a span's duration minus the durations of its direct
        children; a child always runs inside its parent, on its thread.
        """
        child_ns = defaultdict(int)
        for _, parent, _, _, start, end in self.spans():
            if parent >= 0:
                child_ns[parent] += end - start
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        total_ns = defaultdict(int)
        for span_id, _, _, name, start, end in self.spans():
            calls[name] += 1
            self_ns[name] += end - start - child_ns[span_id]
            total_ns[name] += end - start
        return {name: (calls[name], self_ns[name] * 1e-9, total_ns[name] * 1e-9)
                for name in calls}

    def child_calls(self, parent_name: str, child_name: str) -> int:
        """Number of child_name spans whose parent is a parent_name span."""
        parents = {s[0] for s in self.spans() if s[3] == parent_name}
        return sum(1 for s in self.spans() if s[3] == child_name and s[1] in parents)

    def write(self, path) -> None:
        """Spans as gzipped tab-separated lines, one per span, by id."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\top\tname\tstart_ns\tend_ns\n")
            for span in sorted(self.spans()):
                fh.write("\t".join(map(str, span)) + "\n")
