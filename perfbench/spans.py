"""Span tracing from outside the program, and the per-layer arithmetic.

:class:`Tracer` rebinds, in the namespace of the importing module, every
public function that one ``annulab`` module imports from another, and wraps
the public methods of every ``annulab`` class in the class itself.
Calls of functions inside one module stay unwrapped, so hot helpers such as
``export.fmt`` cost nothing extra; public methods are class attributes, so
they are wrapped for every caller.  ``scipy.sparse.linalg.splu`` is wrapped as
the pseudo-layer ``linalg``.  A span's layer is the module that defines the
function, except that ``Mesh.write_vtk`` counts as ``export``.

Each thread keeps its own span stack, so the records that a sweep runs on its
pool threads become root spans of those threads.  Spans stay in memory until
:meth:`Tracer.uninstall`; :func:`layer_metrics` turns them into numbers.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

PACKAGE = "annulab"
# geometry has no costly public function on the benchmark paths, and the
# radial oracle is only called by the output check, outside the timed call
UNTRACED = {"geometry", "radial_oracle"}
LAYER_OVERRIDES = {"Mesh.write_vtk": "export"}
# the sweep's pool task: private, but it is the unit each worker thread runs
EXTRA_WRAPS = (("sweep", "_solve_record"),)


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None  # enclosing span on the same thread
    thread: int
    info: float | None = None  # a count taken from the call's result


def _result_info(name, result):
    """The count some calls contribute to their layer's metrics."""
    if name == "splu":
        return result.L.nnz + result.U.nnz
    if name == "smallest_eigenpair":
        return result.iterations
    if name == "build_mesh":
        return result.num_vertices
    if name == "sample_rings":
        return result.values.size
    if name == "sweep_translation":
        return len(result)
    return None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, layer: str):
        spans, ids, local = self.spans, self._ids, self._local
        short = name.rsplit(".", 1)[-1]

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                stack.pop()
                info = _result_info(short, result) if ok else None
                spans.append(Span(sid, name, layer, start, end, parent,
                                  threading.get_ident(), info))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", short)
        return traced

    def _patch(self, owner, attr, name, layer):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, layer))

    def install(self):
        """Wrap cross-module functions and public methods of ``annulab``."""
        import scipy.sparse.linalg as spla

        mods = {
            n.split(".", 1)[1]: m
            for n, m in list(sys.modules.items())
            if n.startswith(PACKAGE + ".") and n.count(".") == 1
        }
        for mname, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                home = getattr(obj, "__module__", None) or ""
                layer = home.rpartition(".")[2]
                if inspect.isfunction(obj) and home.startswith(PACKAGE + ".") \
                        and home != mod.__name__ and layer not in UNTRACED:
                    self._patch(mod, attr, f"{layer}.{attr}", layer)
                elif inspect.isclass(obj) and home == mod.__name__ \
                        and mname not in UNTRACED:
                    for mattr, fn in list(vars(obj).items()):
                        if mattr.startswith("_") or not inspect.isfunction(fn):
                            continue
                        qual = f"{attr}.{mattr}"
                        self._patch(obj, mattr, qual, LAYER_OVERRIDES.get(qual, mname))
        for mname, attr in EXTRA_WRAPS:
            if hasattr(mods.get(mname), attr):
                self._patch(mods[mname], attr, f"{mname}.{attr}", mname)
        self._patch(spla, "splu", "splu", "linalg")
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# -- arithmetic -------------------------------------------------------------


def _union(intervals):
    """Sorted disjoint union of (start, end) intervals."""
    out = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return out


def _measure(intervals) -> float:
    return sum(b - a for a, b in intervals)


def _intersect(xs, ys) -> float:
    """Total length of the intersection of two disjoint sorted unions."""
    total, i, j = 0.0, 0, 0
    while i < len(xs) and j < len(ys):
        lo = max(xs[i][0], ys[j][0])
        hi = min(xs[i][1], ys[j][1])
        if hi > lo:
            total += hi - lo
        if xs[i][1] < ys[j][1]:
            i += 1
        else:
            j += 1
    return total


def self_and_wait(spans):
    """Per-span ``(self_s, wait_s)``.

    Self time is the span's duration minus the time of its same-thread
    children.  On the calling thread (the one whose root span starts first)
    the part of what remains during which root spans of other threads,
    started inside this span, are running is waiting on them: it is reported
    as wait, not as self time.  Other threads are pool workers; they never
    wait in this program.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    roots = sorted((s for s in spans if s.parent is None), key=lambda s: s.start)
    caller = roots[0].thread if roots else None
    out = {}
    for s in spans:
        busy = _union((c.start, c.end) for c in children[s.sid])
        gaps, cursor = [], s.start
        for a, b in busy:
            if a > cursor:
                gaps.append([cursor, a])
            cursor = max(cursor, b)
        if s.end > cursor:
            gaps.append([cursor, s.end])
        wait = 0.0
        if s.thread == caller:
            others = _union(
                (r.start, min(r.end, s.end)) for r in roots
                if r.thread != caller and s.start <= r.start < s.end
            )
            wait = _intersect(gaps, others)
        out[s.sid] = (_measure(gaps) - wait, wait)
    return out


def thread_totals(spans):
    """Per thread: traced time (union of its root spans), self sum, wait sum."""
    sw = self_and_wait(spans)
    totals = {}
    for t in {s.thread for s in spans}:
        mine = [s for s in spans if s.thread == t]
        traced = _measure(_union((s.start, s.end) for s in mine if s.parent is None))
        totals[t] = {
            "traced_s": traced,
            "self_s": sum(sw[s.sid][0] for s in mine),
            "wait_s": sum(sw[s.sid][1] for s in mine),
            "spans": len(mine),
        }
    return totals


# layers that report self time; linalg reports its factorization time instead
LAYERS = ("eigensolver", "mesh", "fem", "torsion", "shape", "checks",
          "symmetrize", "export", "sweep", "spectral", "cli")


def layer_metrics(spans) -> dict:
    """Per-layer numbers from one traced call (see perfbench/README.md)."""
    sw = self_and_wait(spans)
    by_id = {s.sid: s for s in spans}
    self_s = defaultdict(float)
    wait_s = defaultdict(float)
    for s in spans:
        self_s[s.layer] += sw[s.sid][0]
        wait_s[s.layer] += sw[s.sid][1]

    def named(*names):
        return [s for s in spans if s.name.rsplit(".", 1)[-1] in names]

    def info_sum(name):
        return sum(s.info or 0 for s in named(name))

    fd = [s for s in named("solve_eigenproblem")
          if s.parent is not None and by_id[s.parent].layer == "shape"]
    splu = named("splu")
    m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    m.update({
        "eigensolver.solves": len(named("smallest_eigenpair")),
        "eigensolver.outer_iters": info_sum("smallest_eigenpair"),
        "linalg.factorizations": len(splu),
        "linalg.factor_s": sum(s.end - s.start for s in splu),
        "linalg.lu_nnz": info_sum("splu"),
        "mesh.builds": len(named("build_mesh")),
        "mesh.vertices": info_sum("build_mesh"),
        "fem.assemblies": len(named("assemble_stiffness", "assemble_mass")),
        "fem.reductions": len(named("reduce_system")),
        "torsion.solves": len(named("solve_torsion")),
        "shape.fd_solves": len(fd),
        "checks.reports": len(named("geometry_report")),
        "symmetrize.polarizations": len(named("polarize")),
        "symmetrize.ring_points": info_sum("sample_rings"),
        "sweep.wait_s": wait_s["sweep"],
        "sweep.records": info_sum("sweep_translation"),
    })
    return m
