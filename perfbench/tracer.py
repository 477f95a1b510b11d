"""Span recorder for the traced benchmark run.

The tracer wraps vkstab's public functions from outside the package: each
function is replaced, in every vkstab module namespace that holds it, by a
wrapper that records a span (name, start, end, parent span, op in flight and
a little metadata such as matrix dimensions).  Spans stay in memory until the
run ends.  `uninstall` restores every original object.

Spans opened on a worker thread with an empty stack (the thread pool inside
`certify`) take the main thread's innermost open span as their parent, so they
belong to the op in flight.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
import time


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "meta")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.meta = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _grid_meta(fn, args, kwargs, out):
    grid = _bound(fn, args, kwargs)["grid"]
    return {"n": grid.n, "grid": (grid.kind, grid.extent, grid.n)}


def _boost_meta(fn, args, kwargs, out):
    return {"n": _bound(fn, args, kwargs)["prof"].grid.n}


def _spectrum_meta(fn, args, kwargs, out):
    op = _bound(fn, args, kwargs)["op"]
    return {"n": op.grid.n, "dim": int(op.dimension)}


def _assemble_meta(fn, args, kwargs, out):
    # Bytes of the dense matrix the call builds: computed from its size.
    return {"n": out.grid.n, "bytes": 8 * int(out.dimension) ** 2}


def _steps_meta(fn, args, kwargs, out):
    bound = _bound(fn, args, kwargs)
    return {"steps": int(round(bound["t_end"] / bound["dt"]))}


# (span name, module, attribute path, metadata function or None)
TRACED = [
    ("core.invariants_of", "vkstab.core", "invariants_of", None),
    ("spectral.diff_matrices", "vkstab.spectral", "first_derivative_matrix", _grid_meta),
    ("spectral.diff_matrices", "vkstab.spectral", "second_derivative_matrix", _grid_meta),
    ("profiles.soliton_solve", "vkstab.profiles", "soliton_solve", _grid_meta),
    ("profiles.coupled_soliton", "vkstab.profiles", "coupled_soliton", _grid_meta),
    ("profiles.plane_wave", "vkstab.profiles", "plane_wave", _grid_meta),
    ("profiles.boost", "vkstab.profiles", "boost", _boost_meta),
    ("profiles.make_family", "vkstab.profiles", "make_family", None),
    ("profiles.continue_family", "vkstab.profiles", "continue_family", None),
    ("profiles.Family.profile", "vkstab.profiles", "Family.profile", None),
    ("profiles.Profile.from_dict", "vkstab.profiles", "Profile.from_dict", None),
    ("hessian.assemble", "vkstab.hessian", "assemble", _assemble_meta),
    ("hessian.spectrum", "vkstab.hessian", "spectrum", _spectrum_meta),
    ("hessian.kernel_matches_orbit", "vkstab.hessian", "kernel_matches_orbit", None),
    ("slope.d2w_fd", "vkstab.slope", "d2w_fd", None),
    ("slope.d2w_closed", "vkstab.slope", "d2w_closed", None),
    ("dynamics.evolve", "vkstab.dynamics", "evolve", _steps_meta),
    ("dynamics.align_to_orbit", "vkstab.dynamics", "align_to_orbit", None),
    ("dynamics.make_perturbation", "vkstab.dynamics", "make_perturbation", None),
    ("dynamics.stability_experiment", "vkstab.dynamics", "stability_experiment", None),
    ("so3.integrate_so3", "vkstab.so3", "integrate_so3", _steps_meta),
    ("so3.orbit_distance", "vkstab.so3", "orbit_distance", None),
    ("certify.certify", "vkstab.certify", "certify", None),
    ("certify.Certificate.to_json", "vkstab.certify", "Certificate.to_json", None),
]

FAMILY_SOLVE = "profiles.family.solve"


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None              # key of the op in flight; None during set-up
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self._patches = []          # (owner, attribute, original object)

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, meta=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            span = Span(name, parent, tracer.op)
            stack.append(span)
            span.start = time.perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if meta is not None:
                    # Set on failure too: a solve that raises still has a grid.
                    try:
                        span.meta = meta(fn, args, kwargs, out)
                    except (AttributeError, KeyError, TypeError):
                        span.meta = None    # signature or result shape changed
                with tracer._lock:
                    tracer.spans.append(span)

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "vkstab" or key.startswith("vkstab.")]
        for name, module_name, path, meta in TRACED:
            owner = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                self._patch_method(getattr(owner, cls_name), attr, name, meta)
                continue
            orig = getattr(owner, path)
            wrapped = self.wrap(name, orig, meta)
            # Replace the function wherever a module imported it by name.
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._patches.append((module, key, orig))
                        setattr(module, key, wrapped)
        self._patch_family_init(importlib.import_module("vkstab.profiles").Family)

    def _patch_method(self, cls, attr, name, meta) -> None:
        raw = vars(cls)[attr]
        self._patches.append((cls, attr, raw))
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(self.wrap(name, raw.__func__, meta)))
        else:
            setattr(cls, attr, self.wrap(name, raw, meta))

    def _patch_family_init(self, cls) -> None:
        """Wrap each new family's solver, so memo misses show as solve spans."""
        orig_init = vars(cls)["__init__"]
        tracer = self

        def init(fam, *args, **kwargs):
            orig_init(fam, *args, **kwargs)
            if not getattr(fam.solver, "_bench_traced", False):
                fam.solver = tracer.wrap(FAMILY_SOLVE, fam.solver)
                fam.solver._bench_traced = True

        self._patches.append((cls, "__init__", orig_init))
        cls.__init__ = init

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()


# ---------------------------------------------------------------------------
# Aggregation

def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time(span, children) -> float:
    """Duration minus the union of the child spans, clipped to the span."""
    kids = [(max(c.start, span.start), min(c.end, span.end))
            for c in children.get(id(span), ())]
    return span.duration - _union_length(kids)


PROFILE_SOLVES = ("profiles.soliton_solve", "profiles.coupled_soliton",
                  "profiles.plane_wave", "profiles.boost")

# Counts that must repeat exactly between two traced passes.
EXACT = (
    "hessian.spectrum.calls", "hessian.spectrum.dim_sum", "hessian.spectrum.ops",
    "hessian.assemble.bytes", "profiles.soliton_solve.calls",
    "profiles.family.solves", "profiles.family.memo_hit_ratio",
    "dynamics.evolve.steps", "dynamics.align_to_orbit.calls",
    "core.invariants_of.calls", "spectral.diff_matrices.sizes",
)


def layer_metrics(spans, setup_spans, base_n) -> dict:
    """Per-layer figures for one traced pass.

    `spans` are the pass's spans, `setup_spans` those recorded during set-up
    (used for the differentiation-matrix cache only), and `base_n` maps each
    op key to the grid size of its input profile when the op runs `certify`:
    work on a larger grid inside such an op is the refinement.
    """
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in named(name))

    def self_total(name):
        return sum(self_time(s, children) for s in named(name))

    def is_refine(s):
        n0 = base_n.get(s.op)
        return n0 is not None and s.meta is not None and s.meta["n"] > n0

    spec = named("hessian.spectrum")
    dims = [s.meta["dim"] for s in spec if s.meta]
    evolve_steps = sum(s.meta["steps"] for s in named("dynamics.evolve") if s.meta)
    so3_steps = sum(s.meta["steps"] for s in named("so3.integrate_so3") if s.meta)
    fam_calls = len(named("profiles.Family.profile"))
    fam_solves = len(named(FAMILY_SOLVE))
    align = named("dynamics.align_to_orbit")
    dist = named("so3.orbit_distance")
    diff = [s for s in setup_spans + spans if s.name == "spectral.diff_matrices"]

    return {
        "hessian.spectrum.base_s": sum(s.duration for s in spec if not is_refine(s)),
        "hessian.spectrum.refine_s": sum(s.duration for s in spec if is_refine(s)),
        "hessian.spectrum.calls": len(spec),
        "hessian.spectrum.dim_sum": sum(dims),
        # Dense symmetric eigendecomposition with eigenvectors: ~9 d^3 flops
        # (Golub and Van Loan); a work model computed from the dimensions.
        "hessian.spectrum.ops": sum(9 * d**3 for d in dims),
        "profiles.resolve.refine_s": sum(
            s.duration for s in spans if s.name in PROFILE_SOLVES and is_refine(s)),
        "profiles.soliton_solve.s": total("profiles.soliton_solve"),
        "profiles.soliton_solve.calls": len(named("profiles.soliton_solve")),
        "profiles.family.solves": fam_solves,
        "profiles.family.solve_s": total(FAMILY_SOLVE),
        "profiles.family.memo_hit_ratio": (1.0 - fam_solves / fam_calls) if fam_calls else 0.0,
        "profiles.continue_family.s": total("profiles.continue_family"),
        "slope.d2w_fd.self_s": self_total("slope.d2w_fd"),
        "slope.d2w_closed.s": total("slope.d2w_closed"),
        "hessian.assemble.s": total("hessian.assemble"),
        "hessian.assemble.bytes": sum(
            s.meta["bytes"] for s in named("hessian.assemble") if s.meta),
        "hessian.kernel_matches_orbit.s": total("hessian.kernel_matches_orbit"),
        "certify.certify.self_s": self_total("certify.certify"),
        "certify.Certificate.to_json.s": total("certify.Certificate.to_json"),
        "profiles.Profile.from_dict.s": total("profiles.Profile.from_dict"),
        "dynamics.evolve.s": total("dynamics.evolve"),
        "dynamics.evolve.steps": evolve_steps,
        # Stepping only: evolve's self time, without the invariants it samples.
        "dynamics.evolve.us_per_step": (
            1e6 * self_total("dynamics.evolve") / evolve_steps if evolve_steps else 0.0),
        "dynamics.align_to_orbit.calls": len(align),
        "dynamics.align_to_orbit.us_per_call": (
            1e6 * sum(s.duration for s in align) / len(align) if align else 0.0),
        "dynamics.make_perturbation.s": total("dynamics.make_perturbation"),
        "dynamics.stability_experiment.self_s": self_total("dynamics.stability_experiment"),
        "core.invariants_of.calls": len(named("core.invariants_of")),
        "core.invariants_of.s": total("core.invariants_of"),
        "so3.integrate_so3.us_per_step": (
            1e6 * total("so3.integrate_so3") / so3_steps if so3_steps else 0.0),
        "so3.orbit_distance.us_per_call": (
            1e6 * sum(s.duration for s in dist) / len(dist) if dist else 0.0),
        "spectral.diff_matrices.s": sum(s.duration for s in diff),
        "spectral.diff_matrices.sizes": len({s.meta["grid"] for s in diff if s.meta}),
    }
