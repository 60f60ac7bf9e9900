"""Span tracer that times the torusbq layers from outside the library.

`Tracer.install` rebinds every public function named in LAYERS to a wrapper
that records a span (name, start, end, parent).  The rebinding is done in
every loaded torusbq module that holds the function, because modules import
each other's names (`torusbq.solver.advect` is `torusbq.transport.advect`);
wrapping only the defining module would let those calls go around the
tracer.  Fourier transforms are counted, not spanned: they are too many and
too short to carry a span each.  Spans stay in memory; `save` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array

import numpy as np

#: layer -> (module, public names wrapped in it); "Class.method" wraps a method.
LAYERS = {
    "spectral": (
        "torusbq.spectral",
        ("leray_project", "implicit_diffusion_solve", "divergence_defect"),
    ),
    "transport": ("torusbq.transport", ("advect", "velocity_grad_sup", "cfl_number")),
    "forcing": ("torusbq.forcing", ("sample_increment", "apply_noise", "weighted_sum")),
    "solver": ("torusbq.solver", ("step", "momentum_rhs", "run", "run_ensemble")),
    "diagnostics": ("torusbq.diagnostics", ("StoppingRule.fires",)),
    "ldp": ("torusbq.ldp", ("solve_skeleton", "minimize_cost", "mc_rare_event")),
    "io": ("torusbq.io", ("parse_config", "write_timeseries", "write_snapshot")),
}

#: Transform functions counted in numpy.fft and scipy.fft.
FFT_FUNCTIONS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)

#: Per-layer metrics of a traced run, in report order: (name, unit).
PER_LAYER = (
    ("spectral.ffts_per_step", "count"),
    ("spectral.ffts_per_row", "count"),
    ("spectral.fft_bytes_per_step", "B-computed"),
    ("spectral.implicit_diffusion_solve.calls", "count"),
    ("spectral.implicit_diffusion_solve.ms", "ms"),
    ("spectral.leray_fallbacks", "count"),
    ("spectral.leray_fallback_ratio", "ratio"),
    ("spectral.leray_project.ms", "ms"),
    ("spectral.divergence_defect.ms", "ms"),
    ("transport.advect.calls", "count"),
    ("transport.advect.skipped", "count"),
    ("transport.advect.ms_p50", "ms"),
    ("transport.velocity_grad_sup.calls_per_step", "count"),
    ("transport.velocity_grad_sup.ms_p50", "ms"),
    ("transport.cfl_number.ms", "ms"),
    ("forcing.sample_increment.ms", "ms"),
    ("forcing.apply_noise.ms", "ms"),
    ("forcing.weighted_sum.ms", "ms"),
    ("solver.step.calls", "count"),
    ("solver.step.ms_p50", "ms"),
    ("solver.momentum_rhs.self_ms", "ms"),
    ("solver.run.calls", "count"),
    ("solver.run.ms_p50", "ms"),
    ("solver.run.ms_p90", "ms"),
    ("solver.run.self_ms_per_step", "ms"),
    ("solver.run.blown_up", "count"),
    ("diagnostics.StoppingRule.fires.ms", "ms"),
    ("ldp.solve_skeleton.calls", "count"),
    ("ldp.solve_skeleton.ms_p50", "ms"),
    ("ldp.minimize_cost.self_s", "s"),
    ("io.parse_config.ms", "ms"),
    ("io.write_timeseries.ms", "ms"),
    ("io.write_timeseries.bytes", "B"),
    ("io.write_snapshot.ms", "ms"),
    ("io.write_snapshot.bytes", "B"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)

def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with q percent at or below it."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def _rebind(modules, original, replacement):
    """Point every module attribute that is `original` at `replacement`."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Tracer:
    """In-memory spans plus transform counters for one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self._open: list[int] = []  # per name: spans currently open
        self._stack: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # transforms inside solver.step: calls, computed bytes; inside
        # solver.run but outside a step: calls
        self.fft = [0, 0, 0]
        self.rows = 0
        self.blown_up = 0
        self.skipped_advects = 0
        self.written = {}  # span name -> bytes written over all calls

    def _intern(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return self._name_id[name]

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every function in LAYERS and count every transform.

        Raises LookupError naming the function when one no longer exists, so
        a renamed function fails the benchmark instead of timing nothing.
        """
        modules = {layer: importlib.import_module(mod) for layer, (mod, _) in LAYERS.items()}
        loaded = [m for n, m in sys.modules.items() if n == "torusbq" or n.startswith("torusbq.")]
        for layer, (mod_name, names) in LAYERS.items():
            for qualname in names:
                owner, _, attr = qualname.rpartition(".")
                target = getattr(modules[layer], owner, None) if owner else modules[layer]
                original = vars(target).get(attr) if target is not None else None
                if not callable(original):
                    raise LookupError(f"{mod_name}.{qualname} no longer exists")
                wrapper = self._wrap(f"{layer}.{qualname}", original)
                if owner:
                    setattr(target, attr, wrapper)
                else:
                    _rebind(loaded, original, wrapper)
        fft_modules = [importlib.import_module("numpy.fft"), importlib.import_module("scipy.fft")]
        for fft_module in fft_modules:
            for name in FFT_FUNCTIONS:
                original = getattr(fft_module, name)
                _rebind(loaded + [fft_module], original, self._count_fft(original))

    def _observer(self, name):
        if name == "transport.advect":
            def observe(args, kwargs, result):
                theta = args[0] if args else kwargs["theta"]
                self.skipped_advects += result is theta
            return observe
        if name == "solver.run":
            def observe(args, kwargs, result):
                self.rows += len(result.rows)
                self.blown_up += bool(result.blown_up)
            return observe
        if name.startswith("io.write_"):
            def observe(args, kwargs, result):
                path = args[1] if len(args) > 1 else kwargs["path"]
                self.written[name] = self.written.get(name, 0) + os.path.getsize(path)
            return observe
        return None

    def _wrap(self, name, fn):
        nid = self._intern(name)
        observe = self._observer(name)
        clock = time.perf_counter
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, open_ = self._stack, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            open_[nid] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                open_[nid] -= 1
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _count_fft(self, fn):
        step_id = self._intern("solver.step")
        run_id = self._intern("solver.run")
        counts, open_ = self.fft, self._open

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            if open_[step_id]:
                counts[0] += 1
                counts[1] += getattr(a, "nbytes", 0) + out.nbytes
            elif open_[run_id]:
                counts[2] += 1
            return out

        return wrapper

    # -- results --------------------------------------------------------------

    def calls(self) -> dict:
        """Span count per wrapped name."""
        ids = np.frombuffer(self.span_name, dtype=np.int32)
        counts = np.bincount(ids, minlength=len(self.names))
        return {name: int(counts[i]) for i, name in enumerate(self.names)}

    def metrics(self) -> dict:
        """PER_LAYER values from the spans and counters, except trace.overhead_s,
        which needs an untraced run to compare with."""
        ids = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        nested = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child

        def sel(name):
            return ids == self._name_id.get(name, -1)

        def count(name):
            return int(np.count_nonzero(sel(name)))

        def mean_ms(name, values=dur):
            v = values[sel(name)]
            return 1e3 * float(v.mean()) if len(v) else 0.0

        def pct_ms(name, q):
            return 1e3 * percentile(dur[sel(name)], q)

        def written(name):
            return self.written.get(name, 0) / max(count(name), 1)

        steps = count("solver.step")
        fallbacks = int(np.count_nonzero(
            sel("spectral.leray_project")
            & nested
            & (ids[np.maximum(parent, 0)] == self._name_id["spectral.implicit_diffusion_solve"])
        ))
        solves = count("spectral.implicit_diffusion_solve")
        run_self = float(self_time[sel("solver.run")].sum())
        values = {
            "spectral.ffts_per_step": self.fft[0] / max(steps, 1),
            "spectral.ffts_per_row": self.fft[2] / max(self.rows, 1),
            "spectral.fft_bytes_per_step": self.fft[1] / max(steps, 1),
            "spectral.implicit_diffusion_solve.calls": solves,
            "spectral.implicit_diffusion_solve.ms": mean_ms("spectral.implicit_diffusion_solve"),
            "spectral.leray_fallbacks": fallbacks,
            "spectral.leray_fallback_ratio": fallbacks / max(solves, 1),
            "spectral.leray_project.ms": mean_ms("spectral.leray_project"),
            "spectral.divergence_defect.ms": mean_ms("spectral.divergence_defect"),
            "transport.advect.calls": count("transport.advect"),
            "transport.advect.skipped": self.skipped_advects,
            "transport.advect.ms_p50": pct_ms("transport.advect", 50),
            "transport.velocity_grad_sup.calls_per_step":
                count("transport.velocity_grad_sup") / max(steps, 1),
            "transport.velocity_grad_sup.ms_p50": pct_ms("transport.velocity_grad_sup", 50),
            "transport.cfl_number.ms": mean_ms("transport.cfl_number"),
            "forcing.sample_increment.ms": mean_ms("forcing.sample_increment"),
            "forcing.apply_noise.ms": mean_ms("forcing.apply_noise"),
            "forcing.weighted_sum.ms": mean_ms("forcing.weighted_sum"),
            "solver.step.calls": steps,
            "solver.step.ms_p50": pct_ms("solver.step", 50),
            "solver.momentum_rhs.self_ms": mean_ms("solver.momentum_rhs", self_time),
            "solver.run.calls": count("solver.run"),
            "solver.run.ms_p50": pct_ms("solver.run", 50),
            "solver.run.ms_p90": pct_ms("solver.run", 90),
            "solver.run.self_ms_per_step": 1e3 * run_self / max(steps, 1),
            "solver.run.blown_up": self.blown_up,
            "diagnostics.StoppingRule.fires.ms": mean_ms("diagnostics.StoppingRule.fires"),
            "ldp.solve_skeleton.calls": count("ldp.solve_skeleton"),
            "ldp.solve_skeleton.ms_p50": pct_ms("ldp.solve_skeleton", 50),
            "ldp.minimize_cost.self_s": 1e-3 * mean_ms("ldp.minimize_cost", self_time),
            "io.parse_config.ms": mean_ms("io.parse_config"),
            "io.write_timeseries.ms": mean_ms("io.write_timeseries"),
            "io.write_timeseries.bytes": written("io.write_timeseries"),
            "io.write_snapshot.ms": mean_ms("io.write_snapshot"),
            "io.write_snapshot.bytes": written("io.write_snapshot"),
            "trace.spans": len(dur),
        }
        return values

    def save(self, path):
        """Write the spans (name index, parent index, start, end) to an .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start),
            end=np.frombuffer(self.span_end),
        )
