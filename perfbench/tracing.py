"""Per-layer spans and counters, recorded from outside the program.

The tracer wraps public functions of the ``mfrelax`` modules at the names
their callers look up, records one span per call (name, start, end,
parent, run id) in memory, and counts work at the same boundaries.  A
layer's self time is its spans' durations minus the time their child spans
cover, so the self times of all layers add up to the traced wall time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Layers whose self time is reported, by span name -> metric name.
SELF_TIME_METRICS = {
    "cli.run": "cli.run_self_s",
    "mesh.build": "mesh.build_s",
    "feec.assemble": "feec.assemble_s",
    "fields.init": "fields.init_s",
    "schemes.init": "schemes.init_s",
    "schemes.step": "schemes.step_self_s",
    "schemes.newton": "schemes.newton_self_s",
    "schemes.residual": "schemes.residual_s",
    "schemes.jacobian": "schemes.jacobian_s",
    "linalg.factor": "linalg.factor_s",
    "linalg.solve": "linalg.solve_s",
    "linalg.saddle": "linalg.saddle_self_s",
    "linalg.krylov": "linalg.krylov_self_s",
    "diagnostics": "diagnostics.s",
    "cli.write": "cli.write_s",
    "trace.probe": "trace.probe_s",
}


class Tracer:
    """In-memory spans plus per-scheme counters."""

    def __init__(self, mf):
        self.mf = mf                 # namespace of the mfrelax modules
        self.t0 = time.perf_counter()
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.run_ids: list[str] = []
        self._stack: list[int] = []
        self.run_id = ""
        self.scheme = ""
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.maxima: dict[tuple[str, str], float] = {}
        self.firsts: dict[tuple[str, str], float] = {}

    # -- spans ---------------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.run_ids.append(self.run_id)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    # -- counters ------------------------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        self.counts[name, self.scheme] += value

    def note_max(self, name: str, value: float) -> None:
        key = name, self.scheme
        self.maxima[key] = max(self.maxima.get(key, value), value)
        self.firsts.setdefault(key, value)

    # -- wrapping ------------------------------------------------------------
    def wrap(self, fn, name: str, after=None):
        tracer = self
        lin_err = self.mf.errors.LinearAlgebraError

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            except lin_err as exc:
                # an error crossing several wrapped calls is counted once
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    tracer.count("linalg.failures")
                raise
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer, idx, args, out)
            return out
        return traced

    def patch_points(self):
        """(owner, attribute, span name, after-hook) for every wrapped name."""
        cli, schemes, linalg, diag = (self.mf.cli, self.mf.schemes,
                                      self.mf.linalg, self.mf.diagnostics)
        classes = (schemes.NonConservativeScheme, schemes.ProjectionScheme,
                   schemes.LagrangeMultiplierScheme)
        return [
            (cli, "build_mesh", "mesh.build", None),
            (cli, "assemble_operators", "feec.assemble", None),
            (cli, "init_divfree_field", "fields.init", None),
            (cli, "make_scheme", "schemes.init", None),
            *[(c, "initial_state", "schemes.init", None) for c in classes],
            (cli, "step_with_retry", "schemes.step", None),
            (schemes, "newton_solve", "schemes.newton", _after_newton),
            *[(c, "residual", "schemes.residual", _after_residual)
              for c in classes],
            (classes[0], "jacobian", "schemes.jacobian", _after_jacobian),
            (classes[1], "jacobian", "schemes.jacobian", _after_jacobian),
            (classes[2], "jacobian_blocks", "schemes.jacobian",
             _after_jacobian),
            (linalg.DirectSolver, "__init__", "linalg.factor", _after_factor),
            (linalg.DirectSolver, "solve", "linalg.solve", _after_solve),
            (schemes, "solve_saddle", "linalg.saddle", None),
            (linalg, "fgmres", "linalg.krylov", _after_fgmres),
            (cli, "recover_potential", "diagnostics", _after_diagnostic),
            (diag, "recover_potential", "diagnostics", _after_diagnostic),
            (cli, "helicity", "diagnostics", _after_diagnostic),
            (cli, "lorentz_and_alpha", "diagnostics", _after_diagnostic),
            (diag.PotentialRecovery, "__init__", "diagnostics",
             _after_diagnostic),
            (cli, "write_outputs", "cli.write", _after_write),
        ]

    @contextmanager
    def installed(self):
        """Wrap every patch point; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, after in self.patch_points():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results -------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Total self time per span name over all closed spans."""
        if not self.names:
            return {}
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents)
        covered = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], dur[has_parent])
        own = dur - covered
        totals: dict[str, float] = defaultdict(float)
        for name, value in zip(self.names, own.tolist()):
            totals[name] += value
        return dict(totals)

    def wall(self) -> float:
        """Summed duration of the root spans: the traced wall time."""
        return float(sum(e - s for e, s, p in
                         zip(self.ends, self.starts, self.parents) if p < 0))

    def total(self, name: str, scheme: str | None = None) -> float:
        """Counter ``name`` summed over all schemes, or for one scheme."""
        return sum(v for (n, s), v in self.counts.items()
                   if n == name and scheme in (None, s))

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": self.parents[i],
                    "run": self.run_ids[i],
                    "start": self.starts[i] - self.t0,
                    "end": self.ends[i] - self.t0}) + "\n")


# -- counting hooks, run after the wrapped call returned ---------------------

def _after_newton(tracer, idx, args, out):
    tracer.count("schemes.newton_its", out[1])


def _after_residual(tracer, idx, args, out):
    tracer.count("schemes.residual_calls")


def _after_jacobian(tracer, idx, args, out):
    tracer.count("schemes.jacobian_calls")
    matrix = out[0] if isinstance(out, tuple) else out
    tracer.note_max("schemes.jacobian_nnz", matrix.nnz)


def _after_factor(tracer, idx, args, out):
    tracer.count("linalg.factor_calls")
    lu = getattr(args[0], "_lu", None)
    if lu is not None:
        # materializing L and U copies the factor: charge it to the tracer
        with tracer.span("trace.probe"):
            fill = lu.L.nnz + lu.U.nnz
        tracer.note_max("linalg.lu_fill", fill)


def _after_solve(tracer, idx, args, out):
    tracer.count("linalg.solve_calls")


def _after_fgmres(tracer, idx, args, out):
    # outer iterations only: the inner Schur solves run inside the outer
    # FGMRES (as children of its span), capped at two iterations each
    parent = tracer.parents[idx]
    if parent >= 0 and tracer.names[parent] == "linalg.saddle":
        tracer.count("linalg.krylov_its", out.iterations)
    else:
        tracer.count("linalg.schur_its", out.iterations)


def _after_diagnostic(tracer, idx, args, out):
    tracer.count("diagnostics.calls")


def _after_write(tracer, idx, args, out):
    tracer.count("cli.files_written", len(out))
    tracer.count("cli.bytes_written", sum(p.stat().st_size for p in out))
