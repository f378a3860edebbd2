"""Benchmark workloads and the configs generated from a workload seed.

A workload fixes the field, the mesh, the schedule and whether outputs are
written; the seed only perturbs the analytic field's parameters.  The
program receives nothing but the generated ``key=value`` config text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SCHEMES = ("nonconservative", "projection", "lagrange")

# Seed 0 runs the published parameters.  Any other seed draws each
# parameter from these grids, within 0.1% of the published value: the
# inputs change with the seed, so no result can be cached or special-cased,
# but the work does not.  At 1% the step where lagrange first engages its
# energy multiplier already moves by nine steps on hopf.  The points are
# those where the work matches the published values': at hopf_s = 1.001
# lagrange on hopf-8x8x20 fails its dt = 100 step one factorization later,
# and at e3_B0 = 0.999 or e3_k = 4.995 lagrange's first dt = 100 step on
# e3 can take 7 Newton iterations instead of 8.  Every grid point has a
# stored reference (reference.json), which is why the draw is from a grid.
PARAM_GRIDS = {
    "hopf": {"hopf_s": (0.999, 1.0)},
    "e3": {"e3_B0": (1.0, 1.001), "e3_k": (5.0, 5.005)},
}
PUBLISHED_PARAMS = {"hopf": {"hopf_s": 1.0}, "e3": {"e3_B0": 1.0, "e3_k": 5.0}}


@dataclass(frozen=True)
class Workload:
    name: str
    field: str
    mesh: tuple[int, int, int] | None  # None: the field's published mesh
    phases: str       # the benchmark's schedule: both published phases, shortened
    published: str    # the paper's schedule, run with ``--schedule published``
    write: bool       # write CSV and VTK like ``mfrelax run``
    why: str


WORKLOADS = {w.name: w for w in (
    Workload(
        "hopf-published", "hopf", None,
        phases="1,1,24;100,0.1,16", published="1,1,100;100,0.1,99",
        write=True,
        why="smallest systems, so assembly, Newton and I/O overheads show; "
            "the only workload writing files and where lagrange uses both "
            "multipliers"),
    Workload(
        "e3-published", "e3", None,
        phases="0.1,1,10;100,0.1,2", published="0.1,1,100;100,0.1,100",
        write=False,
        why="larger systems where LU dominates; lagrange stays reduced "
            "(k = 1) and nothing is written, so I/O changes predict no change"),
    Workload(
        "hopf-8x8x20", "hopf", (8, 8, 20),
        phases="1,1,1;100,0.1,1", published="1,1,2;100,0.1,1",
        write=False,
        why="refined mesh: LU fill and memory dominate; lagrange raises at the "
            "first dt = 100 step and projection breaks the orthogonality "
            "bound, both counted, not skipped"),
)}


def field_params(field: str, seed: int) -> dict[str, float]:
    """The analytic-field parameters for ``seed`` (seed 0: published)."""
    if seed == 0:
        return dict(PUBLISHED_PARAMS[field])
    rng = random.Random(seed)
    return {key: rng.choice(grid) for key, grid in PARAM_GRIDS[field].items()}


def config_text(w: Workload, scheme: str, params: dict[str, float],
                phases: str, output_dir: str | None = None) -> str:
    """The complete config a run receives."""
    lines = [f"scheme={scheme}", f"field={w.field}", f"phases={phases}",
             "cadence=1"]
    if w.mesh is not None:
        lines += [f"{axis}={n}" for axis, n in zip(("nx", "ny", "nz"), w.mesh)]
    lines += [f"{key}={value!r}" for key, value in sorted(params.items())]
    if output_dir is not None:
        lines.append(f"output_dir={output_dir}")
    return "\n".join(lines) + "\n"


def reference_key(w: Workload, params: dict[str, float], phases: str) -> str:
    """Key of a run's stored reference: everything but the scheme."""
    return config_text(w, "-", params, phases).split("\n", 1)[1] \
        .strip().replace("\n", " ")
