"""Correctness gate applied to every completed run.

The conservation bounds are the discrete identities of ROADMAP aim 3,
computed with the same formulas as ``tests/test_acceptance.py``.  The final
energy and helicity are compared with the values the unmodified program
produced for the same config (``reference.json``).
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Final-value tolerance, relative to max(1, |reference|).  Reruns of one
# config are bit-identical, and a solver change that still converges Newton
# to its 1e-10 relative tolerance moves the final values by ~1e-10, so 1e-6
# leaves four orders of margin; a scheme that relaxes to another state is off
# by far more (the three schemes' final energies differ at the 1e-2 level).
FINAL_VALUE_RTOL = 1e-6


def conservation_violations(result, scheme: str) -> list[str]:
    """Each aim-3 bound the run breaks, as a readable line."""
    out = []
    reports, records = result.reports, result.records
    bnorm = max(1.0, float((result.state.B.values ** 2).sum() ** 0.5))
    div = max(r.div_norm for r in reports) / bnorm
    if not div <= 1e-11:
        out.append(f"Gauss law {div:.3e} > 1e-11")
    energies = [result.initial_state.energy] + [r.energy for r in reports]
    rise = max((e1 - e0) / max(1.0, e0)
               for e0, e1 in zip(energies, energies[1:]))
    if not rise <= 1e-9:
        out.append(f"energy rise {rise:.3e} > 1e-9")
    if scheme != "nonconservative":
        h0 = records[0].helicity
        drift = max(abs(r.helicity - h0) for r in records) / max(1.0, abs(h0))
        if not drift <= 1e-8:
            out.append(f"helicity drift {drift:.3e} > 1e-8")
    if scheme == "projection":
        orth = max(abs(r.orthogonality) / max(r.orthogonality_scale, 1e-300)
                   for r in reports)
        if not orth <= 1e-12:
            out.append(f"(E,H) orthogonality {orth:.3e} > 1e-12")
    if scheme == "lagrange":
        elaw = max((abs(r.energy_law_residual) for r in reports
                    if r.energy_law_residual is not None), default=0.0)
        hres = max(r.helicity_residual for r in reports)
        if not (elaw <= 1e-9 and hres <= 1e-9):
            out.append(f"multiplier identities {elaw:.3e}, {hres:.3e} > 1e-9")
    return out


def reference_violations(result, expected: dict | None) -> list[str]:
    """Final energy and helicity against the stored reference values.

    ``expected`` is None when the unmodified program did not complete this
    run; a completed run then has the conservation bounds alone to meet.
    """
    if expected is None:
        return []
    final = result.records[-1]
    out = []
    for name in ("energy", "helicity"):
        got, ref = getattr(final, name), expected[name]
        if not abs(got - ref) <= FINAL_VALUE_RTOL * max(1.0, abs(ref)):
            out.append(f"final {name} {got:.17g} != reference {ref:.17g}")
    return out


def load_references() -> dict:
    return json.loads(REFERENCE_PATH.read_text()) \
        if REFERENCE_PATH.exists() else {}
