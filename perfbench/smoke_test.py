"""Smoke test of the benchmark itself, on tiny configs (seconds to run):

    python3 -m pytest -q perfbench/smoke_test.py

Each workload is shrunk to a 3x3x4 mesh and one step per phase (two steps
per scheme), keeping its field, phases' dt and tau, and output setting.
(On 2x2xN meshes lagrange cannot take a single hopf step: its saddle
system is singular there.)
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import SCHEMES, WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
MF = run.import_program()


def tiny(w):
    phases = ";".join(p.rsplit(",", 1)[0] + ",1" for p in w.phases.split(";"))
    return dataclasses.replace(w, mesh=(3, 3, 4), phases=phases)


def bench(name: str, trace: bool, references=None) -> dict:
    w = tiny(WORKLOADS[name])
    return run.run_benchmark(MF, w, seed=0, seconds=0, trace=trace,
                             phases=w.phases, references=references)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_emitted_with_its_unit(name, trace):
    out = bench(name, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    got = out["summary"]["metrics"]
    assert sorted(got) == sorted(m["name"] for m in declared)
    for m in declared:
        assert got[m["name"]]["unit"] == m["unit"]
        assert isinstance(got[m["name"]]["value"], (int, float))
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
def test_injected_failures_are_counted(monkeypatch, trace):
    schemes = MF.schemes

    def broken_step(self, state, dt, tau):
        raise MF.errors.MfrelaxError("injected")

    # a wrong output (nonconservative breaks the Gauss law) and a raise
    monkeypatch.setattr(schemes.NonConservativeScheme, "_divnorm",
                        lambda self, values: 1.0)
    monkeypatch.setattr(schemes.ProjectionScheme, "step", broken_step)
    out = bench("hopf-published", trace)
    summary, runs = out["summary"], out["detail"]["runs"]
    assert summary["attempted"] == 3 and summary["failed"] == 2
    by_scheme = {r["scheme"]: r for r in runs}
    assert by_scheme["nonconservative"]["violations"][0].startswith("Gauss")
    error = by_scheme["projection"]["error"]
    assert (error["type"], error["step"], error["phase"]) == \
        ("MfrelaxError", 1, 1)
    assert by_scheme["lagrange"]["ok"]
    if not trace:
        assert summary["metrics"]["success_ratio"]["value"] == 1 / 3


def test_wrong_final_values_make_the_result_incorrect():
    w = tiny(WORKLOADS["e3-published"])
    key = run.reference_key(w, run.field_params(w.field, 0), w.phases)
    wrong = {s: {"energy": 1.0, "helicity": 0.0} for s in SCHEMES}
    out = bench("e3-published", False, references={key: wrong})
    assert out["summary"]["correct"] is False
    assert out["summary"]["failed"] == 3


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_counts_agree(name):
    def counts(out):
        return {r["scheme"]: (r["steps_completed"], r.get("newton_its"))
                for r in out["detail"]["runs"] if r["run_id"].endswith("rep0")}

    plain, traced = bench(name, False), bench(name, True)
    assert counts(plain) == counts(traced)
    layer = traced["summary"]["metrics"]
    for scheme in SCHEMES:
        steps, its = counts(traced)[scheme]
        assert steps == 2
        assert layer[f"schemes.newton_its.{scheme}"]["value"] == its
