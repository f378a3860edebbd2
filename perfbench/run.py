"""Benchmark of the mfrelax relaxation runs, end to end and per layer.

    python3 perfbench/run.py --workload hopf-published --seed 0 --seconds 5 --trace 0

Each invocation runs one workload (see workloads.py) in this process: the
three schemes one after another, repeated until ``--seconds`` have passed
(always at least once).  It drives the program only through
``parse_config`` and ``run_simulation``, checks every completed run against
the correctness gate (gate.py), and prints the metrics; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` times only the step boundary and reports the end-to-end
metrics.  ``--trace 1`` wraps the program's public functions (tracing.py)
and reports the per-layer metrics, normalized per repetition, plus the
tracing overhead against untraced runs of the nonconservative scheme made
alternately in the same process.  Spans are written to
``.perfbench/trace-<workload>-seed<seed>.jsonl``.

``--schedule published`` runs the paper's full schedules instead of the
shortened ones and, traced at seed 0, compares the traffic with the
ROADMAP baseline counts.  ``--write-reference`` regenerates reference.json.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
from tracing import SELF_TIME_METRICS, Tracer  # noqa: E402
from workloads import (PARAM_GRIDS, PUBLISHED_PARAMS, SCHEMES,  # noqa: E402
                       WORKLOADS, Workload, config_text, field_params,
                       reference_key)

SETUP_SAMPLES = 5            # setup_s is the median of at least this many
OUT_DIR = ROOT / ".perfbench"

# ROADMAP baseline (seed commit, published schedules, cadence=1): Newton
# iterations and factorizations per run.
BASELINE_COUNTS = {
    ("hopf-published", "nonconservative"): (398, 401),
    ("hopf-published", "projection"): (399, 402),
    ("hopf-published", "lagrange"): (536, 570),
    ("e3-published", "nonconservative"): (433, 436),
    ("e3-published", "projection"): (446, 449),
    ("e3-published", "lagrange"): (481, 485),
}


class BenchError(RuntimeError):
    """The benchmark itself cannot run (not a failure of the program)."""


class _SetupDone(Exception):
    """Raised at the first step of a setup-only probe."""


def import_program() -> SimpleNamespace:
    """Import mfrelax from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import mfrelax
        from mfrelax import cli, diagnostics, errors, linalg, schemes
    except ImportError as exc:
        raise BenchError(f"cannot import mfrelax from {src}: {exc}") from exc
    if src.resolve() not in Path(mfrelax.__file__).resolve().parents:
        raise BenchError(f"mfrelax imported from {mfrelax.__file__}, "
                         f"not from {src}")
    return SimpleNamespace(cli=cli, diagnostics=diagnostics, errors=errors,
                           linalg=linalg, schemes=schemes)


class StepProbe:
    """Wraps ``mfrelax.cli.step_with_retry`` to time the step boundary.

    The only instrumentation of an untraced run: the wall time of each
    completed call and of each call that raised, and the time the first
    step began (the end of setup).
    """

    def __init__(self, cli):
        self.cli = cli
        self.original = cli.step_with_retry
        self.begin()

    def begin(self, setup_only: bool = False) -> None:
        self.setup_only = setup_only
        self.first_start: float | None = None
        self.times: list[float] = []          # completed steps
        self.failed_times: list[float] = []   # calls that raised

    def __enter__(self):
        probe, original = self, self.original

        def step_with_retry(*args, **kwargs):
            start = time.perf_counter()
            if probe.first_start is None:
                probe.first_start = start
            if probe.setup_only:
                raise _SetupDone
            try:
                out = original(*args, **kwargs)
            except Exception:
                probe.failed_times.append(time.perf_counter() - start)
                raise
            probe.times.append(time.perf_counter() - start)
            return out

        self.cli.step_with_retry = step_with_retry
        return self

    def __exit__(self, *exc_info):
        self.cli.step_with_retry = self.original


def _phase_of(step: int, phases) -> int:
    """1-based schedule phase that step number ``step`` belongs to."""
    end = 0
    for number, phase in enumerate(phases, 1):
        end += phase.n_steps
        if step <= end:
            return number
    return len(phases)


class Bench:
    """One workload at one seed: runs, gates and summarizes."""

    def __init__(self, mf, w: Workload, seed: int, phases: str,
                 references: dict | None):
        self.mf, self.w, self.seed, self.phases = mf, w, seed, phases
        self.params = field_params(w.field, seed)
        self.expected = None
        if references is not None:
            key = reference_key(w, self.params, phases)
            if key not in references:
                raise BenchError(f"no reference for {key!r}; run "
                                 "perfbench/run.py --write-reference")
            self.expected = references[key]
        self.out_dir = OUT_DIR / f"out-{os.getpid()}"
        self.probe = StepProbe(mf.cli)

    def config(self, scheme: str):
        out = str(self.out_dir / scheme) if self.w.write else None
        return self.mf.cli.parse_config(
            config_text(self.w, scheme, self.params, self.phases, out))

    def setup_probe(self, scheme: str) -> float:
        """Seconds from ``run_simulation`` entry to its first step."""
        cfg = self.config(scheme)
        gc.collect()
        self.probe.begin(setup_only=True)
        start = time.perf_counter()
        try:
            self.mf.cli.run_simulation(cfg, write=self.w.write)
        except _SetupDone:
            return self.probe.first_start - start
        raise BenchError("setup probe ran to completion")

    def run(self, scheme: str, rep: int, tracer: Tracer | None = None
            ) -> dict:
        """One ``run_simulation``: timings, outcome and gate verdict."""
        cfg = self.config(scheme)
        if self.w.write:
            shutil.rmtree(self.out_dir / scheme, ignore_errors=True)
        run_id = f"{self.w.name}/{scheme}/seed{self.seed}/rep{rep}"
        gc.collect()
        self.probe.begin()
        result = error = None
        start = time.perf_counter()
        try:
            if tracer is None:
                result = self.mf.cli.run_simulation(cfg, write=self.w.write)
            else:
                tracer.run_id, tracer.scheme = run_id, scheme
                with tracer.span("cli.run"):
                    result = self.mf.cli.run_simulation(cfg,
                                                        write=self.w.write)
        except Exception as exc:  # any failure of the program is a data point
            error = exc
            trace_text = traceback.format_exc()
        end = time.perf_counter()
        probe = self.probe
        first = probe.first_start if probe.first_start is not None else end
        rec = {
            "run_id": run_id, "scheme": scheme, "traced": tracer is not None,
            "setup_s": first - start, "run_s": end - first,
            "step_ms": [1e3 * t for t in probe.times],
            "failed_step_ms": [1e3 * t for t in probe.failed_times],
            "steps_completed": len(probe.times),
        }
        if error is not None:
            n_steps = sum(p.n_steps for p in cfg.phases)
            step = len(probe.times) + 1
            rec["error"] = {
                "type": type(error).__name__, "message": str(error),
                "step": step if probe.first_start is not None else 0,
                "phase": ("setup" if probe.first_start is None else
                          "output" if step > n_steps else
                          _phase_of(step, cfg.phases)),
                "traceback": trace_text.splitlines()[-3:]}
            rec["ok"] = False
            return rec
        reports = result.reports
        rec.update(
            newton_its=sum(r.newton_iters for r in reports),
            dt_halvings=len(reports) - len(probe.times),
            full_mode_steps=sum(r.mode == "full" for r in reports),
            schur_fallbacks=sum(bool(r.fallback) for r in reports),
            final_energy=result.records[-1].energy,
            final_helicity=result.records[-1].helicity)
        mismatches = [] if self.expected is None else \
            gate.reference_violations(result, self.expected[scheme])
        rec["violations"] = gate.conservation_violations(result, scheme)
        rec["reference_mismatches"] = mismatches
        rec["ok"] = not (rec["violations"] or mismatches)
        csv = self.out_dir / scheme / "timeseries.csv"
        if self.w.write and csv.exists():
            rec["csv_sha256"] = hashlib.sha256(csv.read_bytes()).hexdigest()
        return rec

    def measure(self, seconds: float, trace: bool) -> dict:
        """Repeat the three schemes until ``seconds`` have passed."""
        tracer = Tracer(self.mf) if trace else None
        runs, overhead_pairs, setups = [], [], []
        try:
            with self.probe:
                for scheme in SCHEMES:      # warm-up: lazy imports, first touch
                    self.setup_probe(scheme)
                deadline = time.perf_counter() + seconds
                rep = 0
                while rep == 0 or time.perf_counter() < deadline:
                    if trace:
                        runs += self._traced_rep(rep, tracer, overhead_pairs)
                    else:
                        reps = [self.run(s, rep) for s in SCHEMES]
                        setups.append(sum(r["setup_s"] for r in reps))
                        runs += reps
                    rep += 1
                while not trace and len(setups) < SETUP_SAMPLES:
                    setups.append(sum(self.setup_probe(s) for s in SCHEMES))
        finally:
            shutil.rmtree(self.out_dir, ignore_errors=True)
        return {"runs": runs, "reps": rep, "setups": setups,
                "overhead_pairs": overhead_pairs, "tracer": tracer}

    def _traced_rep(self, rep: int, tracer: Tracer, pairs: list) -> list:
        """One traced repetition plus an untraced nonconservative run for
        the overhead, in alternating order."""
        def untraced():
            return self.run("nonconservative", rep)

        plain = untraced() if rep % 2 == 0 else None
        with tracer.installed():
            runs = [self.run(s, rep, tracer) for s in SCHEMES]
        if plain is None:
            plain = untraced()
        traced = runs[0]
        pairs.append((plain["setup_s"] + plain["run_s"],
                      traced["setup_s"] + traced["run_s"]))
        return runs


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


def tail(samples: list[float], reps: int) -> tuple[float, str]:
    """Highest standard percentile with at least 10 samples beyond it;
    the maximum below 20 samples.

    The percentile is chosen from one repetition's share of the samples,
    so that it does not change with the number of repetitions a run fits.
    """
    n = len(samples) // reps
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= 10:
            return float(np.percentile(samples, p)), f"p{p:g}"
    return float(max(samples)), "max"


def end_to_end(m: dict) -> tuple[dict, dict]:
    runs = m["runs"]
    metrics = {
        "steps_per_s": (sum(r["steps_completed"] for r in runs)
                        / sum(r["run_s"] for r in runs), "1/s"),
    }
    notes = {}
    for scheme in SCHEMES:
        mine = [r for r in runs if r["scheme"] == scheme]
        # completed steps; a scheme that never completes one is timed by
        # its failing calls, or by its runs up to the failure
        samples = ([t for r in mine for t in r["step_ms"]]
                   or [t for r in mine for t in r["failed_step_ms"]]
                   or [1e3 * (r["setup_s"] + r["run_s"]) for r in mine])
        metrics[f"step_p50_ms.{scheme}"] = (statistics.median(samples), "ms")
        value, which = tail(samples, m["reps"])
        metrics[f"step_tail_ms.{scheme}"] = (value, "ms")
        notes[scheme] = {"step_samples": len(samples), "tail": which}
    metrics["setup_s"] = (statistics.median(m["setups"]), "s")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    ok = sum(r["ok"] for r in runs)
    # fail_ratio (failed / attempted) is reported as 1 - fail_ratio, so
    # that no metric is 0 (a bound is a share of the median)
    metrics["success_ratio"] = (ok / len(runs), "ratio")
    notes["fail_ratio"] = 1 - ok / len(runs)
    notes["setup_samples"] = len(m["setups"])
    return metrics, notes


def per_layer(m: dict) -> tuple[dict, dict]:
    tracer: Tracer = m["tracer"]
    runs = [r for r in m["runs"] if r["traced"]]
    reps = m["reps"]
    own = tracer.self_times()
    wall = tracer.wall()
    accounted = sum(own.values())
    if not abs(accounted - wall) <= 1e-9 * max(1.0, wall):
        raise BenchError(f"self times {accounted} do not add up to the "
                         f"traced wall time {wall}")
    metrics = {metric: (own.get(span, 0.0) / reps, "s")
               for span, metric in SELF_TIME_METRICS.items()}
    for name in ("schemes.residual_calls", "schemes.jacobian_calls",
                 "schemes.newton_its", "linalg.factor_calls",
                 "linalg.solve_calls", "linalg.krylov_its",
                 "linalg.schur_its", "linalg.failures", "diagnostics.calls",
                 "cli.files_written"):
        metrics[name] = (tracer.total(name) / reps, "count")
    metrics["cli.bytes_written"] = (
        tracer.total("cli.bytes_written") / reps, "bytes")
    for name in ("dt_halvings", "full_mode_steps", "schur_fallbacks"):
        metrics[f"schemes.{name}"] = (
            sum(r.get(name, 0) for r in runs) / reps, "count")
    factors = tracer.total("linalg.factor_calls")
    metrics["linalg.newton_its_per_factor"] = (
        tracer.total("schemes.newton_its") / factors if factors else 0.0,
        "ratio")
    metrics["linalg.factor_share"] = (own.get("linalg.factor", 0.0) / wall,
                                      "ratio")
    for base in ("schemes.jacobian_nnz", "linalg.lu_fill"):
        metrics[f"{base}_max"] = (max(
            (v for (n, _), v in tracer.maxima.items() if n == base),
            default=0), "count")
    for scheme in SCHEMES:
        metrics[f"schemes.newton_its.{scheme}"] = (
            tracer.total("schemes.newton_its", scheme) / reps, "count")
        metrics[f"linalg.factor_calls.{scheme}"] = (
            tracer.total("linalg.factor_calls", scheme) / reps, "count")
        metrics[f"linalg.lu_fill_max.{scheme}"] = (
            tracer.maxima.get(("linalg.lu_fill", scheme), 0), "count")
        metrics[f"schemes.jacobian_nnz_first.{scheme}"] = (
            tracer.firsts.get(("schemes.jacobian_nnz", scheme), 0), "count")
        metrics[f"schemes.jacobian_nnz_max.{scheme}"] = (
            tracer.maxima.get(("schemes.jacobian_nnz", scheme), 0), "count")
    plain = sum(p for p, _ in m["overhead_pairs"])
    traced = sum(t for _, t in m["overhead_pairs"])
    metrics["trace.overhead_ratio"] = ((traced - plain) / plain, "ratio")
    metrics["trace.wall_s"] = (wall / reps, "s")
    metrics["trace.spans"] = (len(tracer.names) / reps, "count")
    notes = {"traced_wall_s": wall, "self_time_sum_s": accounted,
             "overhead_pairs_s": m["overhead_pairs"]}
    return metrics, notes


# ---------------------------------------------------------------------------
# environment and reporting
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def _openblas_threads() -> int | str:
    import ctypes
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def environment() -> dict:
    import scipy
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    return {
        "git_commit": _git_commit(), "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "openblas_threads": _openblas_threads(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
    }


def check_baseline(w: Workload, metrics: dict) -> list[str]:
    """PASS/FAIL lines for the ROADMAP baseline counts of this workload."""
    lines = []
    for scheme in SCHEMES:
        want = BASELINE_COUNTS.get((w.name, scheme))
        if want is None:
            continue
        got = (metrics[f"schemes.newton_its.{scheme}"][0],
               metrics[f"linalg.factor_calls.{scheme}"][0])
        verdict = "PASS" if got == want else "FAIL"
        lines.append(f"baseline {verdict} {w.name}/{scheme}: newton its "
                     f"{got[0]:g} (ROADMAP {want[0]}), factorizations "
                     f"{got[1]:g} (ROADMAP {want[1]})")
    return lines


def run_benchmark(mf, w: Workload, seed: int, seconds: float, trace: bool,
                  phases: str, references: dict | None) -> dict:
    """Measure one workload; returns the summary and the full record."""
    bench = Bench(mf, w, seed, phases, references)
    m = bench.measure(seconds, trace)
    metrics, notes = per_layer(m) if trace else end_to_end(m)
    runs = m["runs"]
    summary = {
        "correct": not any(r.get("reference_mismatches") for r in runs),
        "attempted": len(runs), "failed": sum(not r["ok"] for r in runs),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    samples = {s: sum(len(r["step_ms"]) for r in runs if r["scheme"] == s)
               for s in SCHEMES}
    detail = {
        "workload": w.name, "seed": seed, "params": bench.params,
        "phases": phases, "trace": trace, "seconds": seconds,
        "repetitions": m["reps"], "step_samples": samples,
        "environment": environment(), "notes": notes,
        "runs": [{k: v for k, v in r.items() if not k.endswith("step_ms")}
                 for r in runs],
    }
    if trace:
        path = OUT_DIR / f"trace-{w.name}-seed{seed}.jsonl"
        m["tracer"].write_jsonl(path)
        detail["spans_file"] = str(path.relative_to(ROOT))
        if phases == w.published and seed == 0:
            detail["baseline"] = check_baseline(w, metrics)
    return {"summary": summary, "detail": detail}


def print_report(out: dict) -> None:
    detail, summary = out["detail"], out["summary"]
    notes = detail["notes"]
    print(f"perfbench {detail['workload']} seed={detail['seed']} "
          f"params={detail['params']} trace={int(detail['trace'])} "
          f"repetitions={detail['repetitions']} runs={summary['attempted']} "
          f"failed={summary['failed']} correct={summary['correct']}")
    for name, m in summary["metrics"].items():
        extra = ""
        scheme = name.rsplit(".", 1)[-1]
        if name.startswith("step_") and scheme in notes:
            extra = (f"  ({notes[scheme]['tail'] if 'tail' in name else 'p50'}"
                     f" of {notes[scheme]['step_samples']} steps)")
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}{extra}")
    if "fail_ratio" in notes:
        print(f"  {'fail_ratio':<40} {notes['fail_ratio']:>14.6g} ratio")
    for r in detail["runs"]:
        if r.get("error"):
            e = r["error"]
            print(f"  FAILED {r['run_id']}: {e['type']} at step {e['step']}"
                  f" (phase {e['phase']}): {e['message']}")
        for v in r.get("violations", []) + r.get("reference_mismatches", []):
            print(f"  GATE {r['run_id']}: {v}")
        if "csv_sha256" in r:
            print(f"  {r['run_id']} timeseries.csv sha256 {r['csv_sha256']}")
    for line in detail.get("baseline", ()):
        print(f"  {line}")
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps(summary))


def write_reference(mf, schedule: str) -> None:
    """Record the final energy and helicity of every benchmark config.

    Run at the commit whose outputs are the reference; a run that raises is
    stored as null.  The shortened schedules get every parameter grid point,
    the published schedules the published parameters.
    """
    refs = gate.load_references()
    for w in WORKLOADS.values():
        if schedule == "published":
            phases, points = w.published, [PUBLISHED_PARAMS[w.field]]
        else:
            grid = PARAM_GRIDS[w.field]
            phases = w.phases
            points = [dict(zip(grid, values))
                      for values in itertools.product(*grid.values())]
        for params in points:
            key = reference_key(w, params, phases)
            entry = {}
            for scheme in SCHEMES:
                cfg = mf.cli.parse_config(
                    config_text(w, scheme, params, phases))
                try:
                    final = mf.cli.run_simulation(cfg, write=False).records[-1]
                except mf.errors.MfrelaxError as exc:
                    print(f"{key} {scheme}: {type(exc).__name__}: {exc}")
                    entry[scheme] = None
                    continue
                entry[scheme] = {"energy": final.energy,
                                 "helicity": final.helicity}
                print(f"{key} {scheme}: {entry[scheme]}", flush=True)
            refs[key] = entry
            gate.REFERENCE_PATH.write_text(
                json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--schedule", choices=("bench", "published"),
                        default="bench")
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate reference.json for --schedule")
    args = parser.parse_args(argv)
    try:
        mf = import_program()
        if args.write_reference:
            write_reference(mf, args.schedule)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        w = WORKLOADS[args.workload]
        phases = w.published if args.schedule == "published" else w.phases
        out = run_benchmark(mf, w, args.seed, args.seconds, bool(args.trace),
                            phases, gate.load_references())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_report(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
