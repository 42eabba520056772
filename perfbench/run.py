"""Benchmark runner for the optitomo command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Each workload is one ``optitomo`` command (see WORKLOADS).  The runner is a
closed loop with one client: it starts one fresh interpreter at a time
(``child.py``), waits for it, checks its artifacts, and starts the next.

``--trace 0`` measures the end-to-end metrics with tracing off.  It first
times SETUP_PROBES bare imports of ``optitomo.cli``, then repeats the command
until the next sample would end after ``--seconds`` (at least MIN_SAMPLES
samples) and reports medians.  ``--trace 1`` runs the command once untraced
and once under ``tracer.Tracer`` and reports the per-layer metrics of the
traced run, with the tracing overhead as the difference of the two run
times.

Every sample passes through the correctness gate (``check_sample``); a
sample that fails is counted in ``failed``, never dropped.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric by name
with its unit and sample count, the gate result and the environment.

The program is run from ``src/`` of the checkout this file sits in, with
BLAS_THREADS BLAS threads.  The workload seed reaches the program only as
the CLI flags in WORKLOADS.  Outputs go to ``.perfbench_runs/`` in the
checkout and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
THRESHOLDS = ROOT / "tests" / "fixtures" / "acceptance_thresholds.json"

# One BLAS thread on every machine: it is never more than nproc, and the
# timings do not depend on how many cores other tenants leave free.
BLAS_THREADS = 1
SETUP_PROBES = 3
MIN_SAMPLES = 2
# No new sample starts if it would end after this many seconds of the run.
DEADLINE_S = 140.0
CHILD_TIMEOUT_S = 170.0

# name -> (CLI argv for a workload seed, why).  Only stability and
# recon_joint have random inputs; the others ignore the seed.
WORKLOADS = {
    "stability": (
        lambda seed: [
            "lipschitz", "--mesh.target_elements=1016", "--lipschitz.n_cells=8",
            "--lipschitz.a=1", "--lipschitz.b=2", f"--lipschitz.stability_seed={seed}",
        ],
        "locpot CGLS certificate search (~10k forward, ~10k adjoint solves) and 100 ntd builds; fem reuses each LU ~195 times; inversion idle",
    ),
    "recon_q": (
        lambda seed: ["example1"],
        "inversion in q-only mode, 1016 variables; dense quasi-Newton algebra dominates; 2 LUs per objective evaluation",
    ),
    "recon_joint": (
        lambda seed: ["example2", "--epsilon=0.03", f"--seed={seed}"],
        "joint inversion with 2032 noisy variables; dense algebra ~84% of the run; opposite side of any size-based BFGS choice",
    ),
    "forward_fine": (
        lambda seed: [
            "forward", "--mesh.target_elements=65536", "--coefficients.sigma=example1_sigma",
            "--coefficients.q=example1_q", "--forward.flux=offset_sin:10,1",
        ],
        "field writers (PGM) dominate; fem is factorization-bound: one LU on ~33k nodes, one solve",
    ),
    "mesh_fine": (
        lambda seed: ["mesh", "--mesh.target_elements=262144"],
        "mesh generation, validation and the 12.8 MB mesh writer do all the work; the only workload mesh dominates",
    ),
}

END_TO_END = [
    ("run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# Result quality per workload, read from the artifacts: name -> (unit, better).
QUALITY = {
    "L": ("1", "higher"),
    "violations": ("count", "lower"),
    "rel_l2_q": ("1", "lower"),
    "rel_l2_sigma": ("1", "lower"),
    "final_J_ratio": ("1", "lower"),
}

LAYER_MODULES = ("mesh", "field", "fem", "ntd", "locpot", "inversion", "synth")

PER_LAYER = [
    ("cli.main.busy_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    *((f"{m}.self_s", "s", "lower") for m in LAYER_MODULES),
    ("locpot.lipschitz_constant.busy_s", "s", "lower"),
    ("locpot.find_localized_current.calls", "count", "lower"),
    ("locpot.find_localized_current.busy_s", "s", "lower"),
    ("locpot.find_localized_current.self_s", "s", "lower"),
    ("locpot.certificate_s.p50", "s", "lower"),
    ("locpot.certificate_s.p75", "s", "lower"),
    ("locpot.stability_report.busy_s", "s", "lower"),
    ("locpot.stability_report.self_s", "s", "lower"),
    ("locpot.forward_applications", "count", "lower"),
    ("locpot.adjoint_applications", "count", "lower"),
    ("locpot.cg_iterations_reported", "count", "lower"),
    ("locpot.useful_fraction", "ratio", "higher"),
    ("locpot.L", "1", "higher"),
    ("locpot.violations", "count", "lower"),
    ("ntd.build_ntd.calls", "count", "lower"),
    ("ntd.build_ntd.busy_s", "s", "lower"),
    ("ntd.build_ntd.self_s", "s", "lower"),
    ("ntd.m_weighted_opnorm.busy_s", "s", "lower"),
    ("fem.factorizations", "count", "lower"),
    ("fem.factorize_s", "s", "lower"),
    ("fem.solves", "count", "lower"),
    ("fem.lu_solve_s", "s", "lower"),
    ("fem.solves_per_factorization", "ratio", "higher"),
    ("fem.assemble.calls", "count", "lower"),
    ("fem.assemble.busy_s", "s", "lower"),
    ("fem.solve_neumann.calls", "count", "lower"),
    ("fem.solve_neumann.busy_s", "s", "lower"),
    ("fem.solve_neumann_many.busy_s", "s", "lower"),
    ("fem.solve_dirichlet.calls", "count", "lower"),
    ("fem.solve_dirichlet.busy_s", "s", "lower"),
    ("fem.solve_source.calls", "count", "lower"),
    ("fem.solve_source.busy_s", "s", "lower"),
    ("fem.element_l2_products.busy_s", "s", "lower"),
    ("inversion.bfgs_minimize.busy_s", "s", "lower"),
    ("inversion.bfgs_minimize.self_s", "s", "lower"),
    ("inversion.objective_evals", "count", "lower"),
    ("inversion.iterations", "count", "lower"),
    ("inversion.evals_per_iteration", "ratio", "lower"),
    ("inversion.balancing_rho.calls", "count", "lower"),
    ("inversion.rel_l2_q", "1", "lower"),
    ("inversion.rel_l2_sigma", "1", "lower"),
    ("inversion.final_J_ratio", "1", "lower"),
    ("mesh.generate_disk_mesh.busy_s", "s", "lower"),
    ("mesh.TriMesh.validate.busy_s", "s", "lower"),
    ("mesh.TriMesh.element_neighbors.busy_s", "s", "lower"),
    ("mesh.TriMesh.boundary_mass.busy_s", "s", "lower"),
    ("mesh.write_mesh.busy_s", "s", "lower"),
    ("mesh.write_mesh.bytes", "bytes", "lower"),
    ("field.sample_coefficient.busy_s", "s", "lower"),
    ("field.write_field_pgm.busy_s", "s", "lower"),
    ("field.write_node_csv.busy_s", "s", "lower"),
    ("field.write_element_csv.busy_s", "s", "lower"),
    ("synth.make_measurements.busy_s", "s", "lower"),
    ("synth.error_metrics.busy_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

STABILITY_CURRENTS = 48  # 8 cells x K(1, 2) = 6 brackets


@dataclass
class Sample:
    """One child run: its timings, artifacts and gate verdict."""

    outdir: Path
    result: dict
    problems: list[str]
    quality: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("OPTITOMO_OUT", None)  # it would override --out
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(workdir: Path, tag: str, argv=None, trace=False, roundtrip=False) -> Sample:
    """Run one child to completion; argv None means a bare import."""
    outdir = workdir / tag
    outdir.mkdir(parents=True)
    result_path = outdir / "result.json"
    cmd = [sys.executable, str(BENCH / "child.py"), str(result_path)]
    if argv is None:
        cmd.append("--import-only")
    else:
        if trace:
            cmd.append("--trace")
        if roundtrip:
            cmd += ["--roundtrip", str(outdir / "mesh.txt")]
        cmd += ["--", *argv, "--out", str(outdir)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        return Sample(outdir, {}, [f"timed out after {CHILD_TIMEOUT_S:.0f} s"])
    if proc.returncode != 0 or not result_path.exists():
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return Sample(outdir, {}, [f"child exited {proc.returncode}: {tail}"])
    result = json.loads(result_path.read_text())
    sample = Sample(outdir, result, [])
    if argv is not None and result.get("rc") != 0:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        sample.problems.append(f"optitomo exited {result.get('rc')}: {tail}")
    return sample


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def error_value(path: Path, metric: str) -> float:
    return float({r["metric"]: r["value"] for r in read_csv(path)}[metric])


def check_sample(workload: str, sample: Sample) -> None:
    """Workload gate: fills sample.quality and appends to sample.problems."""
    if sample.problems:
        return
    out = sample.outdir
    try:
        manifest = json.loads((out / "manifest.json").read_text())
        sample.digests = manifest["outputs"]
        if workload == "stability":
            summary = read_csv(out / "lipschitz.csv")[0]
            certs = read_csv(out / "certificates.csv")
            sample.quality["L"] = float(summary["L"])
            sample.quality["violations"] = int(summary["violations"])
            if int(summary["n_currents"]) != STABILITY_CURRENTS or len(certs) != STABILITY_CURRENTS:
                sample.problems.append(f"expected {STABILITY_CURRENTS} currents")
            if not all(float(c["beta"]) > 1.0 for c in certs):
                sample.problems.append("a certificate has beta <= 1")
            if sample.quality["violations"] != 0:
                sample.problems.append(f"{sample.quality['violations']} stability violations")
        elif workload in ("recon_q", "recon_joint"):
            rows = read_csv(out / "iterations.csv")
            sample.quality["final_J_ratio"] = float(rows[-1]["J"]) / float(rows[0]["J"])
            sample.quality["rel_l2_q"] = error_value(out / "q_errors.csv", "rel_l2")
            if workload == "recon_q":
                limits = json.loads(THRESHOLDS.read_text())
                limit = limits["example1_cli_noise_free"]["thresholds"]["rel_l2_q"]
                if not sample.quality["rel_l2_q"] <= limit:
                    sample.problems.append(f"rel_l2_q {sample.quality['rel_l2_q']:.4f} > {limit}")
            else:
                sample.quality["rel_l2_sigma"] = error_value(out / "sigma_errors.csv", "rel_l2")
                opt = manifest["config"]["optimizer"]
                for name in ("q", "sigma"):
                    lo, hi = float(opt[f"{name}_lower"]), float(opt[f"{name}_upper"])
                    values = [float(r["value"]) for r in read_csv(out / f"{name}_rec.csv")]
                    if not all(lo <= v <= hi for v in values):
                        sample.problems.append(f"{name} reconstruction leaves [{lo}, {hi}]")
        elif workload == "mesh_fine" and sample.result.get("roundtrip_ok") is False:
            sample.problems.append("read_mesh does not round-trip the mesh file")
    except (OSError, KeyError, IndexError, ValueError) as exc:
        sample.problems.append(f"unreadable artifacts: {exc!r}")


def check_determinism(samples: list[Sample]) -> None:
    """Criterion 8: every sample of one run writes the same output digests."""
    reference = next((s.digests for s in samples if s.digests), None)
    for s in samples:
        if s.digests and s.digests != reference:
            changed = sorted(k for k in reference.keys() | s.digests.keys()
                             if reference.get(k) != s.digests.get(k))
            s.problems.append(f"output digests differ from the first sample: {changed}")


def tail_percentile(values: list[float]):
    """Highest of p50..p99 with at least ten samples beyond it, or None."""
    for p in (99, 95, 90, 75, 50):
        if len(values) * (1.0 - p / 100.0) >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


def describe(name: str, unit: str, values: list[float]) -> str:
    if not values:
        return f"  {name:<14} {unit:<6} no samples"
    tail = tail_percentile(values)
    tail_text = f"p{tail[0]} {tail[1]:.6g}" if tail else "tail n/a (<10 beyond p50)"
    return (f"  {name:<14} {unit:<6} median {statistics.median(values):<12.6g} "
            f"min {min(values):<10.6g} max {max(values):<10.6g} n={len(values):<3} {tail_text}")


def measure(workload: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, list[Sample]]:
    argv = WORKLOADS[workload][0](seed)
    probes = [run_child(workdir, f"probe{i}") for i in range(SETUP_PROBES)]
    samples: list[Sample] = []
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        # The fastest sample predicts the next one: the first mesh_fine sample
        # also runs the round-trip check.
        typical = min(walls, default=0.0)
        if len(samples) >= MIN_SAMPLES and elapsed + typical > seconds:
            break
        if samples and elapsed + typical > DEADLINE_S:
            break
        t0 = time.perf_counter()
        sample = run_child(workdir, f"sample{len(samples)}", argv,
                           roundtrip=(workload == "mesh_fine" and not samples))
        walls.append(time.perf_counter() - t0)
        check_sample(workload, sample)
        # Dropping checked outputs at once keeps their write-back off later samples.
        shutil.rmtree(sample.outdir, ignore_errors=True)
        samples.append(sample)
    check_determinism(samples)

    ok = [s for s in samples if s.result.get("run_s") is not None]
    values = {
        "run_s": [s.result["run_s"] for s in ok],
        "setup_s": [s.result["setup_s"] for s in probes + samples if "setup_s" in s.result],
        "peak_rss_mb": [s.result["peak_rss_mb"] for s in ok],
    }
    quality = _quality(samples)
    failed = sum(1 for s in samples if s.problems)
    print(f"command: optitomo {' '.join(argv)}   (closed loop, 1 client, {len(samples)} samples "
          f"in {time.perf_counter() - start:.1f} s; setup from {SETUP_PROBES} bare imports + each sample)")
    print("end-to-end metrics (tracing off):")
    for name, unit, _ in END_TO_END:
        print(describe(name, unit, values[name]))
    for name, value in quality.items():
        unit, better = QUALITY[name]
        print(f"  {name:<14} {unit:<6} {value:.6g}  ({better} is better; "
              f"n={sum(1 for s in samples if name in s.quality)}, must not vary)")
    print(f"  {'failed_frac':<14} {'ratio':<6} {failed / len(samples):.6g}  ({failed}/{len(samples)})")
    _print_gate(samples)
    if not all(values.values()):
        raise SystemExit("error: no sample completed, so there is nothing to report")
    return {name: {"value": statistics.median(values[name]), "unit": unit}
            for name, unit, _ in END_TO_END}, samples


def _quality(samples: list[Sample]) -> dict:
    """Quality figures of the first sample; differing samples fail the gate."""
    quality = {}
    for name in QUALITY:
        seen = [s.quality[name] for s in samples if name in s.quality]
        if seen:
            quality[name] = seen[0]
            if any(v != seen[0] for v in seen):
                for s in samples:
                    s.problems.append(f"{name} differs between samples: {sorted(set(seen))}")
    return quality


def _print_gate(samples: list[Sample]) -> None:
    failed = [s for s in samples if s.problems]
    print(f"gate: {len(samples) - len(failed)}/{len(samples)} samples passed")
    for s in failed:
        print(f"  FAILED {s.outdir.name}: {'; '.join(s.problems)}")


def layer_metrics(workload: str, report: dict, traced: Sample, plain: Sample) -> dict:
    spans = report["spans"]
    under = {(a, b): n for a, b, n in report["under"]}

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    values = {"cli.self_s": span("cli.main", "self_s")}
    for module in LAYER_MODULES:
        values[f"{module}.self_s"] = sum(
            s["self_s"] for name, s in spans.items() if name.startswith(module + ".")
        )
    for name, _, _ in PER_LAYER:
        stem, _, key = name.rpartition(".")
        if key in ("calls", "busy_s", "self_s") and name not in values:
            values[name] = span(stem, key)
    cert = spans.get("locpot.find_localized_current", {}).get("durations") or [0.0]
    values["locpot.certificate_s.p50"] = statistics.median(cert)
    values["locpot.certificate_s.p75"] = (
        statistics.quantiles(cert, n=4, method="inclusive")[2] if len(cert) > 1 else cert[0]
    )
    forward = under.get(("locpot.find_localized_current", "fem.solve_neumann"), 0)
    values["locpot.forward_applications"] = forward
    values["locpot.adjoint_applications"] = under.get(
        ("locpot.find_localized_current", "fem.solve_source"), 0)
    certificates = traced.outdir / "certificates.csv"
    reported = 0
    if workload == "stability" and certificates.exists():
        reported = sum(int(r["cg_iterations"]) for r in read_csv(certificates))
    values["locpot.cg_iterations_reported"] = reported
    values["locpot.useful_fraction"] = ratio(reported, forward)
    values["locpot.L"] = traced.quality.get("L", 0.0)
    values["locpot.violations"] = traced.quality.get("violations", 0)
    values["fem.factorizations"] = span("fem.factorize", "calls")
    values["fem.factorize_s"] = span("fem.factorize", "busy_s")
    values["fem.solves"] = report["solve_columns"]
    values["fem.lu_solve_s"] = span("fem.lu_solve", "busy_s")
    values["fem.solves_per_factorization"] = ratio(values["fem.solves"], values["fem.factorizations"])
    evals = under.get(("inversion.bfgs_minimize", "fem.assemble"), 0)
    iteration_log = traced.outdir / "iterations.csv"
    iterations = len(read_csv(iteration_log)) - 1 if iteration_log.exists() else 0
    values["inversion.objective_evals"] = evals
    values["inversion.iterations"] = iterations
    values["inversion.evals_per_iteration"] = ratio(evals, iterations)
    for name in ("rel_l2_q", "rel_l2_sigma", "final_J_ratio"):
        values[f"inversion.{name}"] = traced.quality.get(name, 0.0)
    mesh_file = traced.outdir / "mesh.txt"
    values["mesh.write_mesh.bytes"] = mesh_file.stat().st_size if mesh_file.exists() else 0
    values["trace.overhead_s"] = traced.result.get("run_s", 0.0) - plain.result.get("run_s", 0.0)

    # Work the artifacts report must have been seen by the trace.
    if forward < reported:
        traced.problems.append(f"certificates.csv reports {reported} CG iterations, trace saw {forward}")
    if evals < iterations + 1 and iterations:
        traced.problems.append(f"iterations.csv has {iterations + 1} rows, trace saw {evals} evaluations")
    return values


def trace_run(workload: str, seed: int, workdir: Path) -> tuple[dict, list[Sample]]:
    argv = WORKLOADS[workload][0](seed)
    plain = run_child(workdir, "untraced", argv)
    traced = run_child(workdir, "traced", argv, trace=True)
    samples = [plain, traced]
    for s in samples:
        check_sample(workload, s)
    check_determinism(samples)
    _quality(samples)
    report = traced.result.get("trace")
    if report is None:
        traced.problems.append("no trace recorded")
        values = {name: 0.0 for name, _, _ in PER_LAYER}
    else:
        values = layer_metrics(workload, report, traced, plain)
    print(f"command: optitomo {' '.join(argv)}   (one untraced and one traced run)")
    if report is not None:
        spans = report["spans"]
        print(f"  {'span':<42} {'calls':>8} {'busy_s':>10} {'self_s':>10}")
        for name, s in sorted(spans.items(), key=lambda kv: -kv[1]["busy_s"]):
            if s["calls"]:
                print(f"  {name:<42} {s['calls']:>8} {s['busy_s']:>10.4f} {s['self_s']:>10.4f}")
        idle = sorted(name for name, s in spans.items() if not s["calls"])
        print(f"  not exercised ({len(idle)}): {', '.join(idle)}")
    print("per-layer metrics (traced run):")
    for name, unit, better in PER_LAYER:
        print(f"  {name:<42} {unit:<6} {values[name]:<14.6g} ({better} is better)")
    _print_gate(samples)
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}, samples


def run_workload(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    print(f"== workload {workload}, seed {seed}, trace {int(trace)}: {WORKLOADS[workload][1]}")
    if trace:
        metrics, samples = trace_run(workload, seed, workdir)
    else:
        metrics, samples = measure(workload, seed, seconds, workdir)
    versions = next((s.result["versions"] for s in samples if "versions" in s.result), {})
    env = {**environment(), **versions}
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    failed = sum(1 for s in samples if s.problems)
    return {"correct": failed == 0, "attempted": len(samples), "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "optitomo" / "cli.py").is_file():
        print(f"error: no optitomo sources under {SRC}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_runs" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace), workdir / name)
            for name in names
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    if args.workload == "all":
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    else:
        summary = results[args.workload]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
