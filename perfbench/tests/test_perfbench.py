"""Checks of the benchmark itself: the tracer changes no result, the workload
seed reaches the program, the correctness gate catches broken artifacts, and
BENCHMARK.json lists exactly the metrics run.py reports."""

import csv
import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import optitomo.cli as cli  # noqa: E402
import optitomo.locpot  # noqa: E402
from tracer import Tracer  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
bench = sys.modules["perfbench_run"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

SMALL_LIPSCHITZ = [
    "--mesh.target_elements=254", "--lipschitz.n_cells=4", "--lipschitz.b=1.2",
    "--lipschitz.stability_pairs=5",
]
SMALL_RECON = ["--mesh.coarse_elements=254", "--mesh.fine_elements=1016", "--optimizer.max_iter=3"]


def _outputs(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text())["outputs"]


@pytest.mark.parametrize("argv", [
    ["lipschitz", "--lipschitz.a=1", *SMALL_LIPSCHITZ],
    ["example2", "--epsilon=0.03", *SMALL_RECON],
    ["forward", "--mesh.target_elements=254", "--coefficients.sigma=example1_sigma",
     "--coefficients.q=example1_q", "--forward.flux=offset_sin:10,1"],
])
def test_tracer_leaves_results_unchanged(tmp_path, argv):
    assert cli.main([*argv, "--out", str(tmp_path / "plain")]) == 0
    original = optitomo.locpot.solve_neumann
    with Tracer() as tracer:
        assert optitomo.locpot.solve_neumann is not original
        assert cli.main([*argv, "--out", str(tmp_path / "traced")]) == 0
    assert optitomo.locpot.solve_neumann is original
    assert _outputs(tmp_path / "traced") == _outputs(tmp_path / "plain")

    spans = tracer.report()["spans"]
    assert spans["cli.main"]["calls"] == 1
    assert spans["fem.factorize"]["calls"] >= 1
    assert tracer.solve_columns >= spans["fem.lu_solve"]["calls"] >= 1
    busy = spans["cli.main"]["busy_s"]
    assert sum(s["self_s"] for s in spans.values()) == pytest.approx(busy, rel=1e-9)


def test_tracer_sees_calls_through_other_modules_bindings(tmp_path):
    with Tracer() as tracer:
        cli.main(["lipschitz", "--lipschitz.a=1", *SMALL_LIPSCHITZ, "--out", str(tmp_path)])
    under = {(a, b): n for a, b, n in tracer.report()["under"]}
    with open(tmp_path / "certificates.csv", newline="") as fh:
        reported = sum(int(r["cg_iterations"]) for r in csv.DictReader(fh))
    forward = under[("locpot.find_localized_current", "fem.solve_neumann")]
    assert forward >= reported > 0
    assert tracer.report()["spans"]["mesh.TriMesh.boundary_mass"]["calls"] == 1


@pytest.mark.parametrize("workload, extra, key", [
    ("stability", SMALL_LIPSCHITZ, ("lipschitz", "stability_seed")),
    ("recon_joint", SMALL_RECON, ("noise", "seed")),
])
def test_seed_reaches_program(tmp_path, workload, extra, key):
    digests = []
    for seed in (3, 4):
        out = tmp_path / str(seed)
        argv = bench.WORKLOADS[workload][0](seed)
        assert cli.main([*argv, *extra, "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config[key[0]][key[1]] == str(seed)
        digests.append(_outputs(out))
    assert digests[0] != digests[1]


def _stability_artifacts(out: Path, betas, violations=0) -> bench.Sample:
    out.mkdir()
    (out / "manifest.json").write_text(json.dumps({"outputs": {"lipschitz.csv": "x"}}))
    (out / "lipschitz.csv").write_text(
        "L,stability_factor,n_currents,stability_pairs,violations\n"
        f"3e-07,3e6,{len(betas)},50,{violations}\n"
    )
    rows = "".join(f"1,1,{b},7,1.0\n" for b in betas)
    (out / "certificates.csv").write_text("j,k,beta,cg_iterations,g_norm_sq\n" + rows)
    return bench.Sample(out, {"rc": 0}, [])


def test_gate_checks_stability_certificates(tmp_path):
    good = _stability_artifacts(tmp_path / "good", [1.1] * 48)
    bench.check_sample("stability", good)
    assert good.problems == [] and good.quality["L"] == 3e-07

    weak = _stability_artifacts(tmp_path / "weak", [1.1] * 47 + [0.9])
    bench.check_sample("stability", weak)
    assert any("beta" in p for p in weak.problems)

    violated = _stability_artifacts(tmp_path / "violated", [1.1] * 48, violations=1)
    bench.check_sample("stability", violated)
    assert any("violations" in p for p in violated.problems)


def test_gate_checks_determinism(tmp_path):
    samples = [bench.Sample(tmp_path, {}, []) for _ in range(3)]
    for s, digest in zip(samples, "aab"):
        s.digests = {"out.csv": digest}
    bench.check_determinism(samples)
    assert [bool(s.problems) for s in samples] == [False, False, True]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == bench.PER_LAYER
