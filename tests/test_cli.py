import json
import pathlib

import numpy as np
import pytest

from optitomo.cli import main
from optitomo.field import read_node_csv
from optitomo.mesh import read_mesh

FIXTURES = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "acceptance_thresholds.json").read_text()
)


def run(args):
    return main(list(args))


def test_mesh_command(tmp_path):
    out = tmp_path / "m"
    assert run(["mesh", "--mesh.target_elements=254", "--out", str(out)]) == 0
    mesh = read_mesh(out / "mesh.txt")
    assert 216 <= mesh.n_elements <= 292
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "mesh"
    assert "mesh.txt" in manifest["outputs"]


def test_forward_command_outputs(tmp_path):
    out = tmp_path / "f"
    code = run([
        "forward", "--mesh.target_elements=254",
        "--coefficients.sigma=example1_sigma", "--coefficients.q=example1_q",
        "--forward.flux=offset_sin:10,1", "--out", str(out),
    ])
    assert code == 0
    mesh_out = tmp_path / "mesh_ref"
    run(["mesh", "--mesh.target_elements=254", "--out", str(mesh_out)])
    mesh = read_mesh(mesh_out / "mesh.txt")
    trace_lines = (out / "trace.csv").read_text().strip().splitlines()
    assert len(trace_lines) - 1 == mesh.n_boundary
    assert (out / "solution.pgm").exists()


def test_forward_zero_flux_zero_solution(tmp_path):
    out = tmp_path / "z"
    assert run([
        "forward", "--mesh.target_elements=254",
        "--coefficients.sigma=one", "--coefficients.q=one",
        "--forward.flux=const:0", "--out", str(out),
    ]) == 0
    mesh_out = tmp_path / "mesh_ref"
    run(["mesh", "--mesh.target_elements=254", "--out", str(mesh_out)])
    mesh = read_mesh(mesh_out / "mesh.txt")
    u = read_node_csv(mesh, out / "solution.csv")
    assert np.all(u.values == 0.0)


def test_forward_rerun_byte_identical(tmp_path):
    args = [
        "forward", "--mesh.target_elements=254",
        "--coefficients.sigma=example1_sigma", "--coefficients.q=example1_q",
        "--forward.flux=offset_sin:10,2",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    for name in ("solution.csv", "trace.csv", "solution.pgm"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_unknown_config_key_exits_one(tmp_path):
    assert run(["forward", "--bogus.key=1", "--out", str(tmp_path)]) == 1
    assert run(["forward", "--forward.bogus=1", "--out", str(tmp_path)]) == 1
    # line-search internals are module constants, not settings
    assert run(["example1", "--optimizer.armijo=1e-4", "--out", str(tmp_path)]) == 1
    assert run(["example1", "--optimizer.max_backtracks=30", "--out", str(tmp_path)]) == 1
    assert run(["no_such_command"]) == 1


@pytest.mark.parametrize("override, message", [
    ("--coefficients.sigma=constant:abc", "error: malformed coefficient descriptor 'constant:abc'"),
    ("--forward.flux=sin:x", "error: malformed flux descriptor 'sin:x'"),
])
def test_malformed_descriptor_number_exits_two(tmp_path, capsys, override, message):
    args = [
        "forward", "--mesh.target_elements=254", "--coefficients.sigma=one",
        "--coefficients.q=one", "--forward.flux=sin:1", override, "--out", str(tmp_path),
    ]
    assert run(args) == 2
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("coefficient", [
    "--coefficients.sigma=constant:nan",
    "--coefficients.sigma=constant:inf",
    "--coefficients.q=constant:nan",
    "--coefficients.q=constant:inf",
])
def test_non_finite_coefficient_exits_two(tmp_path, capsys, coefficient):
    args = [
        "forward", "--mesh.target_elements=254", "--coefficients.sigma=one",
        "--coefficients.q=one", "--forward.flux=sin:1", coefficient, "--out", str(tmp_path),
    ]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: coefficient must be finite and strictly positive")
    assert err.count("\n") == 1
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("args", [
    ["example1", "--seed", "-1"],
    ["example1", "--noise.seed=-1"],
    ["lipschitz", "--mesh.target_elements=254", "--lipschitz.a=1", "--lipschitz.b=2",
     "--lipschitz.stability_seed=-3"],
    ["lipschitz", "--mesh.target_elements=254", "--lipschitz.a=1", "--lipschitz.b=2",
     "--lipschitz.n_cells=0"],
])
def test_negative_seed_or_cell_count_is_a_usage_error(tmp_path, capsys, args):
    assert run(args + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", [
    "target_elements = 254\n",                                    # key before any section
    "[mesh]\ntarget_elements = 254\n[mesh]\ncoarse_elements = 1\n",  # repeated section
])
def test_malformed_config_file_is_a_usage_error(tmp_path, capsys, text):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    assert run(["mesh", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1


def test_nan_noise_level_exits_two(tmp_path, capsys):
    assert run(["example1", "--epsilon=nan", "--optimizer.max_iter=1", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: noise level must be finite and nonnegative, got nan\n"
    assert not (tmp_path / "manifest.json").exists()


def test_config_file_and_overrides(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[mesh]\ntarget_elements = 254\n"
        "[coefficients]\nsigma = one\nq = one\n"
        "[forward]\nflux = sin:1\n"
    )
    out = tmp_path / "o"
    assert run(["forward", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"]
    assert run(["forward", "--config", str(tmp_path / "missing.ini"), "--out", str(out)]) == 1


def test_ntd_command(tmp_path):
    out = tmp_path / "n"
    assert run([
        "ntd", "--mesh.target_elements=254",
        "--coefficients.sigma=one", "--coefficients.q=one", "--out", str(out),
    ]) == 0
    lines = (out / "ntd.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "n_b"
    n_b = int(header[1])
    assert len(lines) - 1 == n_b
    assert len(lines[1].split(",")) == n_b


def test_lipschitz_command_small(tmp_path, forward_solves):
    out = tmp_path / "l"
    assert run([
        "lipschitz", "--mesh.target_elements=254",
        "--lipschitz.n_cells=4", "--lipschitz.a=1", "--lipschitz.b=1.2",
        "--lipschitz.stability_pairs=5", "--out", str(out),
    ]) == 0
    cert_lines = (out / "certificates.csv").read_text().strip().splitlines()
    assert len(cert_lines) - 1 == 4 * 3  # N * K with K = 3 for b/a = 1.2
    assert cert_lines[0] == "j,k,beta,cg_iterations,g_norm_sq,forward_applications"
    betas = [float(line.split(",")[2]) for line in cert_lines[1:]]
    assert all(b > 1.0 for b in betas)
    # the work column records every forward solve the certificates cost
    assert sum(int(line.split(",")[5]) for line in cert_lines[1:]) == len(forward_solves)
    summary = (out / "lipschitz.csv").read_text().strip().splitlines()[1].split(",")
    assert float(summary[0]) > 0.0  # L
    assert int(summary[4]) == 0  # violations
    stab_lines = (out / "stability.csv").read_text().strip().splitlines()
    assert len(stab_lines) - 1 == 5


def test_reconstruct_small_profile(tmp_path):
    out = tmp_path / "r"
    code = run([
        "example1", "--mesh.coarse_elements=254", "--mesh.fine_elements=1016",
        "--optimizer.max_iter=20", "--out", str(out),
    ])
    assert code == 0
    for name in ("measurements.csv", "iterations.csv", "q_rec.csv", "q_rec.pgm",
                 "q_errors.csv", "manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["mode"] == "q_only"
    assert "rel_l2_q" in manifest
    iters = (out / "iterations.csv").read_text().strip().splitlines()
    values = [float(line.split(",")[1]) for line in iters[1:]]
    assert all(b <= a + 1e-12 * abs(a) for a, b in zip(values, values[1:]))


def test_reconstruct_noise_free_regression(tmp_path):
    # the full default profile: fine-mesh data, coarse-mesh inversion
    out = tmp_path / "full"
    assert run(["example1", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    threshold = FIXTURES["example1_cli_noise_free"]["thresholds"]["rel_l2_q"]
    assert manifest["rel_l2_q"] <= threshold
    # every accepted step clears the relative-reduction stop
    assert manifest["optimizer_message"] == "iteration budget exhausted"
    assert manifest["iterations"] == 200
    assert manifest["objective_evaluations"] > manifest["iterations"]


def test_reconstruct_joint_runs_its_budget(tmp_path):
    # example2 --epsilon=0.03: the relative-reduction stop does not fire
    # within the 200 iterations of the benchmark joint reconstruction
    out = tmp_path / "joint"
    assert run(["example2", "--epsilon=0.03", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["optimizer_message"] == "iteration budget exhausted"
    assert manifest["iterations"] == 200
    iters = (out / "iterations.csv").read_text().strip().splitlines()
    assert len(iters) - 1 == 201


def test_reconstruct_balancing_manifest(tmp_path):
    out = tmp_path / "bal"
    code = run([
        "example2", "--epsilon=0.05", "--seed", "7",
        "--mesh.coarse_elements=254", "--mesh.fine_elements=1016",
        "--optimizer.balancing=true", "--optimizer.max_iter=40",
        "--out", str(out),
    ])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["rho_star"] > 0.0
    assert manifest["balance_residual_relative"] <= 1e-3
    assert manifest["balancing_objective_evaluations"] > 0
    assert manifest["objective_evaluations"] > 0
    assert (out / "balancing.csv").exists()
    assert (out / "sigma_rec.csv").exists()


def test_out_dir_env_override(tmp_path, monkeypatch):
    env_out = tmp_path / "env_dir"
    monkeypatch.setenv("OPTITOMO_OUT", str(env_out))
    assert run(["mesh", "--mesh.target_elements=254", "--out", str(tmp_path / "flag_dir")]) == 0
    assert (env_out / "mesh.txt").exists()
    assert not (tmp_path / "flag_dir").exists()
