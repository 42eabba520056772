import contextlib
import csv
import dataclasses
import io
import json
import pathlib
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from optitomo import cli
from optitomo.cli import main
from optitomo.inversion import InversionConfig
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
    header, *rows = csv.reader((out / "solution.csv").read_text().splitlines())
    assert header == ["node_index", "value"]
    assert [int(r[0]) for r in rows] == list(range(mesh.n_nodes))
    assert all(float(r[1]) == 0.0 for r in rows)


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
    # the certificate search is direct and has no iteration budget
    assert run(["lipschitz", "--lipschitz.max_iter=5", "--out", str(tmp_path)]) == 1
    # the background diffusion is fixed at 1 outside omega and 2 inside
    for side in ("outside", "inside"):
        assert run(["lipschitz", f"--lipschitz.sigma_{side}=1", "--out", str(tmp_path)]) == 1
    assert run(["no_such_command"]) == 1


@pytest.mark.parametrize("override, message", [
    ("--coefficients.sigma=constant:abc", "error: malformed coefficient descriptor 'constant:abc'"),
    ("--forward.flux=sin:x", "error: malformed flux descriptor 'sin:x'"),
    ("--forward.flux=const:nan", "error: malformed flux descriptor 'const:nan'"),
    ("--forward.flux=sin:inf", "error: malformed flux descriptor 'sin:inf'"),
    ("--forward.flux=offset_sin:10,nan", "error: malformed flux descriptor 'offset_sin:10,nan'"),
    ("--coefficients.q=disk:0,0,nan,2,1", "error: malformed coefficient descriptor 'disk:0,0,nan,2,1'"),
    ("--coefficients.sigma=square:inf,2,1", "error: malformed coefficient descriptor 'square:inf,2,1'"),
    ("--coefficients.q=disk:0,0,-0.5,2,1", "error: malformed coefficient descriptor 'disk:0,0,-0.5,2,1'"),
    ("--coefficients.sigma=square:0,2,1", "error: malformed coefficient descriptor 'square:0,2,1'"),
])
def test_malformed_descriptor_number_exits_two(tmp_path, capsys, override, message):
    out = tmp_path / "o"
    args = [
        "forward", "--mesh.target_elements=254", "--coefficients.sigma=one",
        "--coefficients.q=one", "--forward.flux=sin:1", override, "--out", str(out),
    ]
    assert run(args) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


def test_example_refused_at_its_input_makes_no_out_dir(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["example1", *_SMALL, "--truth.q=square:nan,2,1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: malformed coefficient descriptor 'square:nan,2,1'\n"
    assert not out.exists()


# A non-finite number is refused when the descriptor is read, a finite
# non-positive value when the coefficient is sampled.
COEFFICIENT_ERRORS = {
    "--coefficients.sigma=constant:nan": "error: malformed coefficient descriptor 'constant:nan'",
    "--coefficients.sigma=constant:inf": "error: malformed coefficient descriptor 'constant:inf'",
    "--coefficients.q=constant:nan": "error: malformed coefficient descriptor 'constant:nan'",
    "--coefficients.q=constant:inf": "error: malformed coefficient descriptor 'constant:inf'",
    "--coefficients.sigma=constant:0": "error: coefficient must be finite and strictly positive",
    "--coefficients.q=constant:-1": "error: coefficient must be finite and strictly positive",
}


@pytest.mark.parametrize("coefficient", list(COEFFICIENT_ERRORS))
def test_non_finite_coefficient_exits_two(tmp_path, capsys, coefficient):
    args = [
        "forward", "--mesh.target_elements=254", "--coefficients.sigma=one",
        "--coefficients.q=one", "--forward.flux=sin:1", coefficient, "--out", str(tmp_path),
    ]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(COEFFICIENT_ERRORS[coefficient])
    assert err.count("\n") == 1
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("args", [
    ["example1", "--seed", "-1"],
    ["example1", "--noise.seed=-1"],
    ["lipschitz", "--mesh.target_elements=254", "--lipschitz.a=1", "--lipschitz.b=2",
     "--lipschitz.stability_seed=-3"],
    ["lipschitz", "--mesh.target_elements=254", "--lipschitz.a=1", "--lipschitz.b=2",
     "--lipschitz.n_cells=0"],
    ["lipschitz", "--mesh.target_elements=254", "--lipschitz.a=1", "--lipschitz.b=2",
     "--lipschitz.stability_pairs=-3"],
    ["example1", "--optimizer.max_iter=-5"],
    ["example1", "--optimizer.rho=-1"],
    ["example1", "--optimizer.gradient_tolerance=nan"],
    # a key with a minimum must also be finite
    ["example1", "--mesh.coarse_elements=254", "--mesh.fine_elements=1016",
     "--optimizer.max_iter=3", "--optimizer.rho=inf"],
    ["example1", "--optimizer.rho=1e400"],
    ["example1", "--optimizer.gradient_tolerance=inf"],
    ["mesh", "--mesh.target_elements=254", "--mesh.angular_multiplier=abc"],
    ["mesh", "--mesh.target_elements=254", "--mesh.angular_multiplier=1e400"],
    # an empty value is malformed, not unset
    ["mesh", "--mesh.target_elements=254", "--mesh.angular_multiplier="],
])
def test_negative_seed_or_cell_count_is_a_usage_error(tmp_path, capsys, args):
    assert run(args + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", [
    b"target_elements = 254\n",                                    # key before any section
    b"[mesh]\ntarget_elements = 254\n[mesh]\ncoarse_elements = 1\n",  # repeated section
    b"[mesh]\ntarget_elements = 254\n\xff\xfe\n",                     # not UTF-8
    b"[DEFAULT]\nbogus = 1\n",                                       # a [DEFAULT] key
    b"[DEFAULT]\ntarget_elements = 254\n[mesh]\n",                   # read into [mesh]
])
def test_malformed_config_file_is_a_usage_error(tmp_path, capsys, text):
    cfg = tmp_path / "bad.ini"
    cfg.write_bytes(text)
    assert run(["mesh", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nbogus = 1\n",
    "[DEFAULT]\ntarget_elements = 254\n[mesh]\n",
])
def test_default_section_is_refused(tmp_path, capsys, text):
    # configparser merges [DEFAULT] into every section; no command reads it
    cfg = tmp_path / "default.ini"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert run(["mesh", "--config", str(cfg), "--mesh.target_elements=254", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "usage error: unknown config section [DEFAULT]\n"
    assert not out.exists()


def test_nan_noise_level_exits_two(tmp_path, capsys):
    assert run(["example1", "--epsilon=nan", "--optimizer.max_iter=1", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: noise level must be finite and nonnegative, got nan\n"
    assert not (tmp_path / "manifest.json").exists()


def test_nan_beta_balance_exits_two(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["example1", "--optimizer.beta_balance=nan", "--optimizer.balancing=true",
                "--optimizer.max_iter=3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: beta_balance must exceed 1, got nan\n"
    assert not (out / "manifest.json").exists()


def test_infinite_beta_balance_exits_two(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["example1", "--optimizer.beta_balance=inf", "--optimizer.balancing=true",
                "--optimizer.max_iter=3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: beta_balance must be finite, got inf\n"
    assert not (out / "manifest.json").exists()


def test_non_finite_manifest_value_exits_two(tmp_path, capsys, monkeypatch):
    # no command is known to record a NaN now; the strict dump is the backstop
    monkeypatch.setitem(cli.COMMANDS, "mesh", (lambda cfg, outdir, args: ([], {"L": float("nan")}), {}, ""))
    out = tmp_path / "o"
    assert run(["mesh", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: manifest is not strict JSON: ") and err.count("\n") == 1
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("a, b", [("1", "inf"), ("1e-300", "1e300")])
def test_unbounded_bracket_count_exits_two(tmp_path, capsys, a, b):
    out = tmp_path / "o"
    assert run(["lipschitz", "--mesh.target_elements=254", "--lipschitz.n_cells=2",
                f"--lipschitz.a={a}", f"--lipschitz.b={b}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bounds a = ") and err.endswith(" give no finite bracket count\n")
    assert err.count("\n") == 1
    assert not (out / "manifest.json").exists()


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
    # the work column records every Neumann column the certificates cost
    assert sum(int(line.split(",")[5]) for line in cert_lines[1:]) == sum(forward_solves)
    summary = (out / "lipschitz.csv").read_text().strip().splitlines()[1].split(",")
    assert float(summary[0]) > 0.0  # L
    assert int(summary[4]) == 0  # violations
    stab_lines = (out / "stability.csv").read_text().strip().splitlines()
    assert len(stab_lines) - 1 == 5
    # well-conditioned certificates keep the fixed re-check tolerance
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["recheck_rtol_max"] == 1e-6
    assert 0.0 <= manifest["recheck_defect_max"] <= manifest["recheck_rtol_max"]
    # the condensation's sizes: 41 omega nodes, 16 on the rim, and the
    # exterior solve's 32 boundary loads and 16 rim columns
    assert manifest["condensation"] == {
        "omega_nodes": 41, "rim_nodes": 16, "interior_nodes": 25, "exterior_columns": 48,
    }


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


@pytest.mark.parametrize("args", [
    ["mesh", "--mesh.target_elements=254"],
    ["forward", "--mesh.target_elements=254", "--coefficients.sigma=one",
     "--coefficients.q=one", "--forward.flux=sin:1"],
    ["ntd", "--mesh.target_elements=254", "--coefficients.sigma=one", "--coefficients.q=one"],
    ["lipschitz", "--mesh.target_elements=254", "--lipschitz.a=1", "--lipschitz.b=1.2"],
])
def test_seed_flag_is_refused_where_no_seed_is_read(tmp_path, capsys, args):
    out = tmp_path / "o"
    assert run(args + ["--seed", "7", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "usage error: unrecognized argument '--seed'\n"
    assert not out.exists()


class _Captured(Exception):
    pass


def test_reconstruct_leaves_unset_tuning_keys_to_inversion_config(tmp_path, monkeypatch):
    # the CLI states none of InversionConfig's defaults: with no [optimizer]
    # tuning key each such field is the dataclass default, and a set key
    # reaches the config as given
    seen = []

    def capture(meas, config):
        seen.append(config)
        raise _Captured

    monkeypatch.setattr(cli, "bfgs_minimize", capture)
    base = [
        "reconstruct", "--mesh.coarse_elements=254", "--mesh.fine_elements=1016",
        "--fluxes.g1=offset_sin:10,1", "--truth.sigma=one", "--truth.q=constant:1",
        "--optimizer.mode=q_only", "--optimizer.sigma_known=one",
        "--optimizer.init_q=constant:1", "--optimizer.q_lower=0.1", "--optimizer.q_upper=5",
        "--out", str(tmp_path),
    ]
    for extra in ([], ["--optimizer.max_iter=3"]):
        with pytest.raises(_Captured):
            run(base + extra)
    defaults = {f.name: f.default for f in dataclasses.fields(InversionConfig)
                if f.default is not dataclasses.MISSING}
    assert set(defaults) == {"sigma_bounds", "rho", "beta_balance", "max_iter",
                             "gradient_tolerance"}
    assert {name: getattr(seen[0], name) for name in defaults} == defaults
    assert {name: getattr(seen[1], name) for name in defaults} == {**defaults, "max_iter": 3}


def test_out_dir_env_override(tmp_path, monkeypatch):
    env_out = tmp_path / "env_dir"
    monkeypatch.setenv("OPTITOMO_OUT", str(env_out))
    assert run(["mesh", "--mesh.target_elements=254", "--out", str(tmp_path / "flag_dir")]) == 0
    assert (env_out / "mesh.txt").exists()
    assert not (tmp_path / "flag_dir").exists()


# The smallest runs that read each config section; no value below asks for a
# larger mesh than these.
_SMALL = ["--mesh.coarse_elements=254", "--mesh.fine_elements=1016", "--optimizer.max_iter=2"]
_BASES = {
    "mesh": ["mesh", "--mesh.target_elements=254"],
    "forward": ["forward", "--mesh.target_elements=254", "--coefficients.sigma=one",
                "--coefficients.q=one", "--forward.flux=sin:1"],
    "lipschitz": ["lipschitz", "--mesh.target_elements=254", "--lipschitz.n_cells=2",
                  "--lipschitz.a=1", "--lipschitz.b=1.2", "--lipschitz.stability_pairs=2"],
    "example1": ["example1", *_SMALL],
    "example2": ["example2", *_SMALL],
    "balancing": ["example2", *_SMALL, "--optimizer.balancing=true"],
    "ntd": ["ntd", "--mesh.target_elements=254", "--coefficients.sigma=one",
            "--coefficients.q=one"],
}


def _table_keys(command):
    """The (section, key) pairs of a command's key table; [fluxes] stands as g1."""
    return {(section, key) for section, keys in cli.COMMANDS[command][1].items()
            for key in (keys or {"g1"})}


# every key of each base's command table on that base
_OVERRIDES = [
    (base, f"--{section}.{key}")
    for base, argv in _BASES.items()
    for section, key in sorted(_table_keys(argv[0]))
]


def _strict_constant(name):
    raise ValueError(f"{name} is not strict JSON")


# Running all 656 cases takes about 6 s on a 2-core host; the examples are the cases that
# wrote a non-finite manifest value before bounded keys had to be finite.
@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=st.sampled_from(_OVERRIDES),
       value=st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e400", "", "\u00e9"]))
@example(case=("example1", "--optimizer.rho"), value="inf")
@example(case=("balancing", "--optimizer.beta_balance"), value="1e400")
def test_hostile_config_value_fails_cleanly_or_writes_strict_json(case, value):
    base, key = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
        code = main([*_BASES[base], f"{key}={value}", "--out", out])
        manifest = pathlib.Path(out, "manifest.json")
        if code == 0:
            json.loads(manifest.read_text(), parse_constant=_strict_constant)
        else:
            assert code in (1, 2)
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
            assert not manifest.exists()


_RECONSTRUCT_BASE = [
    "reconstruct", *_SMALL, "--fluxes.g1=offset_sin:10,1", "--truth.sigma=one",
    "--truth.q=constant:1", "--optimizer.mode=q_only", "--optimizer.sigma_known=one",
    "--optimizer.init_q=constant:1", "--optimizer.q_lower=0.1", "--optimizer.q_upper=5",
]
_ALL_KEYS = set().union(*map(_table_keys, cli.COMMANDS))
# each key of another command's table that a command does not read
_UNREAD = [
    (command, section, key)
    for command in cli.COMMANDS
    for section, key in sorted(_ALL_KEYS - _table_keys(command))
]


@pytest.mark.parametrize("command, section, key", _UNREAD)
def test_key_the_command_does_not_read_is_refused(tmp_path, capsys, command, section, key):
    out = tmp_path / "o"
    base = _RECONSTRUCT_BASE if command == "reconstruct" else _BASES[command]
    assert run([*base, f"--{section}.{key}=1", "--out", str(out)]) == 1
    assert capsys.readouterr().err in (
        f"usage error: unknown config section [{section}]\n",
        f"usage error: unknown config key {key!r} in [{section}]\n",
    )
    assert not out.exists()


@pytest.mark.parametrize("args", [
    # each of these was accepted, ignored and recorded in the manifest
    ["lipschitz", "--mesh.target_elements=254", "--lipschitz.n_cells=2", "--lipschitz.a=1",
     "--lipschitz.b=1.2", "--lipschitz.stability_pairs=3", "--noise.seed=9"],
    ["mesh", "--mesh.target_elements=254", "--optimizer.max_iter=abc"],
    ["mesh", "--mesh.target_elements=254", "--mesh.coarse_elements=99"],
    ["example1", *_SMALL, "--mesh.target_elements=5"],
])
def test_unread_key_makes_a_usage_error(tmp_path, capsys, args):
    out = tmp_path / "o"
    assert run(args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: unknown config ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("fluxes", [
    # the order of the flags chose which current got the first noise stream
    ["--fluxes.g1=sin:1", "--fluxes.g01=sin:2"],
    ["--fluxes.g01=sin:2", "--fluxes.g1=sin:1"],
    ["--fluxes.g0=sin:2"],
    # a gap was renumbered away
    ["--fluxes.g3=sin:2"],
])
def test_flux_keys_are_g1_to_gn(tmp_path, capsys, fluxes):
    # the flags come first, so they set the order of the [fluxes] keys
    out = tmp_path / "o"
    assert run(["reconstruct", *fluxes, *_RECONSTRUCT_BASE[1:], "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: unknown config key 'g") and err.endswith("' in [fluxes]\n")
    assert not out.exists()


def test_each_command_reads_the_keys_of_its_table(tmp_path, monkeypatch):
    reads = {base: set() for base in _BASES}
    get = cli._get

    def recording(cfg, section, key, *args, **kwargs):
        reads[base].add((section, "g1") if section == "fluxes" else (section, key))
        return get(cfg, section, key, *args, **kwargs)

    monkeypatch.setattr(cli, "_get", recording)
    for base, argv in _BASES.items():
        assert run([*argv, "--out", str(tmp_path / base)]) == 0
        assert reads[base] <= _table_keys(argv[0])
    for command in ("mesh", "forward", "ntd", "lipschitz"):
        assert reads[command] == _table_keys(command)
    table = _table_keys("reconstruct")
    assert reads["example1"] | reads["example2"] | reads["balancing"] == table
    # the keys one optimizer mode leaves unread
    assert table - reads["example1"] == {("optimizer", "sigma_lower"), ("optimizer", "sigma_upper")}
    assert table - reads["example2"] == table - reads["balancing"] == {("optimizer", "sigma_known")}
