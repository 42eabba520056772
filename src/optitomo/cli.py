"""Batch command-line interface wiring the modules into reproducible runs.

Every command reads an INI-style config (sections of key = value pairs),
accepts ``--section.key=value`` overrides, writes its artifacts into the
output directory, and emits exactly one JSON manifest recording the command,
config, seed, package versions, SHA-256 digests of inputs and outputs, and
wall time.  Outputs are byte-identical across reruns with the same config and
seed.  A command accepts only the keys of its table in ``COMMANDS``, the keys
it reads; any other key, a ``[DEFAULT]`` key, or ``[fluxes]`` keys other
than g1..gN is refused before any work.

Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .errors import OptitomoError, UsageError
from .field import (
    PiecewiseConstantField,
    restrict_to_boundary,
    sample_coefficient,
    write_csv,
    write_element_csv,
    write_field_pgm,
    write_node_csv,
    write_trace_csv,
)
from .fem import assemble, element_means, solve_neumann
from .inversion import JOINT, Q_ONLY, InversionConfig, balancing_rho, bfgs_minimize
from .locpot import (
    BETA_TARGET,
    lipschitz_constant,
    make_probing_setup,
    stability_factor,
    stability_report,
)
from .mesh import generate_disk_mesh, subdomain_partition, write_mesh
from .ntd import build_ntd
from .synth import (
    ExperimentSpec,
    error_metrics,
    example1_spec,
    example2_spec,
    example2_regions,
    make_measurements,
    sample_flux,
    write_measurements_csv,
)

# Key tables: the sections a command reads and the keys it reads there
# ("fluxes" stands for g1..gN); any other key is a usage error.
_DISK = {"mesh": {"target_elements", "angular_multiplier"}}
_COEFFICIENTS = {**_DISK, "coefficients": {"sigma", "q"}}
_RECONSTRUCT = {
    "mesh": {"coarse_elements", "fine_elements", "angular_multiplier"},
    "fluxes": None,
    "noise": {"epsilon", "seed"},
    "truth": {"sigma", "q"},
    "optimizer": {
        "mode", "rho", "balancing", "beta_balance", "max_iter", "gradient_tolerance",
        "q_lower", "q_upper", "sigma_lower", "sigma_upper",
        "init_sigma", "init_q", "sigma_known",
    },
}
REQUIRED = object()  # the default of a key that must be set


def main(argv=None) -> int:
    try:
        return _run(sys.argv[1:] if argv is None else list(argv))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except OptitomoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise UsageError(message)


def _run(argv) -> int:
    parser = _Parser(prog="optitomo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, _, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--out", default="optitomo_out", help="output directory")
        if handler is cmd_reconstruct:  # the only reader of [noise] seed
            p.add_argument("--seed", type=int, default=None, help="override the noise seed")
        if name in ("example1", "example2"):
            p.add_argument("--epsilon", type=float, default=None, help="noise level")

    args, extras = parser.parse_known_args(argv)
    overrides = _parse_overrides(extras)
    cfg = _load_config(args.command, args, overrides)

    outdir = os.environ.get("OPTITOMO_OUT", args.out)
    start = time.time()
    outputs, extra_manifest = COMMANDS[args.command][0](cfg, outdir, args)
    _write_manifest(args, cfg, outdir, outputs, extra_manifest, time.time() - start)
    return 0


def _parse_overrides(extras) -> dict[tuple[str, str], str]:
    overrides = {}
    for item in extras:
        if not item.startswith("--") or "=" not in item:
            raise UsageError(f"unrecognized argument {item!r}")
        key, _, value = item[2:].partition("=")
        section, _, name = key.partition(".")
        if not section or not name:
            raise UsageError(f"override {item!r} must look like --section.key=value")
        overrides[(section, name)] = value
    return overrides


def _load_config(command: str, args, overrides) -> dict:
    parser = configparser.ConfigParser()
    if args.config is not None and not os.path.exists(args.config):
        raise UsageError(f"config file {args.config!r} does not exist")
    try:
        if args.config is not None:
            parser.read(args.config, encoding="utf-8")
        if parser.defaults():  # configparser would merge them into every section
            raise UsageError(f"unknown config section [{parser.default_section}]")
        cfg = {section: dict(parser[section]) for section in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:  # its messages may span lines
        raise UsageError(f"malformed config file: {' '.join(str(exc).split())}") from None

    if command in ("example1", "example2"):
        preset = _example_preset(command)
        for section, values in preset.items():
            merged = dict(values)
            merged.update(cfg.get(section, {}))
            cfg[section] = merged
        if args.epsilon is not None:
            cfg.setdefault("noise", {})["epsilon"] = repr(args.epsilon)
    if getattr(args, "seed", None) is not None:
        cfg.setdefault("noise", {})["seed"] = str(args.seed)

    for (section, name), value in overrides.items():
        cfg.setdefault(section, {})[name] = value

    table = COMMANDS[command][1]
    for section, keys in cfg.items():
        if section not in table:
            raise UsageError(f"unknown config section [{section}]")
        allowed = table[section] or {f"g{k}" for k in range(1, len(keys) + 1)}  # [fluxes]
        for key in keys:
            if key not in allowed:
                raise UsageError(f"unknown config key {key!r} in [{section}]")
    return cfg


def _example_preset(command: str) -> dict:
    spec = example1_spec() if command == "example1" else example2_spec()
    preset = {
        "mesh": {
            "coarse_elements": str(spec.coarse_elements),
            "fine_elements": str(spec.fine_elements),
        },
        "fluxes": {f"g{k}": flux for k, flux in enumerate(spec.fluxes, start=1)},
        "noise": {"epsilon": "0", "seed": "0"},
        "truth": {"sigma": spec.truth_sigma, "q": spec.truth_q},
        "optimizer": {
            "init_q": spec.init_q,
            "rho": "0",
            "balancing": "false",
        },
    }
    if command == "example1":
        preset["optimizer"].update(
            {"mode": Q_ONLY, "sigma_known": spec.truth_sigma,
             "q_lower": "0.1", "q_upper": "5"}
        )
    else:
        preset["optimizer"].update(
            {"mode": JOINT, "init_sigma": spec.init_sigma,
             "sigma_lower": "0.5", "sigma_upper": "5",
             "q_lower": "0.5", "q_upper": "6"}
        )
    return preset


def _get(cfg, section, key, default=REQUIRED, cast=str, minimum=None):
    try:
        raw = cfg[section][key]
    except KeyError:
        if default is REQUIRED:
            raise UsageError(f"missing config key {key!r} in [{section}]") from None
        return default
    if cast is bool:
        try:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
        except KeyError:
            raise UsageError(f"config key {key!r} must be boolean, got {raw!r}") from None
    try:
        value = cast(raw)
    except ValueError:
        raise UsageError(f"config key {key!r} has malformed value {raw!r}") from None
    if minimum is not None and not minimum <= value < math.inf:  # NaN fails too
        raise UsageError(f"config key {key!r} in [{section}] must be finite and at least {minimum}, "
                         f"got {raw!r}")
    return value


def _disk_mesh(cfg, default_multiplier=None):
    """The [mesh] target_elements mesh; angular_multiplier, if set, wins over the default."""
    multiplier = _get(cfg, "mesh", "angular_multiplier", default=default_multiplier, cast=int)
    return generate_disk_mesh(_get(cfg, "mesh", "target_elements", cast=int), multiplier)


def cmd_mesh(cfg, outdir, args):
    mesh = _disk_mesh(cfg)
    path = _artifact(outdir, "mesh.txt")
    write_mesh(mesh, path)
    return [path], {"elements": mesh.n_elements, "nodes": mesh.n_nodes}


def cmd_forward(cfg, outdir, args):
    mesh = _disk_mesh(cfg)
    sigma = sample_coefficient(mesh, _get(cfg, "coefficients", "sigma"))
    q = sample_coefficient(mesh, _get(cfg, "coefficients", "q"))
    g = sample_flux(mesh, _get(cfg, "forward", "flux"))
    sys_ = assemble(mesh, sigma, q)
    u = solve_neumann(sys_, g)

    sol_csv = _artifact(outdir, "solution.csv")
    trace_csv = _artifact(outdir, "trace.csv")
    pgm = _artifact(outdir, "solution.pgm")
    write_node_csv(u, sol_csv)
    write_trace_csv(restrict_to_boundary(u), trace_csv)
    write_field_pgm(PiecewiseConstantField(mesh, element_means(u)), pgm)
    return [sol_csv, trace_csv, pgm], {"elements": mesh.n_elements}


def cmd_ntd(cfg, outdir, args):
    mesh = _disk_mesh(cfg)
    sigma = sample_coefficient(mesh, _get(cfg, "coefficients", "sigma"))
    q = sample_coefficient(mesh, _get(cfg, "coefficients", "q"))
    op = build_ntd(mesh, sigma, q)
    path = _artifact(outdir, "ntd.csv")
    write_csv(path, f"n_b,{op.n_boundary}", op.lam.T)
    return [path], {"n_boundary": op.n_boundary}


def cmd_lipschitz(cfg, outdir, args):
    n_cells = _get(cfg, "lipschitz", "n_cells", default=8, cast=int, minimum=1)
    n_pairs = _get(cfg, "lipschitz", "stability_pairs", default=50, cast=int, minimum=0)
    seed = _get(cfg, "lipschitz", "stability_seed", default=123, cast=int, minimum=0)
    # by default, align mesh spokes with the sector boundaries (and keep decent aspect)
    mesh = _disk_mesh(cfg, n_cells * max(1, -(-4 // n_cells)))
    part = subdomain_partition(mesh, _get(cfg, "lipschitz", "omega_radius", default=0.5, cast=float), n_cells)
    setup = make_probing_setup(
        part,
        _get(cfg, "lipschitz", "a", cast=float),
        _get(cfg, "lipschitz", "b", cast=float),
    )
    lip, currents = lipschitz_constant(setup)

    # cg_iterations keeps its name for the benchmark reader; it counts the
    # single-current Neumann solves of each certificate, the one re-check.
    cert_csv = _artifact(outdir, "certificates.csv")
    write_csv(cert_csv, "j,k,beta,cg_iterations,g_norm_sq,forward_applications", zip(*(
        (c.j, c.k, c.beta, 1, c.norm_sq(), c.forward_applications)
        for c in currents
    )))

    rows = stability_report(setup, currents, n_pairs, seed)
    stab_csv = _artifact(outdir, "stability.csv")
    header = "pair,coeff_distance,ntd_opnorm,certified_bound,holds"
    write_csv(stab_csv, header, _columns(rows, header))

    summary_csv = _artifact(outdir, "lipschitz.csv")
    violations = sum(1 for r in rows if not r["holds"])
    write_csv(summary_csv, "L,stability_factor,n_currents,stability_pairs,violations", [
        [lip], [stability_factor(currents)], [len(currents)], [len(rows)], [violations],
    ])
    return [cert_csv, stab_csv, summary_csv], {
        "L": lip, "violations": violations, "n_currents": len(currents),
        "beta_target": BETA_TARGET,
        "recheck_defect_max": max(abs(c.beta - BETA_TARGET) / BETA_TARGET for c in currents),
        "recheck_rtol_max": max(c.recheck_rtol for c in currents),
        "condensation": setup.condensation.sizes,
    }


def cmd_reconstruct(cfg, outdir, args):
    coarse = _get(cfg, "mesh", "coarse_elements", cast=int)
    fine = _get(cfg, "mesh", "fine_elements", cast=int)
    fluxes = tuple(_get(cfg, "fluxes", f"g{k}") for k in range(1, len(cfg.get("fluxes", {})) + 1))
    if not fluxes:
        raise UsageError("no fluxes configured (section [fluxes], keys g1..gN)")
    mode = _get(cfg, "optimizer", "mode")
    if mode not in (Q_ONLY, JOINT):
        raise UsageError(f"optimizer mode must be {Q_ONLY!r} or {JOINT!r}")

    spec = ExperimentSpec(
        fine_elements=fine,
        coarse_elements=coarse,
        fluxes=fluxes,
        noise_level=_get(cfg, "noise", "epsilon", default=0.0, cast=float),
        seed=_get(cfg, "noise", "seed", default=0, cast=int, minimum=0),
        truth_sigma=_get(cfg, "truth", "sigma"),
        truth_q=_get(cfg, "truth", "q"),
        init_sigma=_get(cfg, "optimizer", "init_sigma", default="one"),
        init_q=_get(cfg, "optimizer", "init_q"),
        angular_multiplier=_get(cfg, "mesh", "angular_multiplier", default=None, cast=int),
    )
    meas = make_measurements(spec)
    mesh = meas.mesh

    if mode == Q_ONLY:
        sigma0 = sample_coefficient(mesh, _get(cfg, "optimizer", "sigma_known"))
    else:
        sigma0 = sample_coefficient(mesh, spec.init_sigma)
    inv_cfg = InversionConfig(
        mode=mode,
        sigma0=sigma0,
        q0=sample_coefficient(mesh, spec.init_q),
        q_bounds=(
            _get(cfg, "optimizer", "q_lower", cast=float),
            _get(cfg, "optimizer", "q_upper", cast=float),
        ),
        sigma_bounds=(
            (_get(cfg, "optimizer", "sigma_lower", cast=float),
             _get(cfg, "optimizer", "sigma_upper", cast=float))
            if mode == JOINT else None
        ),
        **{key: value
           for key, cast, minimum in (("rho", float, 0), ("beta_balance", float, None),
                                      ("max_iter", int, 0), ("gradient_tolerance", float, 0))
           if (value := _get(cfg, "optimizer", key, None, cast, minimum)) is not None},
    )

    balancing = _get(cfg, "optimizer", "balancing", default=False, cast=bool)
    outputs = []
    extra = {"mode": mode, "epsilon": spec.noise_level, "seed": spec.seed}

    meas_csv = _artifact(outdir, "measurements.csv")
    write_measurements_csv(meas, meas_csv)
    outputs.append(meas_csv)

    if balancing:
        rho_star, history = balancing_rho(meas, inv_cfg)
        inv_cfg = replace(inv_cfg, rho=rho_star)
        bal_csv = _artifact(outdir, "balancing.csv")
        header = "outer,rho,data_fit,penalty_integral,residual,degenerate"
        write_csv(bal_csv, header, _columns(history, header))
        outputs.append(bal_csv)
        last = history[-1]
        extra["rho_star"] = rho_star
        extra["balance_residual"] = last["residual"]
        denom = (inv_cfg.beta_balance - 1.0) * last["data_fit"]
        extra["balance_residual_relative"] = (
            last["residual"] / denom if denom > 0 else 0.0
        )
        extra["balancing_objective_evaluations"] = sum(
            row["objective_evaluations"] for row in history
        )

    sigma_rec, q_rec, trace = bfgs_minimize(meas, inv_cfg)
    extra["rho"] = inv_cfg.rho
    extra["iterations"] = len(trace.rows) - 1
    extra["final_J"] = trace.rows[-1]["J"]
    extra["converged"] = trace.converged
    extra["optimizer_message"] = trace.message
    extra["objective_evaluations"] = trace.evaluations

    iter_csv = _artifact(outdir, "iterations.csv")
    header = "iteration,J,data_fit,penalty,grad_norm,step"
    write_csv(iter_csv, header, _columns(trace.rows, header))
    outputs.append(iter_csv)

    truth_q = sample_coefficient(mesh, spec.truth_q)
    regions = example2_regions(mesh) if spec.truth_q.startswith("example2") else None
    for name, rec, truth in (
        ("q", q_rec, truth_q),
        ("sigma", sigma_rec, sample_coefficient(mesh, spec.truth_sigma)),
    ):
        if name == "sigma" and mode == Q_ONLY:
            continue
        csv_path = _artifact(outdir, f"{name}_rec.csv")
        pgm_path = _artifact(outdir, f"{name}_rec.pgm")
        write_element_csv(rec, csv_path)
        write_field_pgm(rec, pgm_path)
        outputs.extend([csv_path, pgm_path])
        rel_l2, rel_linf, table = error_metrics(rec, truth, regions)
        err_path = _artifact(outdir, f"{name}_errors.csv")
        write_csv(err_path, "metric,value", [
            ["rel_l2", "rel_linf", *(f"region_{r['region']}_mean_abs_error" for r in table)],
            [rel_l2, rel_linf, *(r["mean_abs_error"] for r in table)],
        ])
        outputs.append(err_path)
        extra[f"rel_l2_{name}"] = rel_l2

    return outputs, extra


def _artifact(outdir: str, name: str) -> str:
    """Path of an artifact; the first one makes the output directory, so a refused run makes none."""
    os.makedirs(outdir, exist_ok=True)
    return os.path.join(outdir, name)


def _columns(rows: list[dict], header: str) -> list[list]:
    """Dict rows as CSV columns, in the order of the header fields."""
    return [[row[key] for row in rows] for key in header.split(",")]


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(args, cfg, outdir, outputs, extra, wall_time) -> None:
    manifest = {
        "command": args.command,
        "config_path": args.config,
        "config": cfg,
        "seed": getattr(args, "seed", None),
        "versions": {
            "optitomo": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "inputs": {args.config: _sha256(args.config)} if args.config else {},
        "outputs": {os.path.basename(p): _sha256(p) for p in sorted(outputs)},
        "wall_time_s": wall_time,
    }
    manifest.update(extra)
    # strict JSON: a NaN or an infinity is refused before the file is opened
    try:
        text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise OptitomoError(f"manifest is not strict JSON: {exc}") from None
    with open(_artifact(outdir, "manifest.json"), "w", encoding="ascii") as fh:
        fh.write(text + "\n")


# name -> (handler, key table, help text)
COMMANDS = {
    "mesh": (cmd_mesh, _DISK, "generate a disk mesh and write the mesh file"),
    "forward": (cmd_forward, {**_COEFFICIENTS, "forward": {"flux"}},
                "solve one Neumann problem and write solution artifacts"),
    "ntd": (cmd_ntd, _COEFFICIENTS, "build the discrete Neumann-to-Dirichlet matrix"),
    "lipschitz": (cmd_lipschitz, {**_DISK, "lipschitz": {
        "omega_radius", "n_cells", "a", "b", "stability_pairs", "stability_seed"}},
        "compute stability certificates and the sampled report"),
    "reconstruct": (cmd_reconstruct, _RECONSTRUCT,
                    "generate synthetic data and reconstruct coefficients"),
    "example1": (cmd_reconstruct, _RECONSTRUCT, "absorption-only benchmark reconstruction"),
    "example2": (cmd_reconstruct, _RECONSTRUCT, "simultaneous benchmark reconstruction"),
}


if __name__ == "__main__":
    raise SystemExit(main())
