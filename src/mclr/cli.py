"""Batch front-end: ground-state solves, response spectra, oracle tables.

Subcommands
-----------
ground    solve the stationary state described by a config file and write a
          checkpoint (exit 2 on non-convergence)
linres    assemble and diagonalize the response matrix of a checkpoint,
          write spectrum.csv / weights.csv, report zero modes and symmetry
          defects
oracle    run an independent reference (bdg | se | osc) and print a
          comparison table
propcheck real-time propagation diagnostics of the differential conditions

Configs are flat INI files with sections [system], [grid], [trap],
[interaction], [solver], [perturbation]; every output embeds the resolved
config and its SHA-256 so runs can be reproduced bit for bit.  Unusable
input, an unwritable output path (``ground`` checks the directory of its
checkpoint before it solves) and a ``ValueError`` of the library (say,
``linres`` on a checkpoint whose state is not converged) are one
``error:`` line on stderr and exit 1.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import fockspace as fs
from . import grid as gr
from . import groundstate as gs
from . import hamiltonian as ham
from . import linres_identical as li
from . import oracle as orc
from . import spectrum as spm

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOCONV = 2


class ConfigError(Exception):
    """Unusable input (config or checkpoint): reported on stderr, exit 1."""


def _load_config(path):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        # configparser messages carry the offending line numbers
        raise ConfigError(f"config parse error in {path}: {exc}")
    return parser, text


def _need(cfg, section, key):
    if not cfg.has_option(section, key):
        raise ConfigError(f"missing mandatory key [{section}] {key}")
    return cfg.get(section, key)


@contextmanager
def _config_values():
    """Report errors of turning config values into objects as ConfigError;
    also a decorator."""
    try:
        yield
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc


def _load_checkpoint(path):
    try:
        return ckpt.load_state(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load checkpoint {path}: {exc}")


def _config_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _per_dof(cfg, section, key, j=None, default=None):
    """[section] key_<j+1> for DOF j, else key, else ``default``; mandatory
    without a default."""
    if j is not None and cfg.has_option(section, f"{key}_{j + 1}"):
        return cfg.get(section, f"{key}_{j + 1}")
    if default is None:
        return _need(cfg, section, key)
    return cfg.get(section, key, fallback=default)


def _build_grid_j(cfg, j=None):
    return gr.build_grid(int(_per_dof(cfg, "grid", "points", j)),
                         float(_per_dof(cfg, "grid", "x_min", j)),
                         float(_per_dof(cfg, "grid", "x_max", j)))


def _build_h(cfg, grid, j=None):
    mass = float(cfg.get("system", "mass", fallback="1.0"))
    h = gr.kinetic_matrix(grid, mass).matrix
    trap = cfg.get("trap", "type", fallback="harmonic")
    if trap == "harmonic":
        omega = float(_per_dof(cfg, "trap", "omega", j, "1.0"))
        h = h + gr.harmonic_potential(grid, omega).matrix
    elif trap != "none":
        raise ConfigError(f"unknown trap type {trap!r}")
    return gr.OneBodyOperator(h)


def _build_kernel(cfg):
    kind = cfg.get("interaction", "type", fallback="none")
    if kind == "none":
        return gr.TwoBodyKernel("none")
    strength = float(_need(cfg, "interaction", "strength"))
    if kind == "contact":
        return gr.TwoBodyKernel("contact", strength=strength)
    if kind == "gaussian":
        width = float(_need(cfg, "interaction", "width"))
        return gr.TwoBodyKernel("gaussian", strength=strength, width=width)
    raise ConfigError(f"unknown interaction type {kind!r}")


def _dof_pair(text, n_dofs):
    """0-based DOF indices of a 1-based config pair "a-b"."""
    a, b = (int(t) - 1 for t in text.split("-"))
    if not (0 <= a < n_dofs and 0 <= b < n_dofs):
        raise ConfigError(f"pair {text!r} names a DOF outside 1..{n_dofs}")
    return a, b


def _build_coupling(cfg, grids):
    kind = cfg.get("interaction", "type", fallback="none")
    if kind == "none":
        return None
    strength = float(_need(cfg, "interaction", "strength"))
    a, b = _dof_pair(cfg.get("interaction", "pair", fallback="1-2"),
                     len(grids))
    if kind == "bilinear":
        return ham.PairCoupling.bilinear(grids, a, b, strength)
    if kind == "gaussian_pair":
        width = float(_need(cfg, "interaction", "width"))
        return ham.PairCoupling.gaussian_pair(grids, a, b, strength, width)
    raise ConfigError(f"unknown coupling type {kind!r}")


def _solver_options(cfg):
    opts = gs.SolverOptions()
    if cfg.has_section("solver"):
        for name in ("tol_orb", "tol_c", "tau"):
            if cfg.has_option("solver", name):
                setattr(opts, name, cfg.getfloat("solver", name))
        for name in ("max_iter", "inner_steps"):
            if cfg.has_option("solver", name):
                setattr(opts, name, cfg.getint("solver", name))
    return opts


def _probe_operator(grid, kind, strength):
    if kind == "x":
        return gr.OneBodyOperator(strength * np.diag(grid.points))
    if kind == "x2":
        return gr.OneBodyOperator(strength * np.diag(grid.points**2))
    if kind == "gaussian_bump":
        return gr.OneBodyOperator(
            strength * np.diag(np.exp(-grid.points**2)))
    raise ConfigError(f"unknown probe type {kind!r}")


@_config_values()
def _build_perturbation(cfg, state):
    """Probes of [perturbation]: f_type and f_strength, per DOF overridden by
    f_type_j and f_strength_j (identical particles are the one-DOF case),
    and the pair probe g_type."""
    sec = "perturbation"
    if not cfg.has_section(sec):
        raise ConfigError("missing mandatory section [perturbation]")
    omega = float(_need(cfg, sec, "omega"))
    identical, grids = state.space.identical, state.grids
    f_ops = []
    for j, grid in enumerate(grids):
        kind = _per_dof(cfg, sec, "f_type", j, "none")
        f_ops.append(None if kind == "none" else _probe_operator(
            grid, kind, float(_per_dof(cfg, sec, "f_strength", j, "1.0"))))
    g_kind = cfg.get(sec, "g_type", fallback="none")
    g_strength = float(cfg.get(sec, "g_strength", fallback="1.0"))
    g = None
    if identical and g_kind in ("contact", "gaussian"):
        width = float(_need(cfg, sec, "g_width")) if g_kind == "gaussian" else 1.0
        g = gr.TwoBodyKernel(g_kind, strength=g_strength, width=width)
    elif not identical and g_kind == "bilinear":
        a, b = _dof_pair(cfg.get(sec, "g_pair", fallback="1-2"), len(grids))
        g = ham.PairCoupling.bilinear(grids, a, b, g_strength)
    elif g_kind != "none":
        raise ConfigError(f"unknown pair probe {g_kind!r}")
    return li.PerturbationSpec(f_dags=tuple(f_ops), g_dag=g, omega=omega)


def _solve_from_config(cfg, statistics_override=None):
    with _config_values():
        statistics = statistics_override or _need(cfg, "system", "statistics")
        opts = _solver_options(cfg)
        if statistics in ("boson", "fermion"):
            N = int(_need(cfg, "system", "particles"))
            M = int(_need(cfg, "system", "orbitals"))
            space = fs.enumerate_configs(statistics, N=N, M=M)
            grid = _build_grid_j(cfg)
            solve, problem = gs.solve_mchx, (
                space, grid, _build_h(cfg, grid), _build_kernel(cfg))
        elif statistics in ("dist", "distinguishable"):
            M_list = tuple(int(t) for t in
                           _need(cfg, "system", "orbitals").split(","))
            space = fs.enumerate_configs("distinguishable", M_list=M_list)
            grids = [_build_grid_j(cfg, j) for j in range(len(M_list))]
            h_ops = [_build_h(cfg, grids[j], j) for j in range(len(M_list))]
            solve, problem = gs.solve_mch_dist, (
                space, grids, h_ops, _build_coupling(cfg, grids))
        else:
            raise ConfigError(f"unknown statistics {statistics!r}")
    return solve(*problem, opts)


def _print_state_summary(state, cfg_hash):
    print(f"# config sha256 {cfg_hash}")
    print(f"energy = {state.energy:.17g}")
    for j, occ in enumerate(state.natural_occupations()):
        label = "" if state.space.identical else f"_{j + 1}"
        print(f"natural_occupations{label} = "
              + " ".join(f"{x.real:.12g}" for x in occ))
    res = state.residuals
    print(f"orbital_residual = {res['orb_residual']:.3e}")
    if "scaled_orb_residual" in res:  # absent from older checkpoints
        print(f"scaled_orbital_residual = {res['scaled_orb_residual']:.3e}")
    print(f"coefficient_residual = {res['c_residual']:.3e}")
    print(f"iterations = {res['iterations']}")
    for key in ("backtracks", "forced_accepts", "mixing_rejects"):
        if key in res:  # absent from older checkpoints
            print(f"{key} = {res[key]}")


def cmd_ground(args):
    cfg, text = _load_config(args.config)
    cfg_hash = _config_hash(text)
    out = Path(args.checkpoint or "ground.ckpt")
    if args.resume and out.exists():
        state = _load_checkpoint(out)
        print(f"# resumed from {out}")
        _print_state_summary(state, cfg_hash)
        return EXIT_OK
    if not out.parent.is_dir():
        raise ConfigError(f"cannot write checkpoint {out}: no such directory")
    state = _solve_from_config(cfg, statistics_override=args.statistics)
    ckpt.save_state(out, state)
    _print_state_summary(state, cfg_hash)
    print(f"checkpoint = {out}")
    return EXIT_OK


def cmd_linres(args):
    if args.tol_zero is not None and not 0 < args.tol_zero < np.inf:
        raise ConfigError(f"--tol-zero must be a positive finite number, got "
                          f"{args.tol_zero}")
    state = _load_checkpoint(args.checkpoint)
    gs._require_converged(state)
    cfg, text = _load_config(args.config)
    cfg_hash = _config_hash(text)
    pert = _build_perturbation(cfg, state)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rm = li.assemble_L(state)
    R = li.build_R(state, pert, rm)

    spec = spm.eigensolve(rm, tol_zero=args.tol_zero, drive=R)
    zrep = spm.classify_zero_modes(spec, expected_count=spm.expected_zero_modes(
        rm.layout.M_list, rm.layout.n_list, [len(n) for n, _ in rm.natural]))
    weights = spm.response_weights(spec, R)

    header = [f"config sha256 {cfg_hash}", f"checkpoint {args.checkpoint}",
              f"tol_zero {spec.tol_zero:.6g}"]
    spm.save_spectrum_csv(out_dir / "spectrum.csv", spec, weights, header,
                          weights_path=out_dir / "weights.csv")

    try:
        rec = spm.reconstruct(spec, weights, pert.omega)
        spm.save_reconstruction(out_dir / "reconstruction.ckpt", rec)
        reconstruction = f"reconstruction = {out_dir / 'reconstruction.ckpt'}"
    except ValueError as exc:
        reconstruction = f"reconstruction_skipped = {exc}"

    print(f"# config sha256 {cfg_hash}")
    print(f"dimension = {rm.D}")
    print(f"eigensolver = {spec.eigensolver}")
    print("parity_sectors = " + " ".join(map(str, spec.sector_sizes)))
    print("driven_sectors = "
          + (" ".join(map(str, spec.driven_sizes)) or "none"))
    print(f"zero_modes = {zrep['count']} (expected {zrep['expected']})")
    if "mismatch" in zrep:
        print(f"zero_mode_warning = {zrep['mismatch']}")
    print(f"null_vector_residual = {zrep['constructed_residual']:.3e}")
    print(f"symmetry_defect_sigma1 = {spec.sigma1_defect:.3e}")
    print(f"symmetry_defect_sigma3 = {spec.sigma3_defect:.3e}")
    print(f"pairing_residual = {spec.pairing_residual:.3e}")
    print(f"unstable = {spec.unstable}")
    print(f"metric_clipped = {rm.metric_clipped}")
    low = np.sort(spec.omega)[:8]
    print("lowest_excitations = " + " ".join(f"{w:.12g}" for w in low))
    if args.dump_matrix:
        ckpt.save_arrays(out_dir / "response_matrix.ckpt",
                         {"kind": "response_matrix", "D": rm.D},
                         {"L": rm.L, "P": rm.projector(), "R": R})
        print(f"matrix_dump = {out_dir / 'response_matrix.ckpt'}")
    print(reconstruction)
    print(f"spectrum_csv = {out_dir / 'spectrum.csv'}")
    return EXIT_OK


def cmd_oracle(args):
    cfg, text = _load_config(args.config)
    cfg_hash = _config_hash(text)
    which = args.which
    # bdg and osc compare against the references of one model each
    statistics = _need(cfg, "system", "statistics")
    n_dofs = cfg.get("system", "orbitals", fallback="").count(",") + 1
    kind = cfg.get("interaction", "type", fallback="none")
    if which == "bdg" and (statistics != "boson"
                           or kind not in ("contact", "none")):
        raise ConfigError(f"oracle bdg needs boson statistics with a contact "
                          f"or no interaction, got {statistics} statistics "
                          f"and interaction {kind!r}")
    if which == "osc" and (statistics not in ("dist", "distinguishable")
                           or n_dofs != 2 or kind != "bilinear"):
        raise ConfigError(f"oracle osc needs two distinguishable DOFs with a "
                          f"bilinear coupling, got {statistics} statistics, "
                          f"{n_dofs} DOF(s) and interaction {kind!r}")
    print(f"# config sha256 {cfg_hash}")
    if which == "osc":
        with _config_values():
            ref = orc.coupled_oscillators_reference(
                float(_need(cfg, "interaction", "strength")))
        state = _solve_from_config(cfg)
        rm = li.assemble_L(state)
        # eigenvalues only: a drive of no columns forms no vectors
        spec = spm.eigensolve(rm, drive=np.zeros((rm.D, 0)))
        low = np.sort(spec.omega)[:2]
        print("mode  reference      computed       abs_diff")
        for i in range(2):
            print(f"{i:4d}  {ref[i]:.10f}  {low[i]:.10f}  "
                  f"{abs(ref[i] - low[i]):.3e}")
        return EXIT_OK
    if which == "bdg":
        state = _solve_from_config(cfg)
        bdg = orc.bdg_reference(state.grids[0], state.h_ops[0],
                                state.interaction.strength, state.space.N,
                                condensate=state.sets[0].orbitals[0])
        rm = li.assemble_L(state)
        # eigenvalues only: a drive of no columns forms no vectors
        spec = spm.eigensolve(rm, drive=np.zeros((rm.D, 0)))
        low = np.sort(spec.omega)[:5]
        ref = bdg["frequencies"][:5]
        print("mode  bdg            response       abs_diff")
        for i in range(min(len(low), len(ref))):
            print(f"{i:4d}  {ref[i]:.10f}  {low[i]:.10f}  "
                  f"{abs(ref[i] - low[i]):.3e}")
        print(f"max_diff = {np.abs(low[:len(ref)] - ref[:len(low)]).max():.3e}")
        return EXIT_OK
    if which == "se":
        with _config_values():
            N = int(_need(cfg, "system", "particles"))
            grid = _build_grid_j(cfg)
            h_op = _build_h(cfg, grid)
            kernel = _build_kernel(cfg)
            omega = float(cfg.get("perturbation", "omega", fallback="0.37"))
        eigsys = orc.exact_diag_grid(N, statistics, grid, h_op, kernel)
        res = orc.se_linear_response(eigsys, gr.position_operator(grid), omega)
        err = np.abs(res["omega_plus"] - res["gaps"]).max()
        print(f"branch_match_defect = {err:.3e}")
        print(f"identity_defect = {res['identity_defect']:.3e}")
        print(f"spectral_defect = {res['spectral_defect']:.3e}")
        ok = (err < 1e-12 * max(1.0, res["gaps"].max())
              and res["identity_defect"] < 1e-10
              and res["spectral_defect"] < 1e-10)
        print("PASS" if ok else "FAIL")
        return EXIT_OK if ok else EXIT_USAGE
    raise ConfigError(f"unknown oracle {which!r}")


def cmd_propcheck(args):
    if args.steps < 1:
        raise ConfigError(f"--steps must be at least 1, got {args.steps}")
    if not 0 < args.dt < np.inf:
        raise ConfigError(f"--dt must be a positive finite number, got "
                          f"{args.dt}")
    if not 0 <= args.perturb < np.inf:
        raise ConfigError(f"--perturb must be a non-negative finite number, "
                          f"got {args.perturb}")
    state = _load_checkpoint(args.checkpoint)
    if args.perturb > 0:
        state = gs.perturbed_state(state, args.perturb, seed=args.seed)
    diag = gs.propagate_check(state, args.dt, args.steps,
                              use_coeff_projector=not args.no_coeff_projector)
    for key, val in diag.items():
        print(f"{key} = {val:.6e}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mclr",
        description="excitation spectra from linearized multiconfigurational "
                    "Hartree ground states")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ground", help="solve a stationary state")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--statistics", choices=("boson", "fermion", "dist"),
                   default=None, help="override the config value")
    p.set_defaults(func=cmd_ground)

    p = sub.add_parser("linres", help="response spectrum of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--dump-matrix", action="store_true")
    p.add_argument("--tol-zero", type=float, default=None)
    p.set_defaults(func=cmd_linres)

    p = sub.add_parser("oracle", help="independent reference comparisons")
    p.add_argument("--config", required=True)
    p.add_argument("--which", choices=("bdg", "se", "osc"), required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("propcheck", help="differential-condition diagnostics")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--perturb", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-coeff-projector", action="store_true")
    p.set_defaults(func=cmd_propcheck)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except gs.NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOCONV


if __name__ == "__main__":
    sys.exit(main())
