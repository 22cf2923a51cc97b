"""Command-line workflows: ground, linres, oracle, propcheck."""

import io
import os
import struct
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mclr import checkpoint as ckpt_mod
from mclr import cli
from mclr import grid as gr
from mclr import groundstate as gs
from mclr import hamiltonian as ham
from mclr import linres_identical as li
from mclr import spectrum as spm

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = Path(__file__).resolve().parent.parent / "src"


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ground_writes_checkpoint(tmp_path, capsys):
    ck = tmp_path / "state.ckpt"
    code, out, _ = _run(capsys, [
        "ground", "--config", str(CONFIGS / "harmonic_n2_m2.cfg"),
        "--checkpoint", str(ck)])
    assert code == 0
    assert ck.exists()
    line = [l for l in out.splitlines() if l.startswith("energy =")][0]
    energy = float(line.split("=")[1])
    assert energy == pytest.approx(1.0393239, abs=1e-5)
    assert "# config sha256" in out
    for key in ("scaled_orbital_residual", "backtracks", "forced_accepts",
                "mixing_rejects"):
        assert sum(l.startswith(f"{key} = ") for l in out.splitlines()) == 1


def test_ground_missing_key_names_it(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("[system]\nstatistics = boson\nparticles = 2\n"
                   "[grid]\npoints = 16\nx_min = -4\nx_max = 4\n")
    code, _, err = _run(capsys, ["ground", "--config", str(cfg),
                                 "--checkpoint", str(tmp_path / "x.ckpt")])
    assert code == 1
    assert "orbitals" in err


def test_ground_checkpoint_in_missing_directory(tmp_path, capsys,
                                               monkeypatch):
    # refused before the solve: one error line, exit 1
    def solve(*args, **kwargs):
        raise AssertionError("solved")

    monkeypatch.setattr(cli, "_solve_from_config", solve)
    ck = tmp_path / "missing" / "x.ckpt"
    code, out, err = _run(capsys, [
        "ground", "--config", str(CONFIGS / "harmonic_n2_m2.cfg"),
        "--checkpoint", str(ck)])
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot write checkpoint {ck}")
    assert len(err.splitlines()) == 1


def test_linres_out_dir_that_is_a_file(tmp_path, capsys):
    ck, cfg = tmp_path / "state.ckpt", str(CONFIGS / "harmonic_n2_m2.cfg")
    assert _run(capsys, ["ground", "--config", cfg,
                         "--checkpoint", str(ck)])[0] == 0
    taken = tmp_path / "taken"
    taken.write_text("a file")
    code, out, err = _run(capsys, ["linres", "--checkpoint", str(ck),
                                   "--config", cfg, "--out-dir", str(taken)])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(taken) in err
    assert len(err.splitlines()) == 1
    assert taken.read_text() == "a file"


def test_ground_nonconvergence_exit_code(tmp_path, capsys):
    cfg = tmp_path / "hard.cfg"
    cfg.write_text((CONFIGS / "harmonic_n2_m2.cfg").read_text()
                   .replace("max_iter = 500", "max_iter = 1")
                   .replace("tol_orb = 1e-8", "tol_orb = 1e-15"))
    code, _, err = _run(capsys, ["ground", "--config", str(cfg),
                                 "--checkpoint", str(tmp_path / "x.ckpt")])
    assert code == 2
    assert "residual" in err


@pytest.mark.parametrize("name", ["harmonic_n2_m2", "coupled_pair_m44"])
def test_ground_resume_reproduces_energy(tmp_path, capsys, name):
    # the resumed summary repeats every line of the solve's, energy and
    # natural occupations (one line per DOF) included
    ck = tmp_path / "state.ckpt"
    cfg = str(CONFIGS / f"{name}.cfg")
    _, out1, _ = _run(capsys, ["ground", "--config", cfg, "--checkpoint", str(ck)])
    code, out2, _ = _run(capsys, ["ground", "--config", cfg,
                                  "--checkpoint", str(ck), "--resume"])
    assert code == 0
    solved, resumed = out1.splitlines(), out2.splitlines()
    assert solved[-1] == f"checkpoint = {ck}"
    assert resumed[0] == f"# resumed from {ck}"
    assert resumed[1:] == solved[:-1]
    assert sum(l.startswith("natural_occupations") for l in solved) \
        == (1 if name == "harmonic_n2_m2" else 2)


def test_linres_outputs(tmp_path, capsys):
    ck = tmp_path / "state.ckpt"
    cfg = str(CONFIGS / "free_ladder_m2.cfg")
    _run(capsys, ["ground", "--config", cfg, "--checkpoint", str(ck)])
    code, out, _ = _run(capsys, [
        "linres", "--checkpoint", str(ck), "--config", cfg,
        "--out-dir", str(tmp_path), "--dump-matrix"])
    assert code == 0
    spectrum = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert any(l.startswith("index,") for l in spectrum)
    low = [l for l in out.splitlines() if l.startswith("lowest_excitations")][0]
    first = float(low.split("=")[1].split()[0])
    assert first == pytest.approx(1.0, abs=1e-4)
    assert (tmp_path / "weights.csv").exists()
    assert (tmp_path / "response_matrix.ckpt").exists()
    zero_line = [l for l in out.splitlines() if l.startswith("zero_modes")][0]
    # the empty second orbital leaves the response coordinates: its
    # 2 (64 - 2) directions join the 10 analytic null vectors
    assert "expected 134" in zero_line
    assert "eigensolver = rpa" in out


def test_linres_interacting_zero_mode_count(tmp_path, capsys):
    ck = tmp_path / "state.ckpt"
    cfg = str(CONFIGS / "harmonic_n2_m2.cfg")
    _run(capsys, ["ground", "--config", cfg, "--checkpoint", str(ck)])
    code, out, _ = _run(capsys, ["linres", "--checkpoint", str(ck),
                                 "--config", cfg, "--out-dir", str(tmp_path)])
    assert code == 0
    zero_line = [l for l in out.splitlines() if l.startswith("zero_modes")][0]
    assert zero_line.split("=")[1].split()[0].strip() == "10"
    assert "zero_mode_warning" not in out
    assert "eigensolver = rpa" in out


def _fresh_interpreter(code):
    """stdout of ``code`` run in a new interpreter that imports mclr from
    this checkout, followed by a line listing the loaded scipy modules."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    code += ("\nimport sys\n"
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_loads_no_scipy():
    assert _fresh_interpreter("import mclr.cli").splitlines()[-1] == "[]"


def test_ground_and_linres_load_no_scipy(tmp_path):
    cfg = str(CONFIGS / "harmonic_n2_m2.cfg")
    ck = str(tmp_path / "state.ckpt")
    out = _fresh_interpreter(
        "from mclr.cli import main\n"
        f"assert main(['ground', '--config', {cfg!r}, '--checkpoint', {ck!r}]) == 0\n"
        f"assert main(['linres', '--config', {cfg!r}, '--checkpoint', {ck!r}, "
        f"'--out-dir', {str(tmp_path)!r}]) == 0")
    assert "eigensolver = rpa" in out
    assert (tmp_path / "spectrum.csv").exists()
    assert out.splitlines()[-1] == "[]"


def test_oracle_bdg_table(capsys):
    code, out, _ = _run(capsys, ["oracle", "--which", "bdg",
                                 "--config", str(CONFIGS / "bdg_m1.cfg")])
    assert code == 0
    max_line = [l for l in out.splitlines() if l.startswith("max_diff")][0]
    assert float(max_line.split("=")[1]) < 1e-7


def test_oracle_se_self_test(tmp_path, capsys):
    cfg = tmp_path / "se.cfg"
    cfg.write_text((CONFIGS / "harmonic_n2_m2.cfg").read_text()
                   .replace("points = 64", "points = 20"))
    code, out, _ = _run(capsys, ["oracle", "--which", "se", "--config", str(cfg)])
    assert code == 0
    assert "PASS" in out


def test_oracle_coupled_oscillators(capsys):
    code, out, _ = _run(capsys, ["oracle", "--which", "osc",
                                 "--config", str(CONFIGS / "coupled_pair_m44.cfg")])
    assert code == 0
    rows = [l for l in out.splitlines() if l and l[0].isdigit() is False
            and "abs_diff" not in l]
    diffs = [float(l.split()[-1]) for l in out.splitlines()
             if l.strip() and l.split()[0].isdigit()]
    assert max(diffs) < 1e-3


@pytest.mark.parametrize("which, config, edit", [
    ("bdg", "coupled_pair_m44.cfg", None),
    ("bdg", "harmonic_n2_m2.cfg", ("statistics = boson", "statistics = fermion")),
    ("osc", "harmonic_n2_m2.cfg", None),
])
def test_oracle_rejects_configs_outside_its_model(tmp_path, capsys, which,
                                                  config, edit):
    # bdg is a contact-gas reference, osc one of two bilinearly coupled
    # oscillators: any other model is one error line, before any solve
    cfg = tmp_path / config
    text = (CONFIGS / config).read_text()
    cfg.write_text(text.replace(*edit) if edit else text)
    code, out, err = _run(capsys, ["oracle", "--which", which,
                                   "--config", str(cfg)])
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: oracle {which} needs ")
    assert len(err.splitlines()) == 1


def test_linres_tol_zero_flag(tmp_path, capsys):
    # an absurdly large threshold swallows the true excitations into the
    # zero-mode bucket, proving the flag reaches the classifier
    ck = tmp_path / "state.ckpt"
    cfg = str(CONFIGS / "harmonic_n2_m2.cfg")
    _run(capsys, ["ground", "--config", cfg, "--checkpoint", str(ck)])
    code, out, _ = _run(capsys, [
        "linres", "--checkpoint", str(ck), "--config", cfg,
        "--out-dir", str(tmp_path), "--tol-zero", "1.5"])
    assert code == 0
    zero_line = [l for l in out.splitlines() if l.startswith("zero_modes")][0]
    assert int(zero_line.split("=")[1].split()[0]) > 10
    assert "zero_mode_warning" in out
    assert "eigensolver = dense (an excitation at or below tol_zero)" in out


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "-inf"])
def test_linres_rejects_bad_tol_zero(tmp_path, capsys, value):
    cfg = str(CONFIGS / "harmonic_n2_m2.cfg")
    code, out, err = _run(capsys, [
        "linres", "--checkpoint", str(tmp_path / "absent.ckpt"),
        "--config", cfg, "--out-dir", str(tmp_path), f"--tol-zero={value}"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: --tol-zero must be a positive finite number")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("name", ["coupled_pair_m44", "harmonic_n2_m2"])
def test_linres_never_builds_dense_matrices(tmp_path, capsys, monkeypatch,
                                            name):
    # the half-size path works on the halves (a, b) of L and the per-DOF
    # factors of P alone
    def dense(self):
        raise AssertionError("dense D x D matrix built")

    cfg, ck = str(CONFIGS / f"{name}.cfg"), str(tmp_path / "state.ckpt")
    assert _run(capsys, ["ground", "--config", cfg, "--checkpoint", ck])[0] == 0
    monkeypatch.setattr(li.ResponseMatrix, "L", property(dense))
    monkeypatch.setattr(li.ResponseMatrix, "projector", dense)
    code, out, _ = _run(capsys, ["linres", "--checkpoint", ck, "--config", cfg,
                                 "--out-dir", str(tmp_path)])
    assert code == 0
    assert "eigensolver = rpa" in out


def test_linres_dense_fallback_spectrum(tmp_path, capsys):
    # with the free ladder's empty orbital left out, A - B is positive
    # definite and the half-size solve gives the excitation ladder 1, 2, 2,
    # 3, ... to 1e-12, as the dense eig path did before
    cfg, ck = str(CONFIGS / "free_ladder_m2.cfg"), str(tmp_path / "state.ckpt")
    _run(capsys, ["ground", "--config", cfg, "--checkpoint", ck])
    code, out, _ = _run(capsys, ["linres", "--checkpoint", ck, "--config", cfg,
                                 "--out-dir", str(tmp_path)])
    assert code == 0
    assert "eigensolver = rpa" in out
    rows = np.loadtxt(tmp_path / "spectrum.csv", delimiter=",", skiprows=4)
    w, zero = rows[:, 1], rows[:, 4]
    retained = np.sort(w[(w > 0) & (zero == 0)])
    assert len(retained) == 64
    assert np.abs(retained[:8] - [1, 2, 2, 3, 4, 5, 6, 7]).max() < 1e-12


def test_statistics_override_flag(tmp_path, capsys):
    # same config solved as fermions via the override: Pauli energy 2.0
    cfg = tmp_path / "free.cfg"
    cfg.write_text((CONFIGS / "free_ladder_m2.cfg").read_text())
    code, out, _ = _run(capsys, [
        "ground", "--config", str(cfg), "--statistics", "fermion",
        "--checkpoint", str(tmp_path / "f.ckpt")])
    assert code == 0
    energy = float([l for l in out.splitlines()
                    if l.startswith("energy")][0].split("=")[1])
    assert energy == pytest.approx(2.0, abs=1e-6)


def test_malformed_config_reports_line(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("[system\nstatistics = boson\n")
    code, _, err = _run(capsys, ["ground", "--config", str(cfg),
                                 "--checkpoint", str(tmp_path / "x.ckpt")])
    assert code == 1
    assert "line" in err.lower()


def test_linres_writes_reconstruction(tmp_path, capsys):
    ck = tmp_path / "state.ckpt"
    cfg = str(CONFIGS / "harmonic_n2_m2.cfg")
    _run(capsys, ["ground", "--config", cfg, "--checkpoint", str(ck)])
    code, out, _ = _run(capsys, ["linres", "--checkpoint", str(ck),
                                 "--config", cfg, "--out-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "reconstruction.ckpt").exists()
    from mclr import checkpoint as ckpt_mod
    header, arrays = ckpt_mod.load_arrays(tmp_path / "reconstruction.ckpt")
    assert header["kind"] == "reconstruction"
    assert arrays["dphi_minus"].shape == (2, 64)


def test_propcheck_diagnostics(tmp_path, capsys):
    ck = tmp_path / "state.ckpt"
    cfg = str(CONFIGS / "harmonic_n2_m2.cfg")
    _run(capsys, ["ground", "--config", cfg, "--checkpoint", str(ck)])
    code, out, _ = _run(capsys, [
        "propcheck", "--checkpoint", str(ck), "--perturb", "0.02",
        "--dt", "2e-4", "--steps", "50"])
    assert code == 0
    vals = dict(l.split(" = ") for l in out.splitlines() if " = " in l)
    assert float(vals["orb_diff_cond"]) < 1e-8
    assert float(vals["coeff_diff_cond"]) < 1e-8


@pytest.mark.parametrize("perturb", ["0", "0.02"])
def test_propcheck_runs_on_distinguishable_checkpoint(capsys, config_checkpoints,
                                                      perturb):
    # the orbitals of both DOFs and C move as one vector; the projected
    # equations keep the differential conditions at rounding level
    code, out, err = _run(capsys, [
        "propcheck", "--checkpoint", str(config_checkpoints["coupled_pair_m44"]),
        "--perturb", perturb, "--dt", "2e-4", "--steps", "20"])
    assert code == 0 and err == ""
    vals = dict(l.split(" = ") for l in out.splitlines())
    assert list(vals) == ["orb_diff_cond", "coeff_diff_cond", "full_diff_cond",
                          "orthonormality_drift", "norm_drift"]
    for key in ("orb_diff_cond", "coeff_diff_cond", "full_diff_cond"):
        assert float(vals[key]) < 1e-8


def test_linres_distinguishable_writes_reconstruction(tmp_path, capsys,
                                                      config_checkpoints):
    code, out, _ = _run(capsys, [
        "linres", "--checkpoint", str(config_checkpoints["coupled_pair_m44"]),
        "--config", str(CONFIGS / "coupled_pair_m44.cfg"),
        "--out-dir", str(tmp_path)])
    assert code == 0
    assert (f"reconstruction = {tmp_path / 'reconstruction.ckpt'}"
            in out.splitlines())
    header, arrays = ckpt_mod.load_arrays(tmp_path / "reconstruction.ckpt")
    assert header["kind"] == "reconstruction" and header["omega"] == 0.57
    # per DOF, named as in the state checkpoint; the probe x_1 drives DOF 1
    # and, through the coupling, DOF 2
    assert sorted(arrays) == sorted(
        ["dC_minus", "dC_plus"] + [f"{base}_{j}" for j in (0, 1) for base in
                                   ("dphi_minus", "dphi_plus", "orbital_norms")])
    for j in (0, 1):
        assert arrays[f"dphi_minus_{j}"].shape == (4, 48)
        assert np.abs(arrays[f"dphi_minus_{j}"]).max() > 1e-3


def test_one_boson_and_one_dof_are_the_same_system(tmp_path, capsys):
    # one boson in M orbitals has the configurations of one distinguishable
    # DOF with M orbitals, in the same order: the energy, the spectrum, the
    # reconstruction (dphi_minus against dphi_minus_0, ...) and the
    # propagation of the same perturbation agree bit for bit
    common = ["mass = 1.0", "[grid]", "points = 48", "x_min = -8.0",
              "x_max = 8.0", "[trap]", "type = harmonic", "omega = 1.0",
              "[interaction]", "type = none", "[perturbation]",
              "f_type = x2", "omega = 0.55"]
    systems = {"boson": ["statistics = boson", "particles = 1"],
               "dist": ["statistics = dist"]}
    got = {}
    for kind, system in systems.items():
        cfg, ck, out_dir = (tmp_path / f"{kind}.cfg", tmp_path / f"{kind}.ckpt",
                            tmp_path / kind)
        cfg.write_text("\n".join(["[system]", *system, "orbitals = 3", *common])
                       + "\n")
        code, ground, _ = _run(capsys, ["ground", "--config", str(cfg),
                                        "--checkpoint", str(ck)])
        assert code == 0
        code, _, _ = _run(capsys, ["linres", "--config", str(cfg),
                                   "--checkpoint", str(ck),
                                   "--out-dir", str(out_dir)])
        assert code == 0
        rows = [l for l in (out_dir / "spectrum.csv").read_text().splitlines()
                if not l.startswith("#")]
        _, rec = ckpt_mod.load_arrays(out_dir / "reconstruction.ckpt")
        state = ckpt_mod.load_state(ck)
        diag = gs.propagate_check(gs.perturbed_state(state, 0.02, 1), 2e-4, 20)
        got[kind] = ([l for l in ground.splitlines()
                      if l.startswith("energy = ")], rows, rec, diag)
    (energy, rows, rec, diag), dist = got["boson"], got["dist"]
    assert energy == dist[0] and len(energy) == 1
    assert rows == dist[1] and len(rows) == 1 + 2 * (3 * 48 + 3)
    assert list(dist[2]) == [k if k.startswith("dC") else f"{k}_0" for k in rec]
    for key, a in rec.items():
        b = dist[2][key if key.startswith("dC") else f"{key}_0"]
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    assert diag == dist[3]


def test_linres_prints_parity_sectors(tmp_path, capsys, config_checkpoints):
    # the coupled pair splits into its even and odd sectors, and the dipole
    # probe drives the odd one; the dense fallback solves one sector, of
    # all n reduced coordinates, with its vectors
    cfg = str(CONFIGS / "coupled_pair_m44.cfg")
    args = ["linres", "--checkpoint", str(config_checkpoints["coupled_pair_m44"]),
            "--config", cfg, "--out-dir", str(tmp_path)]
    code, out, _ = _run(capsys, args)
    lines = out.splitlines()
    assert code == 0 and "parity_sectors = 183 184" in lines
    assert lines.index("parity_sectors = 183 184") \
        == lines.index("eigensolver = rpa") + 1
    assert lines.index("driven_sectors = 184") \
        == lines.index("parity_sectors = 183 184") + 1
    code, out, _ = _run(capsys, args + ["--tol-zero", "1.5"])
    lines = out.splitlines()
    assert code == 0 and "parity_sectors = 367" in lines
    assert "driven_sectors = 367" in lines


def test_linres_zero_probe_drives_no_sector(tmp_path, capsys,
                                            config_checkpoints):
    # without a probe no sector is solved with vectors: every weight and
    # the reconstruction are exact zeros
    cfg = _edited_config(tmp_path / "none.cfg", "harmonic_n2_m2",
                         "f_type = x", "f_type = none")
    code, out, _ = _run(capsys, [
        "linres", "--checkpoint", str(config_checkpoints["harmonic_n2_m2"]),
        "--config", cfg, "--out-dir", str(tmp_path)])
    lines = out.splitlines()
    assert code == 0 and "parity_sectors = 63 63" in lines
    assert lines.index("driven_sectors = none") \
        == lines.index("parity_sectors = 63 63") + 1
    rows = np.loadtxt(tmp_path / "weights.csv", delimiter=",", skiprows=4)
    assert len(rows) == 126 and np.all(rows[:, 3:] == 0)
    _, arrays = ckpt_mod.load_arrays(tmp_path / "reconstruction.ckpt")
    assert all(np.all(a == 0) for a in arrays.values())


def test_linres_refuses_non_integer_orbital_counts(tmp_path, capsys,
                                                  config_checkpoints):
    # M_list = [4.5, 4] in the header of a coupled_pair_m44 checkpoint used
    # to load as (4, 4) and give that spectrum
    header, arrays = ckpt_mod.load_arrays(config_checkpoints["coupled_pair_m44"])
    del header["arrays"]
    header["M_list"] = [4.5, 4]
    ck = tmp_path / "half.ckpt"
    ckpt_mod.save_arrays(ck, header, arrays)
    code, out, err = _run(capsys, [
        "linres", "--checkpoint", str(ck),
        "--config", str(CONFIGS / "coupled_pair_m44.cfg"),
        "--out-dir", str(tmp_path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot load checkpoint")
    assert "must be integers, got 4.5" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("flag, value, message", [
    ("--steps", "0", "--steps must be at least 1"),
    ("--steps", "-3", "--steps must be at least 1"),
    ("--dt", "0", "--dt must be a positive finite number"),
    ("--dt", "-1e-3", "--dt must be a positive finite number"),
    ("--dt", "nan", "--dt must be a positive finite number"),
    ("--dt", "inf", "--dt must be a positive finite number"),
    ("--perturb", "-0.02", "--perturb must be a non-negative finite number"),
    ("--perturb", "nan", "--perturb must be a non-negative finite number"),
    ("--perturb", "inf", "--perturb must be a non-negative finite number"),
])
def test_propcheck_rejects_bad_arguments(tmp_path, capsys, flag, value,
                                         message):
    code, out, err = _run(capsys, [
        "propcheck", "--checkpoint", str(tmp_path / "absent.ckpt"),
        f"{flag}={value}"])
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {message}")
    assert len(err.splitlines()) == 1


# --- unreadable, corrupt and unconverged checkpoints: exit 1, no traceback

TINY_CFG = """[system]
statistics = boson
particles = 2
orbitals = 1

[grid]
points = 8
x_min = -5.0
x_max = 5.0

[interaction]
type = contact
strength = 0.1

[perturbation]
f_type = x
omega = 0.55
"""


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """(config path, bytes of a converged checkpoint) for an 8-point grid."""
    d = tmp_path_factory.mktemp("tiny")
    cfg, ck = d / "tiny.cfg", d / "tiny.ckpt"
    cfg.write_text(TINY_CFG)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["ground", "--config", str(cfg),
                         "--checkpoint", str(ck)]) == 0
    return cfg, ck.read_bytes()


def _linres_quiet(cfg, ck, out_dir):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(["linres", "--checkpoint", str(ck), "--config", str(cfg),
                         "--out-dir", str(out_dir)])
    return code, err.getvalue()


def test_linres_refuses_every_truncated_checkpoint(tmp_path, tiny_checkpoint):
    cfg, data = tiny_checkpoint
    ck = tmp_path / "cut.ckpt"
    for size in range(len(data)):
        ck.write_bytes(data[:size])
        code, err = _linres_quiet(cfg, ck, tmp_path)
        assert code == 1, size
        assert err.startswith("error: cannot load checkpoint"), (size, err)
    assert not (tmp_path / "spectrum.csv").exists()


def test_linres_missing_checkpoint(tmp_path, tiny_checkpoint):
    code, err = _linres_quiet(tiny_checkpoint[0], tmp_path / "absent.ckpt",
                              tmp_path)
    assert code == 1
    assert "error: cannot load checkpoint" in err


def test_ground_resume_from_corrupt_checkpoint(tmp_path, tiny_checkpoint,
                                               capsys):
    cfg, data = tiny_checkpoint
    ck = tmp_path / "cut.ckpt"
    # cut relative to the file: a fixed length can exceed a small checkpoint
    ck.write_bytes(data[:len(data) // 2])
    code, _, err = _run(capsys, ["ground", "--config", str(cfg),
                                 "--checkpoint", str(ck), "--resume"])
    assert code == 1
    assert "corrupt checkpoint" in err


@pytest.mark.parametrize("header", [{"kind": "identical"}, {"nokind": 1}])
def test_linres_refuses_checkpoint_without_header_keys(
        tmp_path, tiny_checkpoint, header):
    # a valid CRC over a header that lacks the state's entries
    ck = tmp_path / "bare.ckpt"
    ckpt_mod.save_arrays(ck, header, {})
    code, err = _linres_quiet(tiny_checkpoint[0], ck, tmp_path)
    assert code == 1
    assert err.startswith("error: cannot load checkpoint")
    assert "corrupt checkpoint: missing or ill-typed entry" in err
    assert len(err.splitlines()) == 1


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_linres_refuses_header_byte_flips(tmp_path_factory, tiny_checkpoint,
                                          data):
    cfg, raw = tiny_checkpoint
    hlen = struct.unpack_from("<Q", raw, 12)[0]
    pos = data.draw(st.integers(0, 24 + hlen - 1), label="byte")
    flip = data.draw(st.integers(1, 255), label="xor")
    bad = bytearray(raw)
    bad[pos] ^= flip
    d = tmp_path_factory.mktemp("flip")
    (d / "bad.ckpt").write_bytes(bytes(bad))
    code, err = _linres_quiet(cfg, d / "bad.ckpt", d)
    assert code == 1
    assert err.startswith("error: cannot load checkpoint"), err


def test_linres_refuses_unconverged_coefficients(tmp_path, tiny_checkpoint):
    from mclr import checkpoint as ckpt_mod
    cfg, data = tiny_checkpoint
    ck = tmp_path / "state.ckpt"
    ck.write_bytes(data)
    state = ckpt_mod.load_state(ck)
    state.residuals["c_residual"] = 1e-3
    ckpt_mod.save_state(ck, state)
    code, err = _linres_quiet(cfg, ck, tmp_path)
    assert code == 1
    assert "not converged" in err and "coefficient residual 1.000e-03" in err


@pytest.fixture(scope="module")
def config_checkpoints(tmp_path_factory):
    """Checkpoints of harmonic_n2_m2 and coupled_pair_m44, by config name."""
    d = tmp_path_factory.mktemp("ground")
    out = {}
    for name in ("harmonic_n2_m2", "coupled_pair_m44"):
        out[name] = d / f"{name}.ckpt"
        with redirect_stdout(io.StringIO()):
            assert cli.main(["ground", "--config", str(CONFIGS / f"{name}.cfg"),
                             "--checkpoint", str(out[name])]) == 0
    return out


def _edited_config(path, name, old, new):
    """configs/<name>.cfg with its line ``old`` replaced by ``new``."""
    lines = (CONFIGS / f"{name}.cfg").read_text().splitlines()
    assert lines.count(old) == 1
    lines[lines.index(old)] = new
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("command,name,old,new", [
    ("ground", "harmonic_n2_m2", "strength = 0.1", "strength = abc"),
    ("ground", "harmonic_n2_m2", "particles = 2", "particles = 0"),
    ("ground", "harmonic_n2_m2", "points = 64", "points = 3"),
    ("ground", "harmonic_n2_m2", "omega = 1.0", "omega = -1"),        # trap
    ("ground", "coupled_pair_m44", "pair = 1-2", "pair = 1-1"),
    ("ground", "coupled_pair_m44", "pair = 1-2", "pair = 1-3"),
    ("ground", "coupled_pair_m44", "pair = 1-2", "pair = 0-2"),
    ("linres", "harmonic_n2_m2", "omega = 0.55", "omega = 0"),
    ("linres", "harmonic_n2_m2", "f_strength = 1.0", "f_strength = abc"),
    ("linres", "harmonic_n2_m2", "f_strength = 1.0", "g_type = cubic"),
    ("linres", "coupled_pair_m44", "omega = 0.57", "omega = 0"),
    ("linres", "coupled_pair_m44", "f_type_2 = none", "g_type = cubic"),
    ("linres", "coupled_pair_m44", "f_type_2 = none",
     "g_type = bilinear\ng_pair = 1-3"),
])
def test_bad_config_value_is_one_error_line(tmp_path, capsys, config_checkpoints,
                                            command, name, old, new):
    cfg = _edited_config(tmp_path / "bad.cfg", name, old, new)
    if command == "ground":
        argv = ["ground", "--config", cfg,
                "--checkpoint", str(tmp_path / "x.ckpt")]
    else:
        argv = ["linres", "--config", cfg, "--out-dir", str(tmp_path),
                "--checkpoint", str(config_checkpoints[name])]
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("name,old,new", [
    ("harmonic_n2_m2", "f_strength = 1.0",
     "f_strength = 1.0\ng_type = gaussian\ng_strength = 0.2\ng_width = 0.6"),
    ("coupled_pair_m44", "f_type_2 = none",
     "f_type_2 = x\ng_type = bilinear\ng_strength = 0.3"),
])
def test_linres_pair_probe_config(tmp_path, capsys, config_checkpoints,
                                  name, old, new):
    # the pair-probe keys of [perturbation] give the weights of the library
    # driving vector built from the same probes by hand
    cfg = _edited_config(tmp_path / "probe.cfg", name, old, new)
    ck = config_checkpoints[name]
    code, out, _ = _run(capsys, ["linres", "--checkpoint", str(ck), "--config",
                                 cfg, "--out-dir", str(tmp_path)])
    assert code == 0
    assert "eigensolver = rpa" in out
    assert "metric_clipped = False" in out
    state = ckpt_mod.load_state(ck)
    if name == "harmonic_n2_m2":
        g, omega = gr.TwoBodyKernel("gaussian", strength=0.2, width=0.6), 0.55
    else:
        g, omega = ham.PairCoupling.bilinear(state.grids, 0, 1, 0.3), 0.57
    rm = li.assemble_L(state)
    R = li.build_R(state, li.PerturbationSpec(
        f_dags=tuple(map(gr.position_operator, state.grids)), g_dag=g,
        omega=omega), rm)
    w = spm.response_weights(spm.eigensolve(rm), R)
    rows = np.loadtxt(tmp_path / "weights.csv", delimiter=",", skiprows=4)
    for col, gamma in ((3, w.gamma_plus), (4, w.gamma_minus)):
        assert np.abs(rows[:, col] - np.abs(gamma)).max() \
            <= 1e-12 * np.abs(gamma).max()
    assert np.abs(w.gamma_plus).max() > 1e-3


def test_linres_free_ladder_drops_empty_orbital(tmp_path, capsys):
    # the second natural orbital of the free pair is empty (occupation
    # ~1e-45); its clipped metric direction must not amplify rounding noise
    # into the driven orbitals, which vanish (x phi_0 lies in the span)
    cfg, ck = str(CONFIGS / "free_ladder_m2.cfg"), str(tmp_path / "state.ckpt")
    assert _run(capsys, ["ground", "--config", cfg, "--checkpoint", ck])[0] == 0
    code, out, _ = _run(capsys, ["linres", "--checkpoint", ck, "--config", cfg,
                                 "--out-dir", str(tmp_path)])
    assert code == 0
    assert "metric_clipped = True" in out
    _, arrays = ckpt_mod.load_arrays(tmp_path / "reconstruction.ckpt")
    for key in ("dphi_minus", "dphi_plus"):
        assert np.abs(arrays[key]).max() < 1e-12
    assert np.abs(arrays["dC_minus"]).max() > 0.1


def _complex128_copy(state):
    """``state`` with every array ``mclr ground`` stored as complex128 before
    real problems were kept real: the same values, zero imaginary parts."""
    c = lambda a: np.asarray(a).astype(complex)
    state.sets = [ham.OrbitalSet(c(s.orbitals), s.grid) for s in state.sets]
    state.h_ops = [gr.OneBodyOperator(c(h.matrix), hermitian=False)
                   for h in state.h_ops]
    state.mu = [c(m) for m in state.mu]
    if not state.space.identical:
        state.interaction = ham.PairCoupling(
            [(a, b, c(t)) for a, b, t in state.interaction.terms])
    state.C = c(state.C)
    return state


@pytest.mark.parametrize("name", ["harmonic_n2_m2", "coupled_pair_m44"])
def test_linres_reads_complex128_checkpoint(tmp_path, capsys,
                                            config_checkpoints, name):
    # a checkpoint written with complex128 arrays of zero imaginary part
    # still takes the half-size solve and gives the float64 checkpoint's
    # spectrum
    ck = tmp_path / "complex.ckpt"
    ckpt_mod.save_state(ck, _complex128_copy(
        ckpt_mod.load_state(config_checkpoints[name])))
    assert ckpt_mod.load_arrays(ck)[1]["C"].dtype == np.complex128
    cfg = str(CONFIGS / f"{name}.cfg")
    spectra = []
    for path, out_dir in ((config_checkpoints[name], tmp_path / "real"),
                          (ck, tmp_path / "complex")):
        code, out, _ = _run(capsys, ["linres", "--checkpoint", str(path),
                                     "--config", cfg, "--out-dir", str(out_dir)])
        assert code == 0
        assert "eigensolver = rpa" in out.splitlines()
        spectra.append(np.loadtxt(out_dir / "spectrum.csv", delimiter=",",
                                  skiprows=4))
    real, cplx = spectra
    assert real.shape == cplx.shape
    # column by column, relative to the largest entry of the column
    assert np.all(np.abs(real - cplx).max(axis=0)
                  <= 1e-12 * np.abs(real).max(axis=0))


@pytest.mark.parametrize("name", ["harmonic_n2_m2", "coupled_pair_m44"])
def test_complex128_checkpoint_loads_real(tmp_path, config_checkpoints, name):
    # a checkpoint whose complex128 arrays have no imaginary part loads as
    # the float64 state, array for array; a complex state in memory still
    # meets the realness test of the response assembly and takes the
    # half-size solve in real arithmetic
    real = ckpt_mod.load_state(config_checkpoints[name])
    ck = tmp_path / "complex.ckpt"
    ckpt_mod.save_state(ck, _complex128_copy(
        ckpt_mod.load_state(config_checkpoints[name])))
    loaded = ckpt_mod.load_state(ck)
    pairs = [(loaded.C, real.C), *zip(loaded.mu, real.mu),
             *((a.orbitals, b.orbitals) for a, b in zip(loaded.sets, real.sets)),
             *((a.matrix, b.matrix) for a, b in zip(loaded.h_ops, real.h_ops))]
    for got, want in pairs:
        assert got.dtype == want.dtype == np.float64
        np.testing.assert_array_equal(got, want)
    rm = li.assemble_L(_complex128_copy(ckpt_mod.load_state(ck)))
    assert rm.a.dtype == rm.b.dtype == np.float64
    spec, want = spm.eigensolve(rm), spm.eigensolve(li.assemble_L(real))
    assert spec.eigensolver == "rpa"
    assert np.abs(spec.omega - want.omega).max() <= 1e-12 * want.omega.max()
