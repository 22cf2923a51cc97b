"""Bit-exact round trips of the binary checkpoint format."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from mclr import checkpoint as ckpt
from mclr import cli

DATA = Path(__file__).resolve().parent / "data"
# lowest_excitations printed by ``mclr linres`` on each committed checkpoint
# of tests/data, a state of identical particles and one of distinguishable
# DOFs on 16 grid points, when they were written
REFERENCE = json.loads((DATA / "lowest_excitations.json").read_text())


def test_identical_roundtrip(tmp_path, bos_m2):
    path = tmp_path / "state.ckpt"
    ckpt.save_state(path, bos_m2)
    loaded = ckpt.load_state(path)
    assert loaded.space.statistics == "boson"
    assert loaded.space.N == 2 and loaded.space.M == 2
    assert loaded.energy == bos_m2.energy                        # bit exact
    assert np.array_equal(loaded.sets[0].orbitals, bos_m2.sets[0].orbitals)
    assert np.array_equal(loaded.C, bos_m2.C)
    assert np.array_equal(loaded.mu, bos_m2.mu)
    assert np.array_equal(loaded.kernel_matrix, bos_m2.kernel_matrix)
    assert loaded.grids[0].weight == bos_m2.grids[0].weight


def test_residual_header_keeps_solver_counters(tmp_path, bos_m2, dist_44):
    for name, state in (("id", bos_m2), ("dist", dist_44)):
        path = tmp_path / f"{name}.ckpt"
        ckpt.save_state(path, state)
        loaded = ckpt.load_state(path).residuals
        for key in ("backtracks", "forced_accepts", "mixing_rejects",
                    "scaled_orb_residual"):
            assert loaded[key] == state.residuals[key]


def test_checkpoint_without_mixing_counter_loads(tmp_path, bos_m2, capsys):
    # checkpoints written before the Anderson mixing lack ``mixing_rejects``
    old = dataclasses.replace(bos_m2, residuals={
        k: v for k, v in bos_m2.residuals.items() if k != "mixing_rejects"})
    path = tmp_path / "old.ckpt"
    ckpt.save_state(path, old)
    loaded = ckpt.load_state(path)
    assert "mixing_rejects" not in loaded.residuals
    assert loaded.energy == bos_m2.energy
    cli._print_state_summary(loaded, "0")
    out = capsys.readouterr().out
    assert "backtracks = " in out and "mixing_rejects" not in out


def test_identical_double_roundtrip_is_stable(tmp_path, bos_m1):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    ckpt.save_state(p1, bos_m1)
    ckpt.save_state(p2, ckpt.load_state(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_distinguishable_roundtrip(tmp_path, dist_11):
    path = tmp_path / "dist.ckpt"
    ckpt.save_state(path, dist_11)
    loaded = ckpt.load_state(path)
    assert loaded.space.M_list == (1, 1)
    assert loaded.energy == dist_11.energy
    for a, b in zip(loaded.sets, dist_11.sets):
        assert np.array_equal(a.orbitals, b.orbitals)
    assert np.array_equal(loaded.C, dist_11.C)
    for a, b in zip(loaded.interaction.terms, dist_11.interaction.terms):
        assert a[0] == b[0] and a[1] == b[1]
        assert np.array_equal(a[2], b[2])


def test_array_blob_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "z": rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)),
        "r": rng.standard_normal(7),
        "i": np.arange(4, dtype=np.int64),
    }
    path = tmp_path / "blob.ckpt"
    ckpt.save_arrays(path, {"kind": "test"}, arrays)
    header, loaded = ckpt.load_arrays(path)
    assert header["kind"] == "test"
    for name, arr in arrays.items():
        assert np.array_equal(loaded[name], arr)
        assert loaded[name].dtype == arr.dtype



@pytest.mark.parametrize("header", [{"kind": "identical"}, {"nokind": 1}])
def test_bare_headers_are_corrupt(tmp_path, header):
    path = tmp_path / "bare.ckpt"
    ckpt.save_arrays(path, header, {})
    with pytest.raises(ValueError, match="^corrupt checkpoint: "):
        ckpt.load_state(path)


DROP = "<drop the array>"

# one entry of a written state checkpoint broken; the file keeps a valid
# CRC, so only the reading of its header and arrays can refuse it
BROKEN_ENTRIES = [
    ("bos_m1", "grid", "64 points"),
    ("bos_m1", "N", None),
    ("bos_m1", "M", 2.5),
    ("bos_m1", "energy", "low"),
    ("bos_m1", "residuals", {"orb_residual": "small"}),
    ("bos_m1", "residuals", 3),
    ("bos_m1", "C", DROP),
    ("bos_m1", "orbitals", DROP),
    ("dist_11", "M_list", None),
    ("dist_11", "grids", {"n_points": 48}),
    ("dist_11", "grids", []),
    ("dist_11", "orbitals_1", DROP),
]


@pytest.mark.parametrize("fixture, key, value", BROKEN_ENTRIES)
def test_missing_or_ill_typed_entries_are_corrupt(tmp_path, request, fixture,
                                                  key, value):
    path = tmp_path / "state.ckpt"
    ckpt.save_state(path, request.getfixturevalue(fixture))
    header, arrays = ckpt.load_arrays(path)
    del header["arrays"]
    if value == DROP:
        del arrays[key]
    else:
        header[key] = value
    ckpt.save_arrays(path, header, arrays)
    with pytest.raises(ValueError, match="^corrupt checkpoint: "):
        ckpt.load_state(path)


def _entries(path):
    """(header without its array directory, {name: (dtype, shape)}, arrays)."""
    header, arrays = ckpt.load_arrays(path)
    directory = {e["name"]: (e["dtype"], e["shape"])
                 for e in header.pop("arrays")}
    return header, directory, arrays


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_committed_checkpoint_survives_load_and_save(tmp_path, name):
    # the files were written before identical and distinguishable states
    # shared one type: every header entry and every array, by name, bit for
    # bit, survives loading and saving again; only the payload order may
    # differ
    again = tmp_path / "again.ckpt"
    ckpt.save_state(again, ckpt.load_state(DATA / f"{name}.ckpt"))
    h1, d1, a1 = _entries(DATA / f"{name}.ckpt")
    h2, d2, a2 = _entries(again)
    assert h1 == h2
    assert d1 == d2
    for key, arr in a1.items():
        assert arr.dtype == a2[key].dtype
        assert arr.tobytes() == a2[key].tobytes(), key


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_committed_checkpoint_reproduces_its_spectrum(tmp_path, capsys, name):
    code = cli.main(["linres", "--checkpoint", str(DATA / f"{name}.ckpt"),
                     "--config", str(DATA / f"{name}.cfg"),
                     "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    line = [l for l in out.splitlines() if l.startswith("lowest_excitations")]
    got = np.array(line[0].split("=")[1].split(), float)
    want = np.array(REFERENCE[name].split(), float)
    assert got.shape == want.shape == (8,)
    assert np.abs(got - want).max() < 1e-9
