"""Binary state checkpoints: JSON header plus raw little-endian arrays.

Layout: 8-byte magic, u32 format version, u64 header length, u32 CRC-32 of
everything that follows, UTF-8 JSON header, then the concatenated array
payload.  The header carries scalar metadata and an array directory (name,
dtype, shape, byte offset).  Arrays round-trip bit-exactly.  A truncated or
modified file, and a state checkpoint with a header entry missing or of the
wrong type or with an array missing, is refused with
``ValueError("corrupt checkpoint: ...")``.
"""

from __future__ import annotations

import json
import struct
import zlib
from math import prod

import numpy as np

from . import fockspace as fs
from .grid import Grid, OneBodyOperator, TwoBodyKernel, build_grid
from .groundstate import DistGroundState, GroundState
from .hamiltonian import AllBodyTable, OrbitalSet, PairCoupling

MAGIC = b"MCLRCKPT"
VERSION = 2
_FIXED = struct.Struct("<IQI")      # version, header length, CRC-32

__all__ = ["save_state", "load_state", "save_arrays", "load_arrays"]


def _encode(header: dict, arrays: dict) -> bytes:
    directory = []
    payload = b""
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        dtype = arr.dtype.newbyteorder("<")
        raw = arr.astype(dtype, copy=False).tobytes()
        directory.append({"name": name, "dtype": dtype.str,
                          "shape": list(arr.shape), "offset": len(payload)})
        payload += raw
    header = dict(header)
    header["arrays"] = directory
    body = json.dumps(header, sort_keys=True).encode() + payload
    hlen = len(body) - len(payload)
    return MAGIC + _FIXED.pack(VERSION, hlen, zlib.crc32(body)) + body


def _corrupt(why: str) -> ValueError:
    return ValueError(f"corrupt checkpoint: {why}")


def _directory_entry(entry, payload_size: int):
    """(name, dtype, shape, offset, byte size) of an entry that fits."""
    try:
        name, shape, offset = entry["name"], entry["shape"], entry["offset"]
        dt = np.dtype(entry["dtype"])
    except (KeyError, TypeError, ValueError):
        raise _corrupt(f"bad array directory entry {entry!r}") from None
    if not (isinstance(name, str) and dt.kind in "biufc"
            and isinstance(shape, list)
            and all(isinstance(n, int) and n >= 0 for n in shape)
            and isinstance(offset, int) and offset >= 0):
        raise _corrupt(f"bad array directory entry {entry!r}")
    size = dt.itemsize * prod(shape)
    if offset + size > payload_size:
        raise _corrupt(f"array {name!r} runs past the end of the payload")
    return name, dt, shape, offset, size


def _decode(data: bytes):
    start = len(MAGIC) + _FIXED.size
    if len(data) < start or data[:len(MAGIC)] != MAGIC:
        raise _corrupt("missing or damaged fixed header")
    version, hlen, crc = _FIXED.unpack_from(data, len(MAGIC))
    if version != VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    body = data[start:]
    if hlen > len(body):
        raise _corrupt(f"header length {hlen} exceeds the {len(body)} bytes "
                       "after the fixed header")
    if zlib.crc32(body) != crc:
        raise _corrupt("checksum mismatch (truncated or modified file)")
    try:
        header = json.loads(body[:hlen].decode())
    except ValueError as exc:       # also UnicodeDecodeError, JSONDecodeError
        raise _corrupt(f"header is not valid JSON ({exc})") from None
    if not isinstance(header, dict) or not isinstance(header.get("arrays"), list):
        raise _corrupt("header has no array directory")
    payload = body[hlen:]
    arrays = {}
    for entry in header["arrays"]:
        name, dt, shape, offset, size = _directory_entry(entry, len(payload))
        arr = np.frombuffer(payload[offset:offset + size], dtype=dt)
        arrays[name] = arr.reshape(shape).copy()
    return header, arrays


def save_arrays(path, header: dict, arrays: dict) -> None:
    with open(path, "wb") as fh:
        fh.write(_encode(header, arrays))


def load_arrays(path):
    with open(path, "rb") as fh:
        return _decode(fh.read())


def _grid_meta(grid: Grid) -> dict:
    return {"n_points": grid.n_points, "x_min": grid.x_min, "x_max": grid.x_max}


def save_state(path, state) -> None:
    if isinstance(state, GroundState):
        header = {
            "kind": "identical",
            "statistics": state.space.statistics,
            "N": state.space.N,
            "M": state.space.M,
            "grid": _grid_meta(state.grid),
            "energy": state.energy,
            "residuals": {k: v for k, v in state.residuals.items()
                          if not isinstance(v, (list, np.ndarray))},
            "kernel": {"kind": state.kernel.kind,
                       "strength": state.kernel.strength,
                       "width": state.kernel.width},
        }
        arrays = {
            "orbitals": state.orbitals.orbitals,
            "C": state.C,
            "mu": state.mu,
            "h_matrix": state.h_op.matrix,
            "kernel_matrix": state.kernel_matrix,
        }
        if state.kernel.kind == "general":
            arrays["kernel_table"] = state.kernel.table
        save_arrays(path, header, arrays)
        return
    if isinstance(state, DistGroundState):
        coupling = state.coupling
        if coupling is None:
            cmeta = {"type": "none"}
            ctables = {}
        elif isinstance(coupling, PairCoupling):
            cmeta = {"type": "pair",
                     "pairs": [[a, b] for a, b, _ in coupling.terms]}
            ctables = {f"coupling_{i}": t for i, (_, _, t) in
                       enumerate(coupling.terms)}
        elif isinstance(coupling, AllBodyTable):
            cmeta = {"type": "table"}
            ctables = {"coupling_table": coupling.table}
        else:
            raise TypeError(f"cannot serialize coupling {type(coupling)!r}")
        header = {
            "kind": "distinguishable",
            "statistics": "distinguishable",
            "M_list": list(state.space.M_list),
            "grids": [_grid_meta(g) for g in state.grids],
            "energy": state.energy,
            "residuals": {k: v for k, v in state.residuals.items()
                          if not isinstance(v, (list, np.ndarray))},
            "coupling": cmeta,
        }
        arrays = {}
        for j, s in enumerate(state.sets):
            arrays[f"orbitals_{j}"] = s.orbitals
            arrays[f"mu_{j}"] = state.mu[j]
            arrays[f"h_matrix_{j}"] = state.h_ops[j].matrix
        arrays["C"] = state.C
        arrays.update(ctables)
        save_arrays(path, header, arrays)
        return
    raise TypeError(f"cannot serialize {type(state)!r}")


def load_state(path):
    """The ground state of a checkpoint.  A header entry that is missing or
    of the wrong type, or a missing array, is refused as a corrupt file."""
    header, arrays = load_arrays(path)
    try:
        return _state(header, arrays)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise _corrupt(f"missing or ill-typed entry ({type(exc).__name__}: "
                       f"{exc})") from None


def _residuals(header) -> dict:
    res = dict(header["residuals"])
    if not all(isinstance(v, (int, float)) for v in res.values()):
        raise TypeError(f"residuals {res!r} are not all numbers")
    return res


def _state(header, arrays):
    if header["kind"] == "identical":
        g = header["grid"]
        grid = build_grid(g["n_points"], g["x_min"], g["x_max"])
        N, M = header["N"], header["M"]
        if not (isinstance(N, int) and isinstance(M, int)):
            raise TypeError(f"N = {N!r} and M = {M!r} must be integers")
        space = fs.enumerate_configs(header["statistics"], N=N, M=M)
        kmeta = header["kernel"]
        kernel = TwoBodyKernel(kind=kmeta["kind"], strength=kmeta["strength"],
                               width=kmeta["width"],
                               table=arrays.get("kernel_table"))
        orbs = OrbitalSet(arrays["orbitals"], grid)
        C = arrays["C"]
        state = GroundState(
            space=space, grid=grid,
            h_op=OneBodyOperator(arrays["h_matrix"], hermitian=False),
            kernel=kernel, kernel_matrix=arrays["kernel_matrix"],
            orbitals=orbs, C=C, rho=fs.reduced_densities(space, C),
            mu=arrays["mu"], energy=float(header["energy"]),
            residuals=_residuals(header))
        return state
    if header["kind"] == "distinguishable":
        grids = [build_grid(g["n_points"], g["x_min"], g["x_max"])
                 for g in header["grids"]]
        space = fs.enumerate_configs("distinguishable",
                                     M_list=header["M_list"])
        Q = len(grids)
        if Q != len(space.M_list):
            raise ValueError(f"{Q} grids for {len(space.M_list)} DOFs")
        sets = [OrbitalSet(arrays[f"orbitals_{j}"], grids[j]) for j in range(Q)]
        h_ops = [OneBodyOperator(arrays[f"h_matrix_{j}"], hermitian=False)
                 for j in range(Q)]
        mu = [arrays[f"mu_{j}"] for j in range(Q)]
        cmeta = header["coupling"]
        if cmeta["type"] == "none":
            coupling = None
        elif cmeta["type"] == "pair":
            coupling = PairCoupling([(a, b, arrays[f"coupling_{i}"])
                                     for i, (a, b) in enumerate(cmeta["pairs"])])
        else:
            coupling = AllBodyTable(arrays["coupling_table"])
        C = arrays["C"]
        rho1 = [fs.dist_reduced_density(space, C, (j,)) for j in range(Q)]
        return DistGroundState(space=space, grids=grids, h_ops=h_ops,
                               coupling=coupling, sets=sets, C=C, rho1=rho1,
                               mu=mu, energy=float(header["energy"]),
                               residuals=_residuals(header))
    raise ValueError(f"unknown checkpoint kind {header['kind']!r}")
