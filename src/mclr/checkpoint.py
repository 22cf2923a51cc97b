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
from .groundstate import GroundState, _densities
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


def _grid(meta) -> Grid:
    return build_grid(meta["n_points"], meta["x_min"], meta["x_max"])


def _array_name(space, base: str, j: int) -> str:
    """Name of the array ``base`` of DOF j: bare for identical particles,
    with the suffix _j for distinguishable DOFs."""
    return base if space.identical else f"{base}_{j}"


def _interaction_entries(state):
    """(header entries, arrays) of the interaction: the kernel and its
    matrix for identical particles, the coupling for distinguishable DOFs."""
    it = state.interaction
    if state.space.identical:
        arrays = {"kernel_matrix": state.kernel_matrix}
        if it.kind == "general":
            arrays["kernel_table"] = it.table
        return {"kernel": {"kind": it.kind, "strength": it.strength,
                           "width": it.width}}, arrays
    if it is None:
        return {"coupling": {"type": "none"}}, {}
    if isinstance(it, PairCoupling):
        return ({"coupling": {"type": "pair",
                              "pairs": [[a, b] for a, b, _ in it.terms]}},
                {f"coupling_{i}": t for i, (_, _, t) in enumerate(it.terms)})
    if isinstance(it, AllBodyTable):
        return {"coupling": {"type": "table"}}, {"coupling_table": it.table}
    raise TypeError(f"cannot serialize coupling {type(it)!r}")


def save_state(path, state: GroundState) -> None:
    space = state.space
    if space.identical:
        header = {"kind": "identical", "N": space.N, "M": space.M,
                  "grid": _grid_meta(state.grids[0])}
    else:
        header = {"kind": "distinguishable", "M_list": list(space.M_list),
                  "grids": [_grid_meta(g) for g in state.grids]}
    entries, tables = _interaction_entries(state)
    header.update(entries, statistics=space.statistics, energy=state.energy,
                  residuals={k: v for k, v in state.residuals.items()
                             if not isinstance(v, (list, np.ndarray))})
    arrays = {}
    for j, (s, mu, h) in enumerate(zip(state.sets, state.mu, state.h_ops)):
        arrays[_array_name(space, "orbitals", j)] = s.orbitals
        arrays[_array_name(space, "mu", j)] = mu
        arrays[_array_name(space, "h_matrix", j)] = h.matrix
    arrays["C"] = state.C
    save_arrays(path, header, {**arrays, **tables})


def load_state(path) -> GroundState:
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


def _coupling(meta, arrays):
    if meta["type"] == "none":
        return None
    if meta["type"] == "pair":
        return PairCoupling([(a, b, arrays[f"coupling_{i}"])
                             for i, (a, b) in enumerate(meta["pairs"])])
    return AllBodyTable(arrays["coupling_table"])


def _state(header, arrays) -> GroundState:
    kind, kernel_matrix = header["kind"], None
    # a real problem written with complex128 arrays (all imaginary parts
    # zero) loads as the float64 problem it is: its response is then
    # assembled in real arithmetic, with the float64 checkpoint's rounding
    if not any(np.iscomplexobj(a) and np.any(a.imag) for a in arrays.values()):
        arrays = {k: a.real if np.iscomplexobj(a) else a
                  for k, a in arrays.items()}
    if kind == "identical":
        grids = [_grid(header["grid"])]
        space = fs.enumerate_configs(header["statistics"], N=header["N"],
                                     M=header["M"])
        k = header["kernel"]
        interaction = TwoBodyKernel(kind=k["kind"], strength=k["strength"],
                                    width=k["width"],
                                    table=arrays.get("kernel_table"))
        kernel_matrix = arrays["kernel_matrix"]
    elif kind == "distinguishable":
        grids = [_grid(g) for g in header["grids"]]
        space = fs.enumerate_configs("distinguishable", M_list=header["M_list"])
        if len(grids) != len(space.M_list):
            raise ValueError(f"{len(grids)} grids for {len(space.M_list)} DOFs")
        interaction = _coupling(header["coupling"], arrays)
    else:
        raise ValueError(f"unknown checkpoint kind {kind!r}")
    Q = range(len(grids))
    C = arrays["C"]
    rho1, rho2 = _densities(space, C)
    return GroundState(
        space=space, grids=grids,
        h_ops=[OneBodyOperator(arrays[_array_name(space, "h_matrix", j)],
                               hermitian=False) for j in Q],
        sets=[OrbitalSet(arrays[_array_name(space, "orbitals", j)], grids[j])
              for j in Q],
        C=C, rho1=rho1, mu=[arrays[_array_name(space, "mu", j)] for j in Q],
        interaction=interaction, rho2=rho2, kernel_matrix=kernel_matrix,
        energy=float(header["energy"]), residuals=_residuals(header))
