"""Time-to-spectrum benchmark for mclr.

One repetition runs the command-line path a user takes, in process:
``mclr ground`` on a generated config file, then ``mclr linres`` on the
checkpoint it wrote, ending with ``spectrum.csv`` and ``weights.csv``.  Every
repetition builds a fresh configuration space, so lazily built scatter tables
are paid each time, as they are by the command line.  Each repetition is then
checked (outside the timed region) and counts as one attempted operation.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload trapped_pair --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` interleaves
untraced repetitions with traced ones and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

End-to-end metrics: ``spectrum_s`` (config file to written spectrum, the sum
of ``ground_s`` and ``linres_s``), ``setup_s`` (a fresh interpreter imports
``mclr.cli`` and reads the config, as the command line does before each
command) and ``peak_rss_mb`` of the benchmark process.  Every timing is the
median over the repetitions of a run.  ``ground_s`` and ``linres_s`` are in
seconds at a reference host speed: each sample is scaled by a probe of the
host's speed timed around and during it (see ``HostSpeed``); ``setup_s`` is
in wall seconds.  The table printed above the JSON line gives the number of
samples, their range and their median in wall seconds.  ``--seconds`` bounds
the whole run, set-up samples included.  BLAS and OpenMP run on one thread.

Per-layer metrics come from one traced repetition, in wall seconds:
``<layer>.s`` is the self time of all traced functions of a module, ``*_s``
the self time of the named functions, ``*_calls`` a call count, plus the
sizes ``n_conf``, ``D`` and the iteration count.  ``trace.overhead_s`` is
traced minus untraced spectrum time.

``--seed`` draws the interaction strength from a band of +-2 % around the
nominal value (seed 0 is nominal); the low spectrum is compared with
``reference.json`` at seed 0 only, every other check holds for any seed.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import gc
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from math import comb, prod
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def pin_threads():
    """Run BLAS and OpenMP single-threaded; call before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


LAYERS = ("cli", "checkpoint", "grid", "fockspace", "hamiltonian",
          "groundstate", "linres_identical", "linres_distinguishable",
          "spectrum")

# acceptance thresholds of the response matrix (tests/test_acceptance.py)
SYMMETRY_TOL = 1e-9
PAIRING_TOL = 1e-8
# the low spectrum at seed 0 must match reference.json to this tolerance,
# which a ground state converged to tol_orb = 1e-8 supports
REFERENCE_TOL = 1e-6
# the interaction strength is drawn from nominal * (1 +- STRENGTH_BAND)
STRENGTH_BAND = 0.02
SETUP_SAMPLES = 5


@dataclass(frozen=True)
class Workload:
    base: str           # config file, relative to the checkout root
    why: str
    kohn_tol: float | None = None         # identical particles in a trap
    normal_mode_tol: float | None = None  # bilinearly coupled oscillators


WORKLOADS = {
    "trapped_pair": Workload(
        "configs/harmonic_n2_m2.cfg",
        "n_conf 3, D 262: fixed costs (orbital relaxation, checkpoint, CLI, "
        "small eig) dominate; fockspace or coupling speed-ups should not "
        "move it", kohn_tol=1e-6),
    # run by --workload all but not declared in BENCHMARK.json: in wall
    # seconds its interpreter-bound repetitions of 4 to 7 s swung most with
    # the load of neighbouring machines (median spread 0.2 to 0.35 over ten
    # runs on a shared 2-core host), and a third declared workload does not
    # fit the time limit of a full set of runs at this run length
    "boson_n5m4": Workload(
        "perfbench/boson_n5m4.cfg",
        "n_conf 56, D 368: the dense CI build (1923 apply_second_quantized "
        "calls) is most of ground_s; identical-particle speed-ups show here",
        kohn_tol=5e-4),
    "coupled_pair": Workload(
        "configs/coupled_pair_m44.cfg",
        "n_conf 16, D 800: mean_fields_dist/partial_coupling (251k calls) "
        "dominate ground_s and the dense D x D eigensolve linres_s",
        normal_mode_tol=1e-6),
}


# -- inputs -----------------------------------------------------------------

@dataclass
class Params:
    """What the checks need to know about a generated config."""
    strength: float
    trap_omega: float
    expected_zero_modes: int
    n_conf: int


def make_config(name: str, seed: int, path: Path) -> Params:
    """Write the workload config with a seeded interaction strength.

    Seed 0 keeps the nominal strength; any other seed draws it uniformly from
    a band of +-STRENGTH_BAND around it.
    """
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(ROOT / WORKLOADS[name].base) as fh:
        cfg.read_file(fh)
    nominal = cfg.getfloat("interaction", "strength")
    factor = 1.0
    if seed != 0:
        factor += STRENGTH_BAND * (2.0 * random.Random(seed).random() - 1.0)
    strength = nominal * factor
    cfg.set("interaction", "strength", repr(strength))
    with open(path, "w") as fh:
        cfg.write(fh)

    kind = cfg.get("system", "statistics")
    if kind == "dist":
        M_list = [int(t) for t in cfg.get("system", "orbitals").split(",")]
        zero = 2 * (sum(m * m for m in M_list) + 1)
        n_conf = prod(M_list)
    else:
        N, M = cfg.getint("system", "particles"), cfg.getint("system", "orbitals")
        zero = 2 * (M * M + 1)
        n_conf = comb(N + M - 1, N) if kind == "boson" else comb(M, N)
    return Params(strength=strength,
                  trap_omega=cfg.getfloat("trap", "omega", fallback=1.0),
                  expected_zero_modes=zero, n_conf=n_conf)


# -- one repetition ----------------------------------------------------------

@dataclass
class Rep:
    ground_s: float
    linres_s: float
    codes: tuple
    stdout: str
    traced: bool = False
    span_range: tuple = (0, 0)
    ckpt_bytes: int = 0
    problems: list = field(default_factory=list)
    # wall seconds -> seconds at the reference host speed, per command
    ground_scale: float = 1.0
    linres_scale: float = 1.0

    @property
    def spectrum_s(self) -> float:
        return self.ground_s + self.linres_s

    def scaled(self, key: str) -> float:
        ground = self.ground_s * self.ground_scale
        linres = self.linres_s * self.linres_scale
        return {"ground_s": ground, "linres_s": linres,
                "spectrum_s": ground + linres}[key]


def _call(cli, argv):
    try:
        return cli.main(argv)
    except Exception as exc:  # a crash is a failed operation, not a stop
        return f"{type(exc).__name__}: {exc}"


def _timed(cli, argv, host, part):
    """Run one command; return its exit code, its wall seconds and the factor
    to seconds at the reference host speed (1 without ``host``)."""
    if host is None:
        t0 = time.perf_counter()
        rc = _call(cli, argv)
        return rc, time.perf_counter() - t0, 1.0
    lo = len(host.samples) - BOUNDARY_PROBES
    with host.sampling() as probes:
        t0 = time.perf_counter()
        rc = _call(cli, argv)
        t1 = time.perf_counter()
    wall = t1 - t0 - sum(dt for t, dt in probes if t < t1)
    host.boundary()
    return rc, wall, host.factor(lo, len(host.samples), part)


def run_spectrum(cli, cfg_path: Path, run_dir: Path, host=None) -> Rep:
    """Config file to spectrum.csv through the command-line entry point.

    With ``host`` each command's host speed is probed around and during it.
    """
    ckpt, out = run_dir / "ground.ckpt", run_dir / "out"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        if host is not None:
            host.boundary()
        rc_ground, ground_s, ground_scale = _timed(
            cli, ["ground", "--config", str(cfg_path), "--checkpoint",
                  str(ckpt)], host, CORE)
        rc_linres, linres_s, linres_scale = None, 0.0, 1.0
        if rc_ground == 0:
            rc_linres, linres_s, linres_scale = _timed(
                cli, ["linres", "--checkpoint", str(ckpt), "--config",
                      str(cfg_path), "--out-dir", str(out)], host, MEMORY)
    return Rep(ground_s=ground_s, linres_s=linres_s,
               codes=(rc_ground, rc_linres), stdout=buf.getvalue(),
               ground_scale=ground_scale, linres_scale=linres_scale)


def _key_values(text):
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh
                                   if not line.startswith("#")))


def check_rep(name, params, rep, run_dir, reference, oracle):
    """Every failed check of one repetition, as a list of messages."""
    if rep.codes != (0, 0):
        return [f"exit codes {rep.codes}: {rep.stdout.strip()[-300:]}"]
    problems = []
    log = _key_values(rep.stdout)
    spectrum = _read_csv(run_dir / "out" / "spectrum.csv")
    weights = _read_csv(run_dir / "out" / "weights.csv")

    zero = sum(int(r["is_zero_mode"]) for r in spectrum)
    if zero != params.expected_zero_modes:
        problems.append(f"zero-mode census {zero}, expected "
                        f"{params.expected_zero_modes}")
    for key, limit in (("symmetry_defect_sigma1", SYMMETRY_TOL),
                       ("symmetry_defect_sigma3", SYMMETRY_TOL),
                       ("pairing_residual", PAIRING_TOL)):
        if not float(log.get(key, "nan")) < limit:
            problems.append(f"{key} = {log.get(key)} not below {limit:g}")

    omega = sorted(float(r["omega"]) for r in weights)
    wl = WORKLOADS[name]
    if wl.kohn_tol is not None:
        dipole = max(weights, key=lambda r: float(r["abs_gamma_plus"]))
        kohn = float(dipole["omega"])
        if not abs(kohn - params.trap_omega) < wl.kohn_tol:
            problems.append(f"Kohn mode at {kohn!r}, trap frequency "
                            f"{params.trap_omega!r}")
    if wl.normal_mode_tol is not None:
        ref = oracle.coupled_oscillators_reference(params.strength)
        diff = max(abs(a - b) for a, b in zip(omega[:2], ref))
        if not (len(omega) >= 2 and diff < wl.normal_mode_tol):
            problems.append(f"normal modes {omega[:2]} vs closed form "
                            f"{list(ref)}")
    if reference is not None:
        diff = max((abs(a - b) for a, b in zip(omega, reference)),
                   default=float("inf"))
        if len(omega) < len(reference) or not diff < REFERENCE_TOL:
            problems.append(f"low spectrum differs from the reference by "
                            f"{diff:.3e}")
    return problems


# -- program, set-up and environment ------------------------------------------

def load_program():
    """Import mclr from this checkout's sources (and nowhere else)."""
    if not (SRC / "mclr" / "cli.py").is_file():
        raise FileNotFoundError(f"no mclr sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mclr
    from mclr import cli, oracle
    if Path(mclr.__file__).resolve().parent != SRC / "mclr":
        raise ImportError(f"mclr imported from {mclr.__file__}, not {SRC}")
    modules = {layer: sys.modules[f"mclr.{layer}"] for layer in LAYERS}
    return cli, oracle, modules


# -- host speed -------------------------------------------------------------
#
# On a shared host the speed of a core swings by up to 2x with the
# neighbours' load, flipping between fast and slow within seconds and staying
# slow for minutes at a time.  CPU time equals wall time, so this is not
# descheduling but a slower core.  How much a piece of work slows depends on
# its kind: ``ground`` slows with the core, while ``linres`` on large
# matrices also slows with the neighbours' use of the shared caches and
# memory, which a small eigensolve does not feel.
#
# ``ground_s`` and ``linres_s`` are therefore scaled to a reference host
# speed.  A small fixed probe, which does not touch mclr, runs on the same CPU
# (``pin_to_current_cpu``) between the commands and, from a SIGALRM handler,
# every PROBE_PERIOD_S while a command runs.  The probes' own time is taken
# out of the command's wall time, and the command is reported as
#     wall * REF_S / mean(probe times around and during it)
# with the probe part that matches the work: for ``ground`` (CORE) loops of
# small numpy calls and dict updates, for ``linres`` (MEMORY) a matrix product
# and a reduction over arrays larger than a core's caches.  REF_S sets the
# unit: on the 2-core host where the benchmark was defined, the core part's
# median over a stretch in the fast state, and for the memory part, seen only
# in slow stretches, a value just under its lowest readings.  Scaled seconds
# are thus close to wall seconds on a fast core.

CORE, MEMORY = 0, 1
REF_S = (0.006, 0.007)
PROBE_PERIOD_S = 0.25
BOUNDARY_PROBES = 2


class HostSpeed:
    """Times a small fixed probe whose duration measures the host's speed."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._np = np
        self._vec = rng.standard_normal(64)
        self._small = rng.standard_normal((8, 8))
        self._matrix = rng.standard_normal((400, 400))
        self._stream = rng.standard_normal(512 * 1024)
        self.samples = []       # (core, memory) seconds per probe
        self.boundary()         # warm caches and code paths
        self.samples.clear()

    def probe(self):
        np = self._np
        t0 = time.perf_counter()
        x, small, acc = self._vec.copy(), self._small, 0.0
        for i in range(800):
            x = 0.999 * x + 1e-3 * np.tanh(x)
            acc += float(x @ x) + float(small[i % 8] @ x[:8])
        table = {}
        for i in range(12000):
            table[i % 97] = table.get(i % 97, 0) + i * i % 7
        t1 = time.perf_counter()
        self._matrix @ self._matrix
        for _ in range(20):
            self._stream.sum()
        self.samples.append((t1 - t0, time.perf_counter() - t1))

    def boundary(self):
        """Probe between two timed pieces of work."""
        for _ in range(BOUNDARY_PROBES):
            self.probe()

    @contextlib.contextmanager
    def sampling(self):
        """Probe every PROBE_PERIOD_S while the body runs; yields the list of
        (start, seconds) of those probes."""
        probes = []

        def on_alarm(signum, frame):
            t0 = time.perf_counter()
            self.probe()
            probes.append((t0, time.perf_counter() - t0))

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield probes
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, lo, hi, part):
        """Wall seconds -> seconds at the reference host speed, for work
        during which probes ``samples[lo:hi]`` ran."""
        return REF_S[part] / statistics.fmean(
            sample[part] for sample in self.samples[lo:hi])


SETUP_CODE = """\
import configparser, sys
sys.path.insert(0, sys.argv[1])
import mclr.cli
configparser.ConfigParser(inline_comment_prefixes=("#", ";")).read(sys.argv[2])
"""


def measure_setup(cfg_path: Path, samples: int):
    """Wall time of fresh interpreters that import mclr.cli and read the config.

    Not scaled to the reference host speed: start-up is mostly the kernel
    mapping files and the interpreter unmarshalling modules, which the host
    speed probe tracks worse than the spread of the raw times.
    """
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC),
                        str(cfg_path)], check=True, cwd=ROOT, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def pin_to_current_cpu():
    """Keep this process and the ones it starts on the CPU it runs on now, so
    that the host speed probe and the work it scales share one core."""
    try:
        import ctypes
        cpu = ctypes.CDLL(None).sched_getcpu()
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError):
        return None
    return cpu


def environment(cpu):
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "pinned_cpu": cpu,
            "threads": int(os.environ["OMP_NUM_THREADS"]),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas}


# -- metrics -----------------------------------------------------------------

# per-layer metrics: name -> span names whose self times add up to it; a
# function that no longer exists counts 0, its time stays in ``<layer>.s``
SELF_GROUPS = {
    "fockspace.apply_second_quantized_s": ["fockspace.apply_second_quantized"],
    "fockspace.reduced_densities_s": ["fockspace.reduced_densities"],
    "fockspace.dist_reduced_density_s": ["fockspace.dist_reduced_density"],
    "hamiltonian.hamiltonian_matrix_s": ["hamiltonian.hamiltonian_matrix"],
    "hamiltonian.mean_fields_dist_s": ["hamiltonian.mean_fields_dist"],
    "hamiltonian.partial_coupling_s": ["hamiltonian.partial_coupling"],
    "hamiltonian.config_coupling_matrix_s":
        ["hamiltonian.config_coupling_matrix"],
    "hamiltonian.local_potentials_s": ["hamiltonian.local_potentials"],
    "hamiltonian.two_body_tensor_s": ["hamiltonian.two_body_tensor"],
    "groundstate.orbital_eom_rhs_s": ["groundstate.orbital_eom_rhs"],
    "groundstate.solve_self_s": ["groundstate.solve_mchx",
                                 "groundstate.solve_mch_dist"],
    "spectrum.lapack_eig_s": ["spectrum.lapack_eig"],
    "spectrum.eigensolve_self_s": ["spectrum.eigensolve"],
    "spectrum.classify_zero_modes_s": ["spectrum.classify_zero_modes"],
    "spectrum.weights_reconstruct_s": ["spectrum.response_weights",
                                       "spectrum.reconstruct"],
    "spectrum.write_s": ["spectrum.save_spectrum_csv", "spectrum.spectrum_rows",
                         "spectrum.save_reconstruction"],
    "linres_identical.blocks_s": ["linres_identical.build_oo_block",
                                  "linres_identical.build_oc_co_blocks",
                                  "linres_identical.build_cc_block"],
    "linres_identical.projector_metric_s": [
        "linres_identical.combined_projector", "linres_identical.metric_powers"],
    "linres_identical.assemble_self_s": ["linres_identical.assemble_L"],
    "linres_identical.zero_modes_s": ["linres_identical.zero_mode_vectors"],
    "linres_identical.build_R_s": ["linres_identical.build_R"],
    "linres_distinguishable.blocks_s": [
        "linres_distinguishable.build_oo_dist",
        "linres_distinguishable.build_oc_co_cc_dist"],
    "linres_distinguishable.projector_metric_s": [
        "linres_distinguishable.combined_projector_dist",
        "linres_distinguishable.metric_powers_dist"],
    "linres_distinguishable.assemble_self_s": [
        "linres_distinguishable.assemble_L_dist"],
    "linres_distinguishable.zero_modes_s": [
        "linres_distinguishable.zero_mode_vectors_dist"],
    "linres_distinguishable.build_R_s": ["linres_distinguishable.build_R_dist"],
    "cli.ground_self_s": ["cli.cmd_ground"],
    "cli.linres_self_s": ["cli.cmd_linres"],
}
# per-layer metrics from the inclusive time of one function: a checkpoint
# write or read, with the encoding and the objects it builds
TOTALS = {"checkpoint.save_state_s": "checkpoint.save_state",
          "checkpoint.load_state_s": "checkpoint.load_state"}
# dense LAPACK eigensolvers called by the spectrum module through ``sla``
LAPACK = {"eig": "spectrum.lapack_eig", "eigh": "spectrum.lapack_eig"}
CALL_COUNTS = ("fockspace.apply_second_quantized",
               "hamiltonian.hamiltonian_matrix", "hamiltonian.mean_fields_dist",
               "hamiltonian.partial_coupling", "hamiltonian.local_potentials",
               "groundstate.orbital_eom_rhs")


def layer_metrics(self_s, total, calls):
    """Per-layer metrics of one traced repetition from its span aggregates."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.s"] = (sum(v for k, v in self_s.items()
                                 if k.startswith(layer + ".")), "s")
    for metric, spans in SELF_GROUPS.items():
        out[metric] = (sum(self_s.get(s, 0.0) for s in spans), "s")
    for metric, span in TOTALS.items():
        out[metric] = (total.get(span, 0.0), "s")
    for span in CALL_COUNTS:
        out[f"{span}_calls"] = (int(calls.get(span, 0)), "count")
    return out


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_table(res):
    """One line per metric; a timing also shows its sample count and range,
    and its median in wall seconds."""
    for part, label in ((CORE, "core"), (MEMORY, "memory")):
        probe = [p[part] for p in res.probes]
        print(f"# host probe, {label} part: median "
              f"{statistics.median(probe):.4g} s of {len(probe)}, range "
              f"{min(probe):.4g} to {max(probe):.4g} (reference {REF_S[part]} s)")
    for name, (value, unit) in res.metrics.items():
        extra = ""
        if name in res.samples:
            values = res.samples[name]
            extra = (f"  (median of {len(values)}, range "
                     f"{min(values):.6g} to {max(values):.6g}; wall median "
                     f"{statistics.median(res.wall[name]):.6g})")
        print(f"# {name:42s} {_fmt(value):>12s} {unit}{extra}")


def result_line(attempted, failed, metrics):
    return json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


# -- a run -------------------------------------------------------------------

@dataclass
class Result:
    reps: list
    metrics: dict       # name -> (value, unit)
    samples: dict       # timing name -> every scaled sample behind it
    wall: dict          # timing name -> the same samples in wall seconds
    probes: list        # (core, memory) seconds of every probe
    sizes: dict
    tracer: object

    @property
    def failed(self):
        return [r for r in self.reps if r.problems]


def measure(name, seed, seconds, trace, program=None, reference=None):
    """Repeat the workload for about ``seconds`` and collect its metrics.

    ``reference`` replaces the recorded low spectrum (checked at seed 0 only).
    """
    from tracer import Tracer

    cli, oracle, modules = program or load_program()
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg_path = work / f"{name}.cfg"
    params = make_config(name, seed, cfg_path)
    if seed != 0:
        reference = None
    elif reference is None:
        with open(BENCH / "reference.json") as fh:
            reference = json.load(fh)[name]

    host = HostSpeed()
    start = time.perf_counter()
    setup = [] if trace else measure_setup(cfg_path, SETUP_SAMPLES)
    tracer = Tracer(modules, foreign=[(modules["spectrum"], "sla", LAPACK)])
    reps = []
    loop_start = time.perf_counter()
    while True:
        traced = bool(trace) and len(reps) % 2 == 1
        run_dir = work / "run"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir()
        gc.collect()
        lo = tracer.n_spans
        if traced:
            with tracer:
                rep = run_spectrum(cli, cfg_path, run_dir)
        else:
            rep = run_spectrum(cli, cfg_path, run_dir, host)
        rep.traced, rep.span_range = traced, (lo, tracer.n_spans)
        try:
            if rep.codes[0] == 0:
                rep.ckpt_bytes = (run_dir / "ground.ckpt").stat().st_size
            rep.problems = check_rep(name, params, rep, run_dir, reference,
                                     oracle)
        except (OSError, KeyError, ValueError) as exc:  # missing or bad output
            rep.problems = [f"unreadable output: {exc!r}"]
        reps.append(rep)
        now = time.perf_counter()
        n_traced = sum(r.traced for r in reps)
        enough = not trace or 0 < n_traced < len(reps)
        if enough and now + (now - loop_start) / len(reps) > start + seconds:
            break

    plain = [r for r in reps if not r.traced]
    keys = ("spectrum_s", "ground_s", "linres_s")
    wall = {key: [getattr(r, key) for r in plain] for key in keys}
    samples = {key: [r.scaled(key) for r in plain] for key in keys}
    last = _key_values(reps[-1].stdout)
    sizes = {"n_conf": params.n_conf, "D": int(last.get("dimension", 0)),
             "iterations": int(last.get("iterations", 0))}
    result = Result(reps, {}, samples, wall, host.samples, sizes, tracer)
    if not trace:
        wall["setup_s"] = setup
        samples["setup_s"] = setup
        result.metrics = {k: (statistics.median(v), "s")
                          for k, v in samples.items()}
        result.metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        return result

    # the layer metrics come from one whole traced repetition, the median
    # one, so that they add up to its ground and linres times
    traced_reps = sorted((r for r in reps if r.traced),
                         key=lambda r: r.spectrum_s)
    typical = traced_reps[(len(traced_reps) - 1) // 2]
    metrics = layer_metrics(*tracer.aggregate(*typical.span_range))
    metrics["fockspace.n_conf"] = (sizes["n_conf"], "count")
    metrics["groundstate.iterations"] = (sizes["iterations"], "count")
    metrics["spectrum.D"] = (sizes["D"], "count")
    metrics["checkpoint.bytes"] = (typical.ckpt_bytes, "B")
    metrics["trace.ground_s"] = (typical.ground_s, "s")
    metrics["trace.linres_s"] = (typical.linres_s, "s")
    metrics["trace.overhead_s"] = (
        typical.spectrum_s - statistics.median(wall["spectrum_s"]), "s")
    tracer.save(work / "spans.npz")
    result.metrics = metrics
    return result


def run_all(args):
    """Run every workload in its own process and print one combined table."""
    attempted = failed = 0
    combined = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return 2
        print(f"## {name}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        attempted += res["attempted"]
        failed += res["failed"]
        for key, m in res["metrics"].items():
            combined[f"{name}/{key}"] = (m["value"], m["unit"])
    print(result_line(attempted, failed, combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        program = load_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("# env " + json.dumps(environment(pin_to_current_cpu())))
    res = measure(args.workload, args.seed, args.seconds, args.trace, program)
    print(f"# workload {args.workload} seed {args.seed} sizes "
          + json.dumps(res.sizes))
    for r in res.failed:
        print("# failed: " + "; ".join(r.problems))
    print_table(res)
    print(result_line(len(res.reps), len(res.failed), res.metrics))
    return 0


if __name__ == "__main__":
    pin_threads()
    sys.exit(main())
