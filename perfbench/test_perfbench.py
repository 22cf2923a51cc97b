"""Self-tests of the benchmark harness.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

import run

run.pin_threads()

import pytest  # noqa: E402

from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def program():
    return run.load_program()


def declared(kind):
    """{name: unit} of the metrics BENCHMARK.json declares under ``kind``."""
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in run.json.load(fh)[kind]}


def reported(res):
    return {name: unit for name, (_, unit) in res.metrics.items()}


def test_tracer_rebinds_every_alias_and_restores(program):
    _, _, modules = program
    import mclr
    originals = {
        (modules["hamiltonian"], "apply_second_quantized"):
            modules["fockspace"].apply_second_quantized,
        (modules["spectrum"], "sigma3"): modules["linres_identical"].sigma3,
        (modules["groundstate"], "discretize_kernel"):
            modules["grid"].discretize_kernel,
        (modules["cli"], "cmd_linres"): modules["cli"].cmd_linres,
        (mclr, "reduced_densities"): modules["fockspace"].reduced_densities,
    }
    tracer = Tracer(modules)
    with tracer:
        for (mod, attr), fn in originals.items():
            bound = getattr(mod, attr)
            assert bound is not fn and bound.__wrapped__ is fn
        assert modules["fockspace"].apply_second_quantized is getattr(
            modules["hamiltonian"], "apply_second_quantized")
    for (mod, attr), fn in originals.items():
        assert getattr(mod, attr) is fn


def test_traced_self_times_add_up_to_traced_commands(program):
    res = run.measure("trapped_pair", 0, 0.0, 1, program)
    assert not res.failed
    traced = next(r for r in res.reps if r.traced)
    _, parent, dur, self_t = res.tracer.arrays()
    lo, hi = traced.span_range
    roots = [i for i in range(lo, hi) if parent[i] < 0]
    assert len(roots) == 2            # mclr.cli.main for ground, then linres
    for root, end, command_s in zip(roots, (roots[1], hi),
                                    (traced.ground_s, traced.linres_s)):
        subtree = self_t[root:end].sum()
        assert subtree == pytest.approx(dur[root], rel=1e-9)
        assert subtree == pytest.approx(command_s, rel=1e-3, abs=1e-4)
    layers = sum(res.metrics[f"{layer}.s"][0] for layer in run.LAYERS)
    assert layers == pytest.approx(traced.spectrum_s, rel=1e-3, abs=2e-4)
    assert reported(res) == declared("per_layer")
    assert res.metrics["trace.ground_s"][0] == traced.ground_s
    assert res.metrics["fockspace.apply_second_quantized_calls"][0] > 0
    assert res.metrics["spectrum.lapack_eig_s"][0] > 0


def test_corrupted_reference_counts_as_failed_operation(program):
    with open(run.BENCH / "reference.json") as fh:
        reference = run.json.load(fh)["trapped_pair"]
    reference[2] += 1e-4
    res = run.measure("trapped_pair", 0, 0.0, 0, program, reference=reference)
    assert len(res.reps) >= 1
    assert len(res.failed) == len(res.reps)
    assert reported(res) == declared("end_to_end")
    assert "reference" in res.failed[0].problems[0]
    line = run.json.loads(run.result_line(len(res.reps), len(res.failed),
                                          res.metrics))
    assert line["correct"] is False and line["failed"] == len(res.reps)


def test_timings_are_scaled_by_the_matching_probe_part(program, monkeypatch):
    # a host on which core-bound work runs 2x and memory-bound work 4x slower
    # than the reference: ground reads half its wall time, linres a quarter
    class SlowHost(run.HostSpeed):
        def probe(self):
            self.samples.append((2 * run.REF_S[run.CORE],
                                 4 * run.REF_S[run.MEMORY]))

    monkeypatch.setattr(run, "HostSpeed", SlowHost)
    monkeypatch.setattr(run, "PROBE_PERIOD_S", 0.01)
    res = run.measure("trapped_pair", 0, 0.0, 0, program)
    assert not res.failed
    rep = res.reps[0]
    assert rep.scaled("ground_s") == pytest.approx(rep.ground_s / 2)
    assert rep.scaled("linres_s") == pytest.approx(rep.linres_s / 4)
    assert res.metrics["spectrum_s"][0] == pytest.approx(
        rep.ground_s / 2 + rep.linres_s / 4)
    assert res.samples["setup_s"] == res.wall["setup_s"]
    # probes ran during the commands, not only between them
    boundaries = 3 * run.BOUNDARY_PROBES
    assert len(res.probes) > boundaries


def test_declared_workloads_are_harness_workloads():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        workloads = run.json.load(fh)["workloads"]
    for w in workloads:
        assert w["why"] == run.WORKLOADS[w["name"]].why


def test_seed_draws_strength_near_nominal():
    path = run.WORK / "seed_test.cfg"
    path.parent.mkdir(exist_ok=True)
    nominal = run.make_config("coupled_pair", 0, path).strength
    assert nominal == 0.2
    drawn = {run.make_config("coupled_pair", s, path).strength
             for s in range(1, 6)}
    assert len(drawn) == 5
    assert all(abs(x / nominal - 1) <= run.STRENGTH_BAND for x in drawn)
    again = run.make_config("coupled_pair", 3, path).strength
    assert again in drawn
