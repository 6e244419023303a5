"""Tests of the benchmark itself: seeded generators and tracer hygiene.

    python3 -m pytest perfbench/tests -q
"""
import json
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import gen  # noqa: E402
import lib  # noqa: E402
import tracing  # noqa: E402

lib.load()
import run  # noqa: E402
import workloads  # noqa: E402

GENERATORS = {
    "born": gen.born_cases,
    "atoms": gen.atom_clouds,
    "sweep": gen.sweep_specs,
    "cli": gen.cli_spec,
}


def same(a, b) -> bool:
    """Deep equality over the generators' plain-data outputs."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.shape == b.shape and np.array_equal(a, b))
    if is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_is_deterministic_per_seed(name):
    make = GENERATORS[name]
    assert same(make(7), make(7))
    assert not same(make(7), make(8))


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_seed_moves_values_not_sizes(name):
    def shape(x):
        if isinstance(x, np.ndarray):
            return x.shape
        if is_dataclass(x):
            return tuple(shape(getattr(x, f.name)) for f in fields(x)
                         if f.name != "drained")
        if isinstance(x, (list, tuple)):
            return tuple(shape(v) for v in x)
        if isinstance(x, dict):
            return tuple((k, shape(v)) for k, v in sorted(x.items()))
        return type(x).__name__
    make = GENERATORS[name]
    assert shape(make(1)) == shape(make(2))


def test_sweep_mix_fixes_the_atom_sizes():
    sizes = sorted(len(s.weights) for k, s in gen.sweep_specs(3)
                   if k == "atomic")
    assert sizes == sorted(list(gen.SWEEP_ATOM_SIZES) * 2)


def _attribute_slots():
    out = []
    for target in tracing.TARGETS:
        for owner_path, attr in target.where:
            owner = tracing.resolve(owner_path)
            out.append((owner, attr, vars(owner)[attr]))
    return out


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    before = _attribute_slots()
    bundle = workloads.build_cli(5, tmp_path)
    bundle.prepare()
    cases = [c for c in bundle.cases
             if c.key in ("check-all:abc", "protocol:ring16", "truth-table")]
    tracer = tracing.Tracer(tracing.TARGETS)
    failures = []
    plain, traced = run.drive_traced(cases, 0.0, failures, tracer)
    assert failures == [] and traced.rounds == plain.rounds == 2
    assert traced.round_counts[0] == traced.round_counts[1]
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"
    names = {s[0] for s in tracer.spans}
    assert {"cli.Scenario", "cli.canonical_json",
            "protocol.construct_protocol"} <= names


def test_install_replaces_every_attribute():
    before = _attribute_slots()
    tracer = tracing.Tracer(tracing.TARGETS)
    tracer.install()
    try:
        assert all(vars(o)[a] is not orig for o, a, orig in before)
    finally:
        tracer.uninstall()


def test_uninstall_restores_after_an_exception():
    before = _attribute_slots()
    tracer = tracing.Tracer(tracing.TARGETS)
    tracer.install()
    try:
        with pytest.raises(ValueError):
            lib.region.Region.from_boxes([((1.0,), (0.0,))])
    finally:
        tracer.uninstall()
    assert all(vars(o)[a] is orig for o, a, orig in before)
    assert tracer.spans[-1][0] == "region.from_boxes"


def test_recursive_function_gets_one_span_and_self_time_excludes_children():
    tracer = tracing.Tracer(tracing.TARGETS)
    tracer.install()
    try:
        lib.cli.canonical_json({"a": [1, {"b": [2.0, 3]}], "c": {"d": 4}})
        lib.conditions.evaluate_conditions(
            lib.conditions.make_abc_scenario(0.2, 1.0, 0.9))
    finally:
        tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    assert names.count("cli.canonical_json") == 1
    spans = tracer.spans
    for i, (name, net, parent) in enumerate(spans):
        children = sum(s[1] for s in spans if s[2] == i)
        assert children <= net + 1e-9
    selfs = tracer.self_times()
    total = sum(s[1] for s in spans if s[2] < 0)
    assert sum(selfs.values()) == pytest.approx(total)


def test_round_scales_each_time_by_the_host_samples_around_it(monkeypatch):
    samples = iter([1.0, 2.0, 4.0, 8.0, 3.0])
    monkeypatch.setattr(run.hostspeed, "kernel", lambda: next(samples))
    monkeypatch.setattr(run.hostspeed, "EVERY_S", 0.0)  # sample every time
    host = run.hostspeed.HostSpeed()                   # sample 1.0
    cases = [workloads.Case(k, lambda: None, lambda out: None) for k in "ab"]
    ph = run.Phase()
    run.run_round(cases, ph, [], host=host)  # 2.0, a, 4.0, b, then 8.0
    ref = run.hostspeed.REFERENCE_S
    # each time over the shorter sample beside it: a between 2 and 4, b
    # between 4 and 8
    assert ph.scaled == [ph.times[0] * ref / 2.0, ph.times[1] * ref / 4.0]


@pytest.mark.parametrize("per_round", [9, 11, 15, 600])
def test_tail_rank_keeps_ten_samples_beyond_and_stays_inside_one_case(
        per_round):
    p = run.tail_percentile(per_round)
    for rounds in (run.MIN_ROUNDS, run.MIN_ROUNDS + 1, 25):
        # each case costs its index, so each value is one case's group
        times = sorted(float(c) for c in range(per_round)
                       for _ in range(rounds))
        assert run.percentile(times, p).is_integer(), \
            "rank falls between two cases"
        distinct = [float(i) for i in range(len(times))]
        value = run.percentile(distinct, p)
        assert sum(t > value for t in distinct) >= run.TAIL_BEYOND
    higher = p + 100.0 / per_round
    if higher < 100.0:
        n = per_round * run.MIN_ROUNDS
        times = list(range(n))
        assert sum(t > run.percentile(times, higher) for t in times) < 10


def test_restore_undoes_a_fresh_load():
    snap = lib.snapshot()
    before = {name: getattr(lib, name) for name in lib.MODULES}
    lib.load()
    assert all(getattr(lib, n) is not m for n, m in before.items())
    lib.restore(snap)
    assert all(getattr(lib, n) is m for n, m in before.items())
    assert sys.modules["causal_lab.transport"] is before["transport"]


def test_per_layer_metrics_match_the_benchmark_file():
    spec = json.loads((lib.ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in spec["per_layer"]}
    reported = ({t.metric for t in tracing.TARGETS}
                | set(tracing.COUNT_METRICS) | {"trace.overhead"})
    assert listed == reported
