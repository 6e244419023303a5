"""The four benchmark workloads: inputs, operations and references.

A workload builds a list of `Case`s from a seed.  `Case.run` is one
operation: it calls into `causal_lab` through module attributes (never
through names bound here), so the traced run can wrap exactly the
functions other modules call through.  `Case.check` compares one output
with the case's reference and returns a reason when they disagree; the
runner calls it only after the timed interval.  References that do not
depend on the output are computed in `Bundle.prepare`, which the runner
also calls outside the timed interval.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import gen
import lib

REL_TOL = 1e-9


@dataclass
class Case:
    key: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    # public-data work counts read from one output (traced run only)
    counts: Callable[[object], dict[str, int]] | None = None


@dataclass
class Bundle:
    cases: list[Case]
    prepare: Callable[[], None]
    notes: dict = field(default_factory=dict)


def _close(a, b) -> bool:
    a, b = float(a), float(b)
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + 1e-15


class _Seen:
    """First output per case; later outputs must repeat it exactly."""

    def __init__(self, summarize: Callable[[object], object]):
        self._summarize = summarize
        self._first: dict[str, object] = {}

    def repeats(self, key: str, out) -> bool:
        s = self._summarize(out)
        return self._first.setdefault(key, s) == s


def _verdict_summary(v):
    boxes = None if v.worst_set is None else v.worst_set.boxes
    return (v.holds, v.deficit, v.method, boxes)


class _DeficitOracle:
    """recompute_deficit on every distinct worst set, cached by its boxes."""

    def __init__(self):
        self._memo: dict = {}

    def agrees(self, mu, nu, cs, verdict) -> bool:
        key = (id(mu), verdict.worst_set.boxes)
        if key not in self._memo:
            self._memo[key] = lib.transport.recompute_deficit(
                mu, nu, verdict.worst_set, cs)
        return _close(self._memo[key], verdict.deficit)


# -- born_grid_1d -------------------------------------------------------------


def build_born(seed: int, workdir: Path) -> Bundle:
    q, rg = lib.quantum, lib.region
    cs = lib.spacetime.CausalStructure(dim=1, c=1.0)
    packets = {}
    cases = []
    seen = _Seen(_verdict_summary)
    oracle = _DeficitOracle()
    refs: dict[str, tuple] = {}
    inputs = []

    for spec in gen.born_cases(seed):
        cell = 2 * gen.BORN_HALF_SPAN / spec.n
        key_p = (spec.n, spec.x0)
        if key_p not in packets:
            packets[key_p] = q.gaussian_packet(
                1.0, x0=spec.x0, origin=-gen.BORN_HALF_SPAN, cell_size=cell,
                n=spec.n)
        psi0 = packets[key_p]
        region = (None if spec.ell is None else
                  rg.Region.interval(spec.x0 - spec.ell, spec.x0 + spec.ell))
        label = (f"n{spec.n}-full" if spec.ell is None
                 else f"n{spec.n}-ell{spec.ell / gen.ELL_STAR:.3f}")

        def run(psi0=psi0, region=region):
            nu = lib.quantum.born_measure(
                lib.quantum.evolve_schrodinger_free(psi0, 1.0), 1.0)
            mu = lib.quantum.born_measure(psi0, 0.0)
            if region is not None:
                mu = mu.restricted(region)
            return lib.transport.check_ce_maxflow(mu, nu, cs)

        # the whole support contains intervals twice the threshold width
        ell_ref = 2 * gen.ELL_STAR if spec.ell is None else spec.ell
        expect = q.analytic_ce_gaussian(1.0, 1.0, 1.0, ell_ref)

        def check(v, label=label, expect=expect):
            mu, nu = refs[label]
            if v.holds != expect:
                return f"holds={v.holds}, closed form says {expect}"
            if not v.holds and not oracle.agrees(mu, nu, cs, v):
                return "worst set does not reproduce the deficit"
            if not seen.repeats(label, v):
                return "output differs from the first run of this case"
            return None

        cases.append(Case(label, run, check))
        inputs.append((label, psi0, region))

    def prepare():
        for label, psi0, region in inputs:
            nu = q.born_measure(q.evolve_schrodinger_free(psi0, 1.0), 1.0)
            mu = q.born_measure(psi0, 0.0)
            refs[label] = (mu if region is None else mu.restricted(region),
                           nu)

    return Bundle(cases, prepare)


# -- atoms_2d -----------------------------------------------------------------


def _atoms(time: float, pts: np.ndarray, weights: np.ndarray):
    return lib.measure.SliceMeasure.from_atoms(
        time, [(tuple(p), float(w)) for p, w in zip(pts.tolist(), weights)])


def build_atoms(seed: int, workdir: Path) -> Bundle:
    tr, st = lib.transport, lib.spacetime
    cases = []
    seen = _Seen(_verdict_summary)
    oracle = _DeficitOracle()
    small = []
    for label, cloud in gen.atom_clouds(seed):
        cs = st.CausalStructure(dim=cloud.dim, c=1.0)
        mu = _atoms(0.0, cloud.mu_pts, cloud.weights)
        nu = _atoms(cloud.dt, cloud.nu_pts, cloud.weights)
        deficit = cloud.deficit
        expect = len(cloud.drained) == 0

        def run(mu=mu, nu=nu, cs=cs):
            return lib.transport.check_ce_maxflow(mu, nu, cs)

        def check(v, label=label, mu=mu, nu=nu, cs=cs, expect=expect,
                  deficit=deficit):
            if v.holds != expect:
                return f"holds={v.holds}, construction says {expect}"
            if not v.holds:
                if not _close(v.deficit, deficit):
                    return f"deficit {v.deficit!r}, drained {deficit!r}"
                if not oracle.agrees(mu, nu, cs, v):
                    return "worst set does not reproduce the deficit"
            if not seen.repeats(label, v):
                return "output differs from the first run of this case"
            return None

        cases.append(Case(label, run, check))
        # a 12-atom slice of the same cloud for the brute-force cross-check;
        # a failing cloud gives 6 kept and 6 drained atoms, so both solvers
        # must also find the failing verdict and the drained weight
        kept = np.arange(12 if expect else 6)
        sub = np.concatenate([kept, cloud.drained[:12 - len(kept)]])
        w = cloud.weights[sub]
        small.append((label, _atoms(0.0, cloud.mu_pts[sub], w),
                      _atoms(cloud.dt, cloud.nu_pts[sub], w), cs,
                      math.fsum(float(v) for v in w[len(kept):])))

    def prepare():
        for label, mu, nu, cs, deficit in small:
            for v in (tr.check_ce_bruteforce(mu, nu, cs),
                      tr.check_ce_maxflow(mu, nu, cs)):
                if (v.holds != (deficit == 0) or not _close(v.deficit, deficit)
                        or not (v.holds or oracle.agrees(mu, nu, cs, v))):
                    raise ReferenceError(
                        f"{v.method} on a 12-atom slice of {label}: "
                        f"holds={v.holds}, deficit {v.deficit!r}, "
                        f"drained {deficit!r}")

    return Bundle(cases, prepare)


# -- scenario_sweep -----------------------------------------------------------


def sweep_scenario(kind: str, spec):
    """Build one scenario of the mix through the package constructors."""
    cd, ms, rg, st = lib.conditions, lib.measure, lib.region, lib.spacetime
    if kind == "abc":
        return cd.make_abc_scenario(*spec)
    if kind == "abc_exact":
        return cd.make_abc_scenario(*spec, exact=True)
    if kind == "grid":
        def grid(time, w):
            return ms.SliceMeasure.from_grid(time, (gen.GRID_ORIGIN,),
                                             gen.GRID_H, w)
        plus, minus = grid(1.0, spec.w_plus), grid(1.0, spec.w_minus)
        return cd.MeasurementScenario(
            cs=st.CausalStructure(dim=1, c=1.0),
            K=rg.Region.interval(-0.75, 0.75), mu=grid(0.0, spec.w_mu),
            nu0=grid(1.0, spec.w_nu0), nu1=ms.mixture(spec.p, plus, minus),
            nu_plus=plus, nu_minus=minus, p_plus=spec.p)
    dim, half = spec.dim, gen.ATOMIC_K_HALF
    mu = _atoms(0.0, spec.mu_pts, spec.weights)
    nu0 = _atoms(1.0, spec.nu_pts, spec.weights)
    k = rg.Region.from_boxes([((-half,) * dim, (half,) * dim)])
    p = mu.mass(k)
    return cd.MeasurementScenario(
        cs=st.CausalStructure(dim=dim, c=1.0), K=k, mu=mu, nu0=nu0,
        nu1=ms.mixture(p, nu0, nu0), nu_plus=nu0, nu_minus=nu0, p_plus=p)


def _sweep_flags(kind: str, spec) -> dict[str, bool]:
    if kind in ("abc", "abc_exact"):
        return gen.abc_flags(*spec)
    if kind == "grid":
        return spec.flags
    return {"ns": True, "a1": False, "a2": False, "ce": len(spec.drained) == 0}


def build_sweep(seed: int, workdir: Path) -> Bundle:
    """One operation builds a scenario from its spec and evaluates it.

    Building inside the operation keeps every evaluation on fresh objects,
    as for a user sweeping many scenarios once; repeating rounds over
    already-built scenarios would measure their cached properties instead.
    """
    specs = gen.sweep_specs(seed)
    other: dict[str, object] = {}
    cases = []
    for i, (kind, spec) in enumerate(specs):
        label = f"{kind}-{i}"
        flags = _sweep_flags(kind, spec)
        deficit = spec.deficit if kind == "atomic" else None

        def run(kind=kind, spec=spec):
            return lib.conditions.evaluate_conditions(
                sweep_scenario(kind, spec), method="auto")

        def check(rep, label=label, flags=flags, deficit=deficit):
            for name, want in flags.items():
                if getattr(rep, name) != want:
                    return f"{name}={getattr(rep, name)}, expected {want}"
            if rep.diagnostics:
                return f"diagnostics {rep.diagnostics}"
            if deficit is not None and not _close(rep.ce_verdict.deficit,
                                                  deficit):
                return (f"deficit {rep.ce_verdict.deficit!r}, "
                        f"drained {deficit!r}")
            ref = other.get(label)
            if ref is not None and (ref.holds != rep.ce_verdict.holds
                                    or not _close(ref.deficit,
                                                  rep.ce_verdict.deficit)):
                return (f"ce {rep.ce_verdict.method} disagrees with "
                        f"{ref.method}")
            return None

        cases.append(Case(label, run, check))

    def prepare():
        tr = lib.transport
        for i, (kind, spec) in enumerate(specs):
            sc = sweep_scenario(kind, spec)
            # the solver `auto` does not pick for this scenario
            if sc.mu.is_atomic and len(sc.mu.atoms) <= tr.MAX_BRUTEFORCE_ATOMS:
                other[f"{kind}-{i}"] = tr.check_ce_maxflow(sc.mu, sc.nu0,
                                                           sc.cs)

    sizes = [len(s.weights) for k, s in specs if k == "atomic"]
    notes = {"scenarios_per_round": len(specs),
             "atomic_scenarios": len(sizes),
             "share_above_12_atoms": sum(n > 12 for n in sizes) / len(specs)}
    return Bundle(cases, prepare, notes)


# -- cli_protocol -------------------------------------------------------------


def _measure_json(m) -> dict:
    return {"time": m.time,
            "atoms": [list(p) + [float(w)] for p, w in m.atoms]}


def _scenario_json(sc, lattice, seed: int) -> dict:
    ms = {"mu": sc.mu, "nu0": sc.nu0, "nu1": sc.nu1, "nup": sc.nu_plus,
          "num": sc.nu_minus}
    lat = {k: (list(v) if isinstance(v, tuple) else v)
           for k, v in vars(lattice).items()}
    return {
        "spacetime": {"dim": sc.cs.dim, "c": sc.cs.c},
        "seed": seed,
        "measures": {name: _measure_json(m) for name, m in ms.items()},
        "measurement": {"K": sc.K.to_json(), "p_plus": float(sc.p_plus),
                        "mu": "mu", "nu0": "nu0", "nu1": "nu1",
                        "nu_plus": "nup", "nu_minus": "num"},
        "protocol": {"lattice": lat, "trials": 10000,
                     "block_sizes": [1, 16]},
    }


def _reweighted_annulus(segments: int, weights: np.ndarray):
    pr, cd, ms = lib.protocol, lib.conditions, lib.measure
    sc, lattice = pr.make_annulus_scenario(segments)
    ring = [p for p, _ in sc.mu.atoms]
    w = [float(v) for v in weights]
    mu = ms.SliceMeasure.from_atoms(sc.s_time, list(zip(ring, w)))
    centre = sc.nu0.atoms[0][0]
    stay = ms.SliceMeasure.from_atoms(
        sc.t_time, [(centre, 0.0)] + list(zip(ring, w)))
    sc = cd.MeasurementScenario(cs=sc.cs, K=sc.K, mu=mu, nu0=sc.nu0,
                                nu1=stay, nu_plus=stay, nu_minus=stay,
                                p_plus=1.0)
    return sc, lattice


def split_record(text: str) -> tuple[str, str]:
    """stdout of one command -> (JSON record, trailing CSV series)."""
    end = text.index("\n}\n") + 3
    return text[:end], text[end:]


def _stable(record: str) -> str:
    return "\n".join(line for line in record.split("\n")
                     if not line.startswith('  "wall_clock_s": '))


def _call_cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(argv)
    return code, out.getvalue()


def build_cli(seed: int, workdir: Path) -> Bundle:
    q = lib.quantum
    spec = gen.cli_spec(seed)
    scen: dict[str, tuple] = {}

    sc = lib.conditions.make_abc_scenario(*spec.abc)
    scen["abc"] = (sc, lib.protocol.ABC_LATTICE)
    for s in gen.ANNULUS_SEGMENTS:
        scen[f"ring{s}"] = _reweighted_annulus(s, spec.ring_weights[s])
    files = {}
    for name, (sc, lattice) in scen.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(_scenario_json(sc, lattice, seed)))
        files[name] = str(path)
    n = gen.QUANTUM_N
    cell = 2 * gen.BORN_HALF_SPAN / n
    for i, (x0, ell) in enumerate(spec.quantum):
        quantum = {
            "spacetime": {"dim": 1, "c": 1.0}, "seed": seed,
            "quantum": {"dynamics": "schrodinger", "m": 1.0, "lambda": 1.0,
                        "t": 1.0, "x0": x0,
                        "grid": {"origin": -gen.BORN_HALF_SPAN,
                                 "cell_size": cell, "n": n},
                        "K": [[[x0 - ell], [x0 + ell]]]},
        }
        files[f"quantum{i}"] = str(workdir / f"quantum{i}.json")
        Path(files[f"quantum{i}"]).write_text(json.dumps(quantum))

    argvs = []
    for name in scen:
        for cmd in (["check", "all"], ["protocol"], ["signal-sim"]):
            argvs.append((f"{'-'.join(cmd)}:{name}",
                          cmd + ["--scenario", files[name], "--seed",
                                 str(spec.sim_seed)]))
    for i in range(len(spec.quantum)):
        argvs.append((f"simulate-quantum:quantum{i}",
                      ["simulate-quantum", "--scenario",
                       files[f"quantum{i}"]]))
    argvs.append(("truth-table", ["truth-table"]))

    # closed forms, independent of the package: the two-atom family algebra
    # with deficit 1/2 - a, and the rings, whose mass cannot reach the centre
    expected = {"abc": (gen.abc_flags(*spec.abc), 0.5 - spec.abc[0])}
    for s in gen.ANNULUS_SEGMENTS:
        expected[f"ring{s}"] = ({"ce": False, "ns": False}, 1.0)
    direct: dict[str, object] = {}
    first: dict[str, str] = {}

    def prepare():
        cd, pr = lib.conditions, lib.protocol
        for name, (sc, lattice) in scen.items():
            rep = cd.evaluate_conditions(sc)
            proto = pr.construct_protocol(sc, cd.find_ns_witness(sc), lattice)
            sims = [pr.simulate_signalling(proto, sc, trials=10000,
                                           seed=spec.sim_seed + i,
                                           block_size=b)
                    for i, b in enumerate((1, 16))]
            direct[name] = (rep, proto, sims)
        cs = lib.spacetime.CausalStructure(1, 1.0)
        for i, (x0, ell) in enumerate(spec.quantum):
            psi0 = q.gaussian_packet(1.0, x0=x0, origin=-gen.BORN_HALF_SPAN,
                                     cell_size=cell, n=n)
            region = lib.region.Region.interval(x0 - ell, x0 + ell)
            mu = q.born_measure(psi0, 0.0).restricted(region)
            nu = q.born_measure(q.evolve_schrodinger_free(psi0, 1.0), 1.0)
            direct[f"quantum{i}"] = (
                q.analytic_ce_gaussian(1.0, 1.0, 1.0, ell), mu, nu, cs)
        direct["truth-table"] = [
            {k: r[k] for k in ("ns", "a1", "a2", "ce", "matches")}
            for r in cd.truth_table()]

    def verdicts(key: str, rec: dict) -> str | None:
        res = rec["result"]
        cmd, _, name = key.partition(":")
        if cmd == "simulate-quantum":
            holds, mu, nu, cs = direct[name]
            if res["ce"]["holds"] != holds:
                return "ce verdict contradicts the closed form"
            worst = lib.region.Region.from_json(res["ce"]["worst_set"], 1)
            again = lib.transport.recompute_deficit(mu, nu, worst, cs)
            ok = _close(res["ce"]["deficit"], again)
            return None if ok else "worst set does not reproduce the deficit"
        if key == "truth-table":
            rows = [{k: r[k] for k in ("ns", "a1", "a2", "ce", "matches")}
                    for r in res["rows"]]
            ok = res["all_match"] and rows == direct["truth-table"]
            return None if ok else "truth table differs from the library"
        rep, proto, sims = direct[name]
        if cmd == "check-all":
            flags, deficit = expected[name]
            if any(res[f] != want for f, want in flags.items()):
                return "condition flags contradict the construction"
            if not _close(res["ce_verdict"]["deficit"], deficit):
                return "ce deficit contradicts the construction"
            if any(res[f] != getattr(rep, f)
                   for f in ("ce", "ns", "a1", "a2")):
                return "condition flags differ from the library"
            if res["diagnostics"]:
                return "unexpected diagnostics"
            return None
        got = res["protocol"]
        if (got["k"] != len(proto.senders)
                or not _close(got["channel_gap"], proto.channel_gap)
                or got["q"]["x"] != list(proto.q.x)):
            return "protocol differs from the library"
        if cmd == "protocol":
            return "audit problems" if res["problems"] else None
        rates = [s["error_rate"] for s in res["stats"]]
        return (None if rates == [s.error_rate for s in sims]
                else "signalling statistics differ from the library")

    cases = []
    for key, argv in argvs:
        def run(argv=argv):
            return _call_cli(argv)

        def check(out, key=key):
            code, text = out
            if code != 0:
                return f"exit code {code}"
            record, _ = split_record(text)
            stable = _stable(record)
            if first.setdefault(key, stable) != stable:
                return "record differs from the first run byte for byte"
            return verdicts(key, json.loads(record))

        def counts(out):
            record, csv = split_record(out[1])
            # wall_clock_s varies in length, so it is left out of the count
            return {"cli.record_bytes": len(_stable(record).encode()),
                    "cli.csv_bytes": len(csv.encode())}

        cases.append(Case(key, run, check, counts))
    return Bundle(cases, prepare)


WORKLOADS = {
    "born_grid_1d": build_born,
    "atoms_2d": build_atoms,
    "scenario_sweep": build_sweep,
    "cli_protocol": build_cli,
}
