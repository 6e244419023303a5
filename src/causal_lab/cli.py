"""Command-line front end: scenario files in, verdict records out.

Scenario files are JSON:

    {
      "spacetime": {"dim": 1, "c": 1.0},
      "seed": 7,
      "measures": {
        "mu":  {"time": 0.0, "atoms": [[0.0, 0.5], [1.5, 0.5]]},
        "nu0": {"time": 1.0, "grid": {"origin": [-8.0], "cell_size": 0.25,
                                      "weights": [0.0, "..."]}}
      },
      "measurement": {"K": [[[-0.25], [0.25]]], "p_plus": 0.5,
                      "mu": "mu", "nu0": "nu0", "nu1": "nu1",
                      "nu_plus": "nup", "nu_minus": "num"},
      "quantum":  {"dynamics": "schrodinger", "m": 1.0, "lambda": 1.0,
                   "t": 1.0, "grid": {"origin": -24.0, "cell_size": 0.0117,
                                      "n": 4096}, "K": [[[-2.41], [2.41]]]},
      "protocol": {"lattice": {"q_time": 2.0, "q_lo": [1.5], "q_hi": [4.5],
                               "q_points": 13, "p_time": -1.0, "p_lo": [-4.0],
                               "p_hi": [4.0], "p_points": 41,
                               "cover_resolution": 0.05},
                   "trials": 10000, "block_sizes": [1, 16]}
    }

Regions are lists of [lo, hi] box corner pairs.  Atom rows are coordinates
followed by a weight.  Every command prints one machine-readable JSON
record to stdout (sorted keys, floats with 17 significant digits); reports
are byte-identical across runs with the same inputs and seed except for
the wall_clock_s field.  --out writes the record (and any CSV series)
to files atomically.

Exit codes: 0 success; 1 a checked condition failed and --assert was
passed; 2 invalid input.  Any ValueError that the library raises is an
input error: `main` reports it as `error: <message>` and returns 2.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

# names from these four modules are read through the module at call time,
# so that a wrapper installed on a module attribute (a tracer, a test
# double) sees the calls the CLI makes
from . import conditions, protocol, quantum, transport
from .measure import EPS_MASS, SliceMeasure
from .region import Region
from .spacetime import EPS_CAUSAL, CausalStructure


class CliInputError(ValueError):
    """Scenario file or flag combination is unusable (exit code 2)."""


# -- canonical JSON ----------------------------------------------------------


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _float_pairs(xs: np.ndarray, ys: np.ndarray) -> str:
    """CSV rows "x,y" of two float arrays, each value as `_fmt_float`
    writes it, in one format call over the interleaved values: .17g
    spells the non-finite values nan, inf and -inf, which no finite
    value's digits contain, so they are then respelled NaN, Infinity and
    -Infinity."""
    flat = np.column_stack((xs, ys)).ravel().tolist()
    text = ("%.17g,%.17g\n" * len(xs)) % tuple(flat)
    return text.replace("nan", "NaN").replace("inf", "Infinity")


def canonical_json(obj, indent: int = 0) -> str:
    """Writer of every record: sorted keys, two-space indent,
    17-significant-digit floats."""
    return _json(obj, indent)


def _json(obj, indent: int) -> str:
    """canonical_json's one recursive pass.  The types a record is made
    of are told apart by exact type first; any other value (a bool, int,
    Fraction, None, numpy scalar or subclass) takes the isinstance chain
    of `_json_other`."""
    kind = type(obj)
    if kind is float:
        return _fmt_float(obj)
    if kind is dict:
        return _json_dict(obj, indent)
    if kind is list or kind is tuple:
        return _json_list(obj, indent)
    if kind is str:
        return json.dumps(obj)
    return _json_other(obj, indent)


def _json_dict(obj, indent: int) -> str:
    """Keys are spelled by `json.dumps`, so quotes, backslashes and
    control characters in them are escaped."""
    if not obj:
        return "{}"
    deeper = indent + 2
    inner = " " * deeper
    return ("{\n" + inner + (",\n" + inner).join(
        [f'{json.dumps(str(key))}: {_json(obj[key], deeper)}'
         for key in sorted(obj)])
        + "\n" + " " * indent + "}")


def _json_list(obj, indent: int) -> str:
    if not obj:
        return "[]"
    deeper = indent + 2
    inner = " " * deeper
    return ("[\n" + inner + (",\n" + inner).join(
        [_json(v, deeper) for v in obj]) + "\n" + " " * indent + "]")


def _json_other(obj, indent: int) -> str:
    if isinstance(obj, dict):
        return _json_dict(obj, indent)
    if isinstance(obj, (list, tuple)):
        return _json_list(obj, indent)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, Fraction):
        return f'"{obj}"'
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- scenario ingestion -------------------------------------------------------


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise CliInputError(f"scenario is missing '{key}' in {where}")
    return mapping[key]


def _section(mapping: dict, key: str, where: str, required: bool = False):
    """mapping[key], which must be a JSON object, or None when the key is
    absent and not required.  A section of any other type, null included,
    is an input error that names the key."""
    if key not in mapping and not required:
        return None
    sect = _require(mapping, key, where)
    if not isinstance(sect, dict):
        raise CliInputError(f"scenario '{key}' in {where} must be an object")
    return sect


def _scalar(kind, mapping: dict, key: str, where: str, default=None):
    """kind(mapping[key]), or `default` when the key is absent and has
    one.  A null, like a missing key without a default, and a value that
    kind rejects are input errors that name the key."""
    if key not in mapping and default is not None:
        return default
    raw = _require(mapping, key, where)
    if raw is None:
        raise CliInputError(f"scenario has null '{key}' in {where}")
    try:
        return kind(raw)
    except (TypeError, ValueError) as exc:
        raise CliInputError(f"bad '{key}' in {where}: {exc}") from exc


def _integer(v) -> int:
    """Kind of a count: an int, or a float with a whole value.  A boolean
    or a fractional number is rejected rather than truncated."""
    if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
        raise ValueError(f"expected an integer, got {v!r}")
    return int(v)


def _items(kind):
    """Kind of a JSON list whose entries have `kind`, read as a tuple.  A
    string, like any other value that is not a list, is rejected."""
    def read(v):
        if not isinstance(v, list):
            raise ValueError(f"expected a list, got {v!r}")
        return tuple(kind(x) for x in v)
    return read


def _atom_row(row, exact: bool):
    """(coordinates, weight) of one atom row, the coordinates as given."""
    # a string row would be read character by character
    if not isinstance(row, list) or len(row) < 2:
        raise ValueError("atom rows are lists of coordinates and a weight, "
                         f"got {row!r}")
    return row[:-1], Fraction(str(row[-1])) if exact else float(row[-1])


def _parse_measure(entry: dict, exact: bool, name: str):
    try:
        time_v = float(_require(entry, "time", f"measure '{name}'"))
        if "atoms" in entry:
            # from_atoms converts the coordinates, each once
            return SliceMeasure.from_atoms(
                time_v, (_atom_row(row, exact) for row in entry["atoms"]))
        if "grid" in entry:
            if exact:
                raise CliInputError("exact-rational mode supports atom "
                                    f"measures only; '{name}' is a grid")
            g = entry["grid"]
            return SliceMeasure.from_grid(
                time_v, _items(float)(_require(g, "origin", name)),
                float(_require(g, "cell_size", name)),
                np.asarray(_require(g, "weights", name), dtype=float))
    except CliInputError:
        raise  # already says what is wrong
    except (ValueError, TypeError) as exc:
        raise CliInputError(f"bad measure '{name}': {exc}") from exc
    raise CliInputError(f"measure '{name}' needs 'atoms' or 'grid'")


def _parse_region(data, dim: int, where: str):
    """A detector region K.  Region.from_json reads null as the empty
    region; here null and an empty list are input errors, as a missing K
    is."""
    try:
        region = Region.from_json(data, dim=dim)
    except (ValueError, TypeError) as exc:
        raise CliInputError(f"bad region in {where}: {exc}") from exc
    if region.is_empty:
        raise CliInputError(f"{where} is empty; the detector region needs "
                            "at least one box")
    return region


class Scenario:
    """Parsed scenario file: causal structure plus optional sections."""

    def __init__(self, path: str, exact: bool = False):
        try:
            raw = Path(path).read_bytes()
        except OSError as exc:
            raise CliInputError(f"cannot read scenario file: {exc}") from exc
        self.digest = "sha256:" + hashlib.sha256(raw).hexdigest()
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise CliInputError(f"scenario is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise CliInputError("scenario root must be an object")
        st = _section(data, "spacetime", "the root", required=True)
        self.cs = CausalStructure(
            dim=_scalar(_integer, st, "dim", "spacetime"),
            c=_scalar(float, st, "c", "spacetime", 1.0))
        self.seed = _scalar(_integer, data, "seed", "the root", 0)
        self.exact = exact
        self.measures = {
            name: _parse_measure(m, exact, name)
            for name, m in (_section(data, "measures", "the root")
                            or {}).items()
        }
        self.measurement = _section(data, "measurement", "the root")
        self.quantum = _section(data, "quantum", "the root")
        self.protocol = _section(data, "protocol", "the root")

    def measurement_scenario(self):
        if self.measurement is None:
            raise CliInputError("scenario has no 'measurement' section")
        sect = self.measurement
        k = _parse_region(_require(sect, "K", "measurement"), self.cs.dim,
                          "measurement.K")
        p_plus = _scalar((lambda v: Fraction(str(v))) if self.exact
                         else float, sect, "p_plus", "measurement")
        refs = {}
        for role in ("mu", "nu0", "nu1", "nu_plus", "nu_minus"):
            ref = _require(sect, role, "measurement")
            if not isinstance(ref, str) or ref not in self.measures:
                raise CliInputError(
                    f"measurement.{role} references unknown measure '{ref}'")
            refs[role] = self.measures[ref]
        return conditions.MeasurementScenario(cs=self.cs, K=k, p_plus=p_plus,
                                              **refs)

    def lattice(self):
        lat = _section(self.protocol or {}, "lattice", "protocol")
        if lat is None:
            raise CliInputError("scenario has no protocol.lattice section")
        kinds = {"q_time": float, "q_lo": _items(float),
                 "q_hi": _items(float), "q_points": _integer,
                 "p_time": float, "p_lo": _items(float),
                 "p_hi": _items(float), "p_points": _integer,
                 "cover_resolution": float}
        fields = {key: _scalar(kind, lat, key, "protocol.lattice")
                  for key, kind in kinds.items()}
        try:
            return protocol.LatticeSpec(**fields)
        except ValueError as exc:
            raise CliInputError(f"bad lattice: {exc}") from exc


# -- record plumbing ---------------------------------------------------------


def _region_json(region):
    return None if region is None else region.to_json()


def _verdict_json(v):
    return {
        "holds": v.holds,
        "deficit": v.deficit,
        "worst_set": _region_json(v.worst_set),
        "method": v.method,
    }


def _tolerances() -> dict:
    return {"eps_causal": EPS_CAUSAL, "eps_mass": EPS_MASS,
            "eps_flow": transport.EPS_FLOW}


def _emit(record: dict, args, csv_series: dict[str, str] | None = None) -> None:
    record["wall_clock_s"] = time.monotonic() - args._t0
    text = canonical_json(record) + "\n"
    sys.stdout.write(text)
    out = getattr(args, "out", None)
    if out:
        outdir = Path(out)
        _atomic_write(outdir / f"{record['command']}.json", text)
        for filename, content in (csv_series or {}).items():
            _atomic_write(outdir / filename, content)
    elif csv_series:
        for content in csv_series.values():
            sys.stdout.write(content)


def _base_record(command: str, digest: str | None) -> dict:
    return {"command": command, "input_digest": digest,
            "tolerances": _tolerances()}


# -- commands ----------------------------------------------------------------


def cmd_validate(args) -> int:
    sc = Scenario(args.scenario, args.exact_rational)
    violations = conditions.validate(sc.measurement_scenario())
    rec = _base_record("validate", sc.digest)
    rec["result"] = {"valid": not violations, "violations": violations}
    _emit(rec, args)
    return 1 if violations and args.assert_ else 0


def cmd_check(args) -> int:
    sc = Scenario(args.scenario, args.exact_rational)
    ms = sc.measurement_scenario()
    rec = _base_record("check", sc.digest)
    rec["condition"] = args.condition
    rec["method"] = args.method
    if args.condition == "ce":
        verdict = conditions.check_ce(ms, method=args.method)
        rec["result"] = _verdict_json(verdict)
        failed = not verdict.holds
    elif args.condition == "all":
        report = conditions.evaluate_conditions(ms, method=args.method)
        flags = {"ce": report.ce, "ns": report.ns,
                 "a1": report.a1, "a2": report.a2}
        rec["result"] = {
            **flags,
            "a1_vacuous": report.a1_vacuous,
            "a2_vacuous": report.a2_vacuous,
            "ce_verdict": _verdict_json(report.ce_verdict),
            "ns_witness": _region_json(report.witnesses.get("ns_witness")),
            "diagnostics": list(report.diagnostics),
        }
        failed = not all(flags.values())
    else:
        # ns, a1 and a2 each run their own check alone; --method is ce's
        holds = getattr(conditions, f"check_{args.condition}")(ms)
        rec["result"] = {args.condition: holds}
        failed = not holds
    _emit(rec, args)
    return 1 if failed and args.assert_ else 0


def cmd_truth_table(args) -> int:
    rows = conditions.truth_table()
    rec = _base_record("truth-table", None)
    rec["result"] = {"rows": rows, "all_match": all(r["matches"] for r in rows)}
    _emit(rec, args)
    return 1 if not rec["result"]["all_match"] and args.assert_ else 0


def _build_protocol(sc: Scenario):
    ms = sc.measurement_scenario()
    lattice = sc.lattice()
    witness = conditions.find_ns_witness(ms)
    if witness is None:
        raise protocol.ProtocolSearchError(
            "find_ns_witness found no marginal gap; "
            "the scenario does not signal")
    return ms, lattice, protocol.construct_protocol(ms, witness, lattice)


def _protocol_json(proto) -> dict:
    return {
        "K": _region_json(proto.K),
        "C": _region_json(proto.C),
        "q": {"t": proto.q.t, "x": list(proto.q.x)},
        "senders": [{"t": p.t, "x": list(p.x)} for p in proto.senders],
        "k": len(proto.senders),
        "channel_gap": proto.channel_gap,
    }


def cmd_protocol(args) -> int:
    sc = Scenario(args.scenario, args.exact_rational)
    rec = _base_record("protocol", sc.digest)
    try:
        _, _, proto = _build_protocol(sc)
    except protocol.ProtocolSearchError as exc:
        rec["result"] = {"constructed": False, "error": str(exc)}
        _emit(rec, args)
        return 1 if args.assert_ else 0
    # construct_protocol has run audit_protocol and raised on any problem
    audit = ["audit: readout set inside the causal past of the receiver: ok",
             "audit: sender futures cover the detector region: ok",
             "audit: no sender causally precedes the receiver: ok",
             f"audit: channel gap {proto.channel_gap:.6g} > 0: ok"]
    rec["result"] = {"constructed": True, "protocol": _protocol_json(proto),
                     "audit": audit, "problems": []}
    _emit(rec, args)
    return 0


def cmd_signal_sim(args) -> int:
    sc = Scenario(args.scenario, args.exact_rational)
    seed = args.seed if args.seed is not None else sc.seed
    rec = _base_record("signal-sim", sc.digest)
    rec["seed"] = seed
    try:
        ms, _, proto = _build_protocol(sc)
    except protocol.ProtocolSearchError as exc:
        raise CliInputError(f"cannot build a protocol to simulate: {exc}") \
            from exc
    sect = sc.protocol or {}
    trials = _scalar(_integer, sect, "trials", "protocol", 10000)
    block_sizes = _scalar(_items(_integer), sect, "block_sizes", "protocol",
                          (1,))
    stats = []
    lines = ["block_size,error_rate,stderr"]
    for i, block in enumerate(block_sizes):
        st = protocol.simulate_signalling(proto, ms, trials=trials,
                                          seed=seed + i, block_size=block)
        stats.append(dataclasses.asdict(st))
        lines.append(f"{block},{_fmt_float(st.error_rate)},"
                     f"{_fmt_float(st.stderr)}")
    rec["result"] = {"protocol": _protocol_json(proto), "trials": trials,
                     "stats": stats}
    _emit(rec, args, csv_series={"signal_stats.csv": "\n".join(lines) + "\n"})
    return 0


def cmd_simulate_quantum(args) -> int:
    sc = Scenario(args.scenario)
    if sc.quantum is None:
        raise CliInputError("scenario has no 'quantum' section")
    if sc.cs.dim != 1:
        raise CliInputError("quantum dynamics are one-dimensional; "
                            "set spacetime.dim = 1")
    q = sc.quantum
    dynamics = _require(q, "dynamics", "quantum")
    grid = _section(q, "grid", "quantum", required=True)
    units = {"natural": quantum.NATURAL_UNITS, "si": quantum.SI_UNITS}.get(
        _scalar(str, q, "units", "quantum", "natural"))
    if units is None:
        raise CliInputError("quantum.units must be 'natural' or 'si'")
    if units.c != sc.cs.c:
        raise CliInputError(f"quantum.units evolve at c = {units.c!r}, but "
                            f"spacetime.c is {sc.cs.c!r}; set it to match")
    m = _scalar(float, q, "m", "quantum")
    lam = _scalar(float, q, "lambda", "quantum")
    t = _scalar(float, q, "t", "quantum")
    origin = _scalar(float, grid, "origin", "quantum.grid")
    cell = _scalar(float, grid, "cell_size", "quantum.grid")
    n = _scalar(_integer, grid, "n", "quantum.grid")
    x0 = _scalar(float, q, "x0", "quantum", 0.0)
    k0 = _scalar(float, q, "k0", "quantum", 0.0)
    k_region = _parse_region(_require(q, "K", "quantum"), 1, "quantum.K")
    if dynamics == "dirac":
        if k0 != 0:
            raise CliInputError("quantum.k0 is not supported with dynamics "
                                "'dirac': the spinor bump has no wavenumber")
        psi0 = quantum.bump_spinor_packet(
            center=x0, halfwidth=lam, origin=origin, cell_size=cell,
            n=n, mass=m, units=units)
        evolved = quantum.evolve_dirac_1p1(psi0, t)
    elif dynamics in ("schrodinger", "relativistic"):
        psi0 = quantum.gaussian_packet(lam, x0=x0, k0=k0, origin=origin,
                                       cell_size=cell, n=n, mass=m,
                                       units=units)
        evolve = (quantum.evolve_schrodinger_free
                  if dynamics == "schrodinger"
                  else quantum.evolve_relativistic)
        evolved = evolve(psi0, t)
    else:
        raise CliInputError(f"unknown dynamics {dynamics!r}")
    mu = quantum.born_measure(psi0, 0.0).restricted(k_region)
    nu = quantum.born_measure(evolved, t)
    verdict = transport.check_ce_maxflow(mu, nu, sc.cs)
    rec = _base_record("simulate-quantum", sc.digest)
    rec["result"] = {
        "dynamics": dynamics,
        "t": t,
        "norm_final": evolved.norm,
        "mass_in_K": float(mu.total),
        "ce": _verdict_json(verdict),
    }
    csv = "x,density\n" + _float_pairs(psi0.centers, evolved.density)
    _emit(rec, args, csv_series={"density.csv": csv})
    return 1 if not verdict.holds and args.assert_ else 0


def cmd_scales(args) -> int:
    units = (quantum.NATURAL_UNITS if args.units == "natural"
             else quantum.SI_UNITS)
    t = math.inf if args.t.strip().lower() in ("inf", "infinity") \
        else float(args.t)
    report = quantum.min_violation_halfwidth(args.m, args.lam, t, units=units)
    rec = _base_record("scales", None)
    rec["result"] = {
        "m": report.mass, "lambda": report.lam, "t": report.t,
        "ell_min": report.ell_min,
        "ell_min_asymptotic": report.ell_min_asymptotic,
        "compton": report.compton,
    }
    _emit(rec, args)
    return 0


# -- parser ------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser,
                flags: str = "scenario seed exact assert") -> None:
    """--out everywhere; each of the other flags where the handler reads
    it.  `check` and `protocol` read no seed but keep --seed, which
    scripts pass to every scenario command."""
    flags = flags.split()
    if "scenario" in flags:
        p.add_argument("--scenario", required=True,
                       help="path to a JSON scenario file")
    if "seed" in flags:
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    if "exact" in flags:
        p.add_argument("--exact-rational", action="store_true",
                       help="parse weights as exact rationals (atom measures)")
    if "assert" in flags:
        p.add_argument("--assert", dest="assert_", action="store_true",
                       help="exit 1 when the checked condition fails")
    p.add_argument("--out", default=None,
                   help="directory for report and CSV files")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call.  Every
    caller shares it, so it must not be changed; `main` finds each
    command's handler by name when it runs."""
    parser = argparse.ArgumentParser(
        prog="causal-lab",
        description="causality checks for detection statistics on "
                    "spacetime slices")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate", help="scenario consistency check")
    _add_common(p, "scenario exact assert")

    p = sub.add_parser("check", help="evaluate causality conditions")
    p.add_argument("condition", choices=["ce", "ns", "a1", "a2", "all"])
    p.add_argument("--method", choices=["auto", "bruteforce", "maxflow"],
                   default="auto")
    _add_common(p)

    p = sub.add_parser("truth-table",
                       help="exact verdicts for the canonical two-atom family")
    _add_common(p, "assert")

    p = sub.add_parser("protocol", help="construct a signalling protocol")
    _add_common(p)

    p = sub.add_parser("signal-sim", help="Monte Carlo of the one-bit channel")
    _add_common(p, "scenario seed exact")

    p = sub.add_parser("simulate-quantum",
                       help="evolve a packet and check the ordering condition")
    _add_common(p, "scenario assert")

    p = sub.add_parser("scales", help="closed-form violation scales")
    p.add_argument("--m", type=float, required=True, help="mass")
    p.add_argument("--lambda", dest="lam", type=float, required=True,
                   help="initial packet width")
    p.add_argument("--t", default="inf",
                   help="spreading time; 'inf' for the asymptote")
    p.add_argument("--units", choices=["si", "natural"], default="si")
    _add_common(p, "")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args._t0 = time.monotonic()
    # looked up per call, like the module names above
    handler = globals()["cmd_" + args.cmd.replace("-", "_")]
    try:
        return handler(args)
    except ValueError as exc:  # CliInputError and what the library rejects
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
