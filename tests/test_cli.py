"""End-to-end CLI coverage: parsing, records, exit codes, determinism."""

import json
import math
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from causal_lab import conditions, protocol
from causal_lab.cli import (Scenario, _float_pairs, _fmt_float,
                            build_parser, canonical_json, main)
from causal_lab.region import Region

from helpers import (ODD_FLOATS, ODD_STRINGS, canonical_json_oracle,
                     random_grid_scenario, random_record)

LATTICE = {"q_time": 2.0, "q_lo": [1.5], "q_hi": [4.5], "q_points": 13,
           "p_time": -1.0, "p_lo": [-4.0], "p_hi": [4.0], "p_points": 41,
           "cover_resolution": 0.05}


def _post(w):
    return [[0.9, w], [2.2, 1.0 - w]]


def abc_payload(a, b, c, **extra):
    payload = {
        "spacetime": {"dim": 1, "c": 1.0},
        "seed": 7,
        "measures": {
            "mu": {"time": 0.0, "atoms": [[0.0, 0.5], [1.5, 0.5]]},
            "nu0": {"time": 1.0, "atoms": _post(a)},
            "nu1": {"time": 1.0, "atoms": _post((b + c) / 2)},
            "nup": {"time": 1.0, "atoms": _post(b)},
            "num": {"time": 1.0, "atoms": _post(c)},
        },
        "measurement": {"K": [[[-0.25], [0.25]]], "p_plus": 0.5,
                        "mu": "mu", "nu0": "nu0", "nu1": "nu1",
                        "nu_plus": "nup", "nu_minus": "num"},
    }
    payload.update(extra)
    return payload


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_record(out):
    return json.loads(out)


def _without_clock(out):
    return "".join(line for line in out.splitlines(keepends=True)
                   if "wall_clock_s" not in line)


def test_validate_clean_scenario(tmp_path, capsys):
    path = write_scenario(tmp_path, abc_payload(0.5, 1.0, 0.0))
    code, out, _ = run_cli(capsys, "validate", "--scenario", path)
    assert code == 0
    rec = parse_record(out)
    assert rec["command"] == "validate"
    assert rec["result"]["valid"] is True
    assert rec["result"]["violations"] == []
    assert rec["input_digest"].startswith("sha256:")
    assert set(rec["tolerances"]) == {"eps_causal", "eps_mass", "eps_flow"}


def test_validate_flags_broken_mixture(tmp_path, capsys):
    payload = abc_payload(0.2, 1.0, 0.0)
    payload["measures"]["nu1"] = {"time": 1.0, "atoms": _post(0.2)}
    path = write_scenario(tmp_path, payload)
    code, out, _ = run_cli(capsys, "validate", "--scenario", path, "--assert")
    assert code == 1
    rec = parse_record(out)
    assert rec["result"]["valid"] is False
    assert any("total probability" in v for v in rec["result"]["violations"])
    # without --assert the same failure reports but exits cleanly
    code, _, _ = run_cli(capsys, "validate", "--scenario", path)
    assert code == 0


def test_check_ce_violating_scenario(tmp_path, capsys):
    path = write_scenario(tmp_path, abc_payload(0.0, 1.0, 1.0))
    code, out, _ = run_cli(capsys, "check", "ce", "--scenario", path)
    assert code == 0
    rec = parse_record(out)
    assert rec["result"]["holds"] is False
    assert rec["result"]["deficit"] == pytest.approx(0.5)
    assert rec["result"]["worst_set"] is not None
    code, _, _ = run_cli(capsys, "check", "ce", "--scenario", path, "--assert")
    assert code == 1


def test_check_all_clean_scenario(tmp_path, capsys):
    path = write_scenario(tmp_path, abc_payload(0.5, 1.0, 0.0))
    code, out, _ = run_cli(capsys, "check", "all", "--scenario", path,
                           "--assert")
    assert code == 0
    rec = parse_record(out)
    res = rec["result"]
    assert all(res[k] is True for k in ("ce", "ns", "a1", "a2"))
    assert res["diagnostics"] == []
    assert res["ns_witness"] is None


def test_check_single_condition_record(tmp_path, capsys):
    path = write_scenario(tmp_path, abc_payload(0.0, 1.0, 1.0))
    code, out, _ = run_cli(capsys, "check", "ns", "--scenario", path)
    assert code == 0
    assert parse_record(out)["result"] == {"ns": False}


@pytest.mark.parametrize("condition", ["ns", "a1", "a2"])
def test_single_condition_check_ignores_method(condition, capsys):
    # ns, a1 and a2 run no ordering check, so a method that cannot take
    # a grid mu changes nothing
    path = str(DATA / "grid_1d.json")
    results = []
    for method in ("bruteforce", "auto"):
        code, out, _ = run_cli(capsys, "check", condition, "--method", method,
                               "--scenario", path)
        assert code == 0, method
        results.append(parse_record(out)["result"])
    assert results[0] == results[1]
    assert list(results[0]) == [condition]


def test_check_methods_agree(tmp_path, capsys):
    # a failing and a holding scenario: a holding verdict names no worst set
    for abc, holds in (((0.0, 1.0, 1.0), False), ((0.7, 1.0, 0.4), True)):
        path = write_scenario(tmp_path, abc_payload(*abc))
        results = {}
        for method in ("bruteforce", "maxflow"):
            code, out, _ = run_cli(capsys, "check", "ce", "--scenario", path,
                                   "--method", method)
            assert code == 0
            rec = parse_record(out)
            assert rec["method"] == method
            results[method] = rec["result"]
            assert results[method].pop("method") == method
        assert results["bruteforce"] == results["maxflow"]
        assert results["maxflow"]["holds"] is holds


def test_check_exact_rational_deficit(tmp_path, capsys):
    path = write_scenario(tmp_path, abc_payload(0.0, 1.0, 1.0))
    code, out, _ = run_cli(capsys, "check", "ce", "--scenario", path,
                           "--exact-rational")
    assert code == 0
    rec = parse_record(out)
    assert rec["result"]["deficit"] == "1/2"


def test_truth_table_record(capsys):
    code, out, _ = run_cli(capsys, "truth-table", "--assert")
    assert code == 0
    rec = parse_record(out)
    rows = rec["result"]["rows"]
    assert len(rows) == 8
    assert rec["result"]["all_match"] is True
    assert all(r["matches"] for r in rows)
    assert "erratum" in rows[3]


def test_report_determinism(tmp_path, capsys):
    path = write_scenario(tmp_path, abc_payload(0.0, 1.0, 1.0))

    def snapshot():
        code, out, _ = run_cli(capsys, "check", "all", "--scenario", path)
        assert code == 0
        return _without_clock(out)

    assert snapshot() == snapshot()


def test_protocol_command(tmp_path, capsys):
    path = write_scenario(tmp_path, abc_payload(0.0, 1.0, 1.0),
                          name="sig.json")
    payload = abc_payload(0.0, 1.0, 1.0, protocol={"lattice": LATTICE})
    path = write_scenario(tmp_path, payload, name="sig.json")
    code, out, _ = run_cli(capsys, "protocol", "--scenario", path, "--assert")
    assert code == 0
    rec = parse_record(out)
    res = rec["result"]
    assert res["constructed"] is True
    assert res["problems"] == []
    assert res["protocol"]["k"] == 1
    assert res["protocol"]["channel_gap"] == pytest.approx(1.0)
    assert len(res["audit"]) == 4
    assert all(line.endswith("ok") for line in res["audit"])


def test_protocol_command_audits_once(tmp_path, capsys, monkeypatch):
    calls = []
    audit = protocol.audit_protocol

    def counted(*args, **kwargs):
        calls.append(args)
        return audit(*args, **kwargs)

    monkeypatch.setattr(protocol, "audit_protocol", counted)
    payload = abc_payload(0.0, 1.0, 1.0, protocol={"lattice": LATTICE})
    path = write_scenario(tmp_path, payload)
    code, out, _ = run_cli(capsys, "protocol", "--scenario", path, "--assert")
    assert code == 0 and parse_record(out)["result"]["constructed"] is True
    assert len(calls) == 1


def test_protocol_reports_no_gap(tmp_path, capsys):
    payload = abc_payload(1.0, 1.0, 1.0, protocol={"lattice": LATTICE})
    path = write_scenario(tmp_path, payload)
    code, out, _ = run_cli(capsys, "protocol", "--scenario", path)
    assert code == 0
    rec = parse_record(out)
    assert rec["result"]["constructed"] is False
    code, _, _ = run_cli(capsys, "protocol", "--scenario", path, "--assert")
    assert code == 1


def test_signal_sim_writes_csv(tmp_path, capsys):
    payload = abc_payload(0.0, 1.0, 1.0,
                          protocol={"lattice": LATTICE, "trials": 500,
                                    "block_sizes": [1, 3]})
    path = write_scenario(tmp_path, payload)
    outdir = tmp_path / "report"
    code, out, _ = run_cli(capsys, "signal-sim", "--scenario", path,
                           "--out", str(outdir))
    assert code == 0
    rec = parse_record(out)
    stats = rec["result"]["stats"]
    assert [s["block_size"] for s in stats] == [1, 3]
    assert all(s["error_rate"] == 0.0 for s in stats)  # perfect channel
    csv_text = (outdir / "signal_stats.csv").read_text()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "block_size,error_rate,stderr"
    assert len(lines) == 3
    saved = json.loads((outdir / "signal-sim.json").read_text())
    assert saved["result"]["stats"] == stats


def test_signal_sim_seed_control(tmp_path, capsys):
    payload = abc_payload(0.2, 1.0, 0.6,
                          protocol={"lattice": LATTICE, "trials": 2000,
                                    "block_sizes": [1]})
    path = write_scenario(tmp_path, payload)

    def stats_for(seed):
        code, out, _ = run_cli(capsys, "signal-sim", "--scenario", path,
                               "--seed", str(seed))
        assert code == 0
        body, _, csv_part = out.partition("\n}\n")
        rec = json.loads(body + "\n}")
        assert csv_part.startswith("block_size,error_rate,stderr")
        return rec["result"]["stats"], rec["seed"]

    first, seed1 = stats_for(101)
    again, _ = stats_for(101)
    other, seed2 = stats_for(202)
    assert seed1 == 101 and seed2 == 202
    assert first == again
    assert first != other


def test_simulate_quantum_violation(tmp_path, capsys):
    payload = {
        "spacetime": {"dim": 1, "c": 1.0},
        "quantum": {"dynamics": "schrodinger", "m": 1.0, "lambda": 1.0,
                    "t": 1.0, "units": "natural",
                    "grid": {"origin": -24.0, "cell_size": 0.01171875,
                             "n": 4096},
                    "K": [[[-3.62], [3.62]]]},
    }
    path = write_scenario(tmp_path, payload)
    outdir = tmp_path / "qr"
    code, out, _ = run_cli(capsys, "simulate-quantum", "--scenario", path,
                           "--assert", "--out", str(outdir))
    assert code == 1
    rec = parse_record(out)
    res = rec["result"]
    assert res["ce"]["holds"] is False
    assert res["ce"]["deficit"] > 1e-5
    assert res["norm_final"] == pytest.approx(1.0, abs=1e-9)
    density = (outdir / "density.csv").read_text().splitlines()
    assert density[0] == "x,density"
    assert len(density) == 1 + 4096


def test_float_pairs_spell_each_value_as_fmt_float():
    # the density CSV is formatted in one format call; each value must
    # read as `_fmt_float` writes it, non-finite spellings and signed
    # zeros included, at every length
    rng = np.random.default_rng(59)
    xs = np.concatenate([rng.normal(size=40) * 10.0 ** rng.integers(
        -300, 300, 40), ODD_FLOATS])
    ys = rng.permutation(xs)
    for n in (len(xs), 2, 1, 0):
        want = "".join(f"{_fmt_float(x)},{_fmt_float(y)}\n"
                       for x, y in zip(xs[:n].tolist(), ys[:n].tolist()))
        assert _float_pairs(xs[:n], ys[:n]) == want


def test_canonical_json_matches_oracle():
    rng = np.random.default_rng(27)
    for _ in range(400):
        record = {f"key{i}": random_record(rng)
                  for i in range(int(rng.integers(0, 6)))}
        assert canonical_json(record) == canonical_json_oracle(record)
    leaves = (ODD_FLOATS + ODD_STRINGS
              + (True, False, 0, -7, None, math.pi, np.float64(-0.0),
                 np.float64(math.nan), np.int64(-3), np.bool_(True)))
    for value in leaves:
        for indent in (0, 4):
            assert (canonical_json(value, indent)
                    == canonical_json_oracle(value, indent))


def test_canonical_json_keys_round_trip():
    # keys with quotes, backslashes, control characters or non-ASCII text
    # are escaped as string values are, so the record stays valid JSON
    record = {key: i for i, key in enumerate(ODD_STRINGS)}
    record['say "hi"'] = {"back\\slash": [1.5, None], "\x00": {}}
    for indent in (0, 4):
        assert json.loads(canonical_json(record, indent)) == record
    rng = np.random.default_rng(28)
    for _ in range(200):
        record = {str(key): random_record(rng)
                  for key in rng.choice(ODD_STRINGS, 3)}
        text = canonical_json(record)
        assert text == canonical_json_oracle(record)
        assert list(json.loads(text)) == sorted(record)
    # every key a command writes is a plain name, spelled as before
    assert canonical_json({"ns_witness": 1}) == '{\n  "ns_witness": 1\n}'


def test_main_many_calls_in_one_process(tmp_path, capsys):
    # main shares one parser between calls: no call may leak a flag, an
    # exit code or an output place into the next
    scen = ("--scenario", write_scenario(tmp_path, abc_payload(0.0, 1.0, 1.0)))
    outdir = tmp_path / "out"
    steps = [
        (("check", "ce", "--method", "bruteforce", *scen), 0),
        (("check", "ce", *scen), 0),
        (("check", "ce", "--assert", *scen), 1),
        (("check", "ce", *scen), 0),
        (("check", "ce", "--out", str(outdir), *scen), 0),
        (("truth-table",), 0),
        (("check", "all", "--assert", *scen), 1),
        (("check", "all", *scen), 0),
    ]
    first = {}
    for argv, _ in steps:
        build_parser.cache_clear()  # a parser built afresh: a new process
        code, out, _ = run_cli(capsys, *argv)
        first[argv] = (code, _without_clock(out))
    build_parser.cache_clear()
    shutil.rmtree(outdir)

    for argv, want_code in steps:
        code, out, err = run_cli(capsys, *argv)
        assert (code, _without_clock(out)) == first[argv], argv
        assert code == want_code and err == "", argv
        if argv[0] == "check":
            method = argv[3] if "--method" in argv else "auto"
            assert parse_record(out)["method"] == method, argv
        if "--out" in argv:
            assert [p.name for p in outdir.iterdir()] == ["check.json"]
            assert (outdir / "check.json").read_text() == out
            written = out
    # the calls after --out printed only to stdout
    assert [p.name for p in outdir.iterdir()] == ["check.json"]
    assert (outdir / "check.json").read_text() == written

    # a bad flag after good calls still exits 2, and the next call runs
    with pytest.raises(SystemExit) as exc:
        main(["check", "ce", "--bogus", *scen])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "check", "ce", *scen)
    assert (code, _without_clock(out)) == first[("check", "ce", *scen)]


def test_simulate_quantum_narrow_region_holds(tmp_path, capsys):
    payload = {
        "spacetime": {"dim": 1, "c": 1.0},
        "quantum": {"dynamics": "schrodinger", "m": 1.0, "lambda": 1.0,
                    "t": 1.0, "units": "natural",
                    "grid": {"origin": -32.0, "cell_size": 0.0625, "n": 1024},
                    "K": [[[-1.0], [1.0]]]},
    }
    path = write_scenario(tmp_path, payload)
    outdir = tmp_path / "qr"
    code, out, _ = run_cli(capsys, "simulate-quantum", "--scenario", path,
                           "--assert", "--out", str(outdir))
    assert code == 0
    rec = parse_record(out)
    assert rec["result"]["ce"]["holds"] is True


def test_simulate_quantum_si_units_need_the_si_speed_of_light(tmp_path,
                                                             capsys):
    # an SI electron evolves at c = 299792458 m/s; with spacetime.c left at
    # 1 the ordering check ran at 1 m/s and read a violation (deficit
    # 0.487 on this file), so that pairing is an input error
    payload = {
        "spacetime": {"dim": 1, "c": 1.0},
        "quantum": {"dynamics": "schrodinger", "units": "si",
                    "m": 9.1093837015e-31, "lambda": 2e-8, "t": 1e-11,
                    "grid": {"origin": -5.12e-7, "cell_size": 2e-9,
                             "n": 512},
                    "K": [[[-2e-8], [2e-8]]]},
    }
    path = write_scenario(tmp_path, payload)
    code, out, err = run_cli(capsys, "simulate-quantum", "--scenario", path)
    assert (code, out) == (2, "")
    assert err == ("error: quantum.units evolve at c = 299792458.0, but "
                   "spacetime.c is 1.0; set it to match\n")
    payload["spacetime"]["c"] = 299792458.0
    path = write_scenario(tmp_path, payload)
    code, out, err = run_cli(capsys, "simulate-quantum", "--scenario", path,
                             "--assert", "--out", str(tmp_path / "qr"))
    assert (code, err) == (0, "")
    assert parse_record(out)["result"]["ce"]["holds"] is True


def test_scales_asymptote_and_finite_time(capsys):
    code, out, _ = run_cli(capsys, "scales", "--m", "1e-26",
                           "--lambda", "1e-6", "--t", "inf", "--units", "si")
    assert code == 0
    assert '"t": Infinity' in out
    rec = parse_record(out)
    res = rec["result"]
    assert res["ell_min"] == res["ell_min_asymptotic"]
    assert 2.7e4 < res["ell_min"] < 3.1e4

    code, out, _ = run_cli(capsys, "scales", "--m", "1e-26",
                           "--lambda", "1e-6", "--t", "10.0", "--units", "si")
    assert code == 0
    finite = parse_record(out)["result"]
    assert finite["ell_min"] > finite["ell_min_asymptotic"]


def test_grid_scenario_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(31)
    sc, expected = random_grid_scenario(rng, "generic")

    def grid_json(m):
        return {"time": m.time,
                "grid": {"origin": list(m.grid_origin),
                         "cell_size": m.grid_cell,
                         "weights": m.grid_weights.reshape(-1).tolist()}}

    payload = {
        "spacetime": {"dim": sc.cs.dim, "c": sc.cs.c},
        "measures": {name: grid_json(getattr(sc, name))
                     for name in ("mu", "nu0", "nu1", "nu_plus", "nu_minus")},
        "measurement": {"K": sc.K.to_json(), "p_plus": sc.p_plus,
                        "mu": "mu", "nu0": "nu0", "nu1": "nu1",
                        "nu_plus": "nu_plus", "nu_minus": "nu_minus"},
    }
    path = write_scenario(tmp_path, payload)
    code, out, _ = run_cli(capsys, "validate", "--scenario", path)
    assert code == 0
    assert parse_record(out)["result"]["valid"] is True
    code, out, _ = run_cli(capsys, "check", "all", "--scenario", path)
    assert code == 0
    res = parse_record(out)["result"]
    for key, want in expected.items():
        assert res[key] is want, key


def test_exit_code_two_on_missing_file(tmp_path, capsys):
    code, out, err = run_cli(capsys, "validate", "--scenario",
                             str(tmp_path / "nope.json"))
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_exit_code_two_on_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ this is not json")
    code, _, err = run_cli(capsys, "validate", "--scenario", str(path))
    assert code == 2
    assert "not valid JSON" in err


def test_exit_code_two_on_schema_errors(tmp_path, capsys):
    payload = abc_payload(0.5, 1.0, 0.0)
    del payload["measurement"]["K"]
    path = write_scenario(tmp_path, payload)
    code, _, err = run_cli(capsys, "check", "ce", "--scenario", str(path))
    assert code == 2
    assert "missing 'K'" in err

    payload = abc_payload(0.5, 1.0, 0.0)
    payload["measurement"]["nu0"] = "ghost"
    path = write_scenario(tmp_path, payload)
    code, _, err = run_cli(capsys, "check", "ce", "--scenario", str(path))
    assert code == 2
    assert "unknown measure" in err

    payload = abc_payload(0.5, 1.0, 0.0)
    payload["measurement"]["K"] = [[[-0.25]]]  # box needs both corners
    path = write_scenario(tmp_path, payload)
    code, _, err = run_cli(capsys, "check", "ce", "--scenario", str(path))
    assert code == 2
    assert "bad region" in err


def test_exit_code_two_on_scenarios_the_library_rejects(tmp_path, capsys):
    payload = json.loads((DATA / "two_atom.json").read_text())
    payload["measures"]["mu"]["time"] = 5.0  # after the detector slice
    late = write_scenario(tmp_path, payload, name="late.json")
    ring = abc_payload(0.5, 1.0, 0.0)
    ring["measures"]["mu"]["atoms"] = [[0.1 * i, 1 / 32] for i in range(32)]
    early_q = abc_payload(0.0, 1.0, 1.0,
                          protocol={"lattice": dict(LATTICE, q_time=0.5)})
    # a cone radius of 1e200 squares to inf
    far_q = abc_payload(0.0, 1.0, 1.0,
                        protocol={"lattice": dict(LATTICE, q_time=1e200)})
    far_nu = abc_payload(0.0, 1.0, 1.0)
    for name in ("nu0", "nu1", "nup", "num"):
        far_nu["measures"][name]["time"] = 1e200
    far_nu = write_scenario(tmp_path, far_nu, name="far_nu.json")
    # an atomic nu0 beside a grid nu1 has no pointwise difference
    mixed = json.loads((DATA / "two_atom.json").read_text())
    mixed["measures"]["nu1"] = {"time": 1.0, "grid": {
        "origin": [-4.0], "cell_size": 0.5,
        "weights": [0.0] * 9 + [1.0] + [0.0] * 6}}
    mixed = write_scenario(tmp_path, mixed, name="mixed.json")
    cases = [
        (("protocol",), write_scenario(tmp_path, early_q, name="q.json"),
         "receiver slice"),
        (("protocol",), write_scenario(tmp_path, far_q, name="far_q.json"),
         "cone radius overflows"),
        (("check", "ce"), far_nu, "cone radius overflows"),
        (("check", "all"), far_nu, "cone radius overflows"),
        (("check", "ce"), late, "later slice"),
        (("check", "all"), late, "later slice"),
        (("protocol",), late, "nonnegative"),
        (("signal-sim",), late, "nonnegative"),
        (("protocol",), mixed, "share geometry"),
        (("signal-sim",), mixed, "share geometry"),
        (("check", "all"), mixed, "share geometry"),
        (("check", "ce", "--method", "bruteforce"),
         str(DATA / "grid_1d.json"), "atomic mu"),
        (("check", "ce", "--method", "bruteforce"),
         write_scenario(tmp_path, ring, name="ring.json"), "capped"),
    ]
    for argv, path, message in cases:
        code, out, err = run_cli(capsys, *argv, "--scenario", path)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and message in err, argv
    # a lattice search that comes up empty is a record, not an input error
    inside = dict(LATTICE, q_lo=[0.0], q_hi=[0.5])
    path = write_scenario(tmp_path, abc_payload(
        0.0, 1.0, 1.0, protocol={"lattice": inside}), name="inside.json")
    code, out, _ = run_cli(capsys, "protocol", "--scenario", path)
    assert code == 0
    assert parse_record(out)["result"]["constructed"] is False


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("data, weight, message", [
    ("two_atom.json", 1e308, "weights must be finite and nonnegative"),
    ("grid_1d.json", 1.5e308, "grid weights must be finite and nonnegative"),
], ids=["atoms", "grid"])
@pytest.mark.parametrize("condition", ["all", "a2"])
def test_exit_code_two_when_a2_scale_overflows(data, weight, message,
                                                condition, tmp_path, capsys):
    # a2 compares nu_minus with nu0 / (1 - p_plus); a nu0 weight that the
    # scale takes past the largest float is an input error, as it was when
    # a2 built the scaled nu0 as a measure of its own, and its one error
    # line is all it writes: numpy's overflow warning is an error here
    payload = json.loads((DATA / data).read_text())
    nu0 = payload["measures"]["nu0"]
    if "atoms" in nu0:
        nu0["atoms"][0][1] = weight
    else:
        nu0["grid"]["weights"][0] = weight
    path = write_scenario(tmp_path, payload)
    code, out, err = run_cli(capsys, "check", condition, "--scenario", path)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def _set(*path_and_value):
    """Edit of a scenario payload: set the item at `path` to `value`."""
    *path, key, value = path_and_value

    def edit(payload):
        for step in path:
            payload = payload[step]
        payload[key] = value
    return edit


def _drop(*path):
    """Edit of a scenario payload: delete the item at `path`."""
    *path, key = path

    def edit(payload):
        for step in path:
            payload = payload[step]
        del payload[key]
    return edit


def _on(name, edit):
    """Edit that returns the payload of data file `name`, edited, to be
    written in place of two_atom.json's."""
    def replace(payload):
        payload = json.loads((DATA / name).read_text())
        edit(payload)
        return payload
    return replace


# two atoms of 1e308 whose cones hold nu's unit mass: a deficit near 2e308
_HUGE_MU = _set("measures", "mu", "atoms", [[0.0, 1e308], [1.5, 1e308]])


def _grid_nu0(**grid):
    return _set("measures", "nu0", {"time": 1.0, "grid": {
        "origin": [-4.0], "cell_size": 0.5,
        "weights": [0.0] * 9 + [1.0] + [0.0] * 6, **grid}})


@pytest.mark.parametrize("edit, argv, message", [
    (_set("measures", "nu0", "atoms", 0, [0.9, -0.2]), ("check", "all"),
     "bad measure 'nu0': weights must be finite and nonnegative"),
    (_set("measures", "nu0", "atoms", 0, [0.9, -0.2]),
     ("check", "all", "--assert"),
     "bad measure 'nu0': weights must be finite and nonnegative"),
    (_set("measures", "nu0", "atoms", 1, [0.9, 0.8]), ("check", "all"),
     "bad measure 'nu0': duplicate atom position"),
    (_set("measures", "mu", "time", "abc"), ("check", "all"),
     "bad measure 'mu': could not convert string to float: 'abc'"),
    (_set("measurement", "p_plus", "half"), ("check", "all"),
     "could not convert string to float: 'half'"),
    (_set("seed", "x"), ("check", "all"),
     "invalid literal for int() with base 10: 'x'"),
    (_grid_nu0(cell_size=-1), ("check", "all"),
     "bad measure 'nu0': cell size must be positive"),
    (_grid_nu0(weights="x"), ("check", "all"),
     "bad measure 'nu0': could not convert string to float: 'x'"),
    (_set("measures", "mu", "time", None), ("check", "all"),
     "bad measure 'mu': float() argument must be a string or a"),
    # a slice time that is not finite once passed validate and was then
    # read as a cone radius that overflows
    (_set("measures", "mu", "time", math.nan), ("validate", "--assert"),
     "bad measure 'mu': slice time must be finite"),
    (_set("measures", "nu0", "time", math.inf), ("check", "all"),
     "bad measure 'nu0': slice time must be finite"),
    (_set("measures", "mu", "time", -math.inf), ("check", "ce"),
     "bad measure 'mu': slice time must be finite"),
    (_on("grid_1d.json", _set("measures", "mu", "time", math.nan)),
     ("validate",), "bad measure 'mu': slice time must be finite"),
    (_set("measures", "nu0", "atoms", 0, [0.0, None]), ("validate",),
     "bad measure 'nu0': float() argument must be a string or a"),
    # an object row once raised KeyError: -1; a string row was read
    # character by character, "12" as an atom at x = 1 of weight 2
    (_set("measures", "mu", "atoms", 0, {"x": 0.0}), ("check", "all"),
     "bad measure 'mu': atom rows are lists of coordinates and a weight, "
     "got {'x': 0.0}"),
    (_set("measures", "nu0", "atoms", 1, "12"), ("check", "all"),
     "bad measure 'nu0': atom rows are lists of coordinates and a weight, "
     "got '12'"),
    (_set("measures", "nu1", "atoms", 0, [0.5]), ("validate",),
     "bad measure 'nu1': atom rows are lists of coordinates and a weight, "
     "got [0.5]"),
    (None, ("scales", "--m", "1", "--lambda", "1", "--t", "abc"),
     "could not convert string to float: 'abc'"),
    # NaN passed every positivity check; inf made ell_min inf, compton 0
    (None, ("scales", "--m", "nan", "--lambda", "1"),
     "m and lambda must be finite and > 0, t > 0"),
    (None, ("scales", "--m", "inf", "--lambda", "1"),
     "m and lambda must be finite and > 0, t > 0"),
    (None, ("scales", "--m", "1", "--lambda", "nan"),
     "m and lambda must be finite and > 0, t > 0"),
    (None, ("scales", "--m", "1", "--lambda", "inf"),
     "m and lambda must be finite and > 0, t > 0"),
    (None, ("scales", "--m", "1", "--lambda", "1", "--t", "nan"),
     "m and lambda must be finite and > 0, t > 0"),
    # finite inputs whose scales overflow or underflow a float
    (None, ("scales", "--m", "1e300", "--lambda", "1e10"),
     "the scales overflow or underflow a float: ell_min inf"),
    (None, ("scales", "--m", "1", "--lambda", "1e-200", "--t", "1"),
     "the scales overflow or underflow a float: ell_min 0.0"),
    (_set("measures", []), ("check", "all"),
     "scenario 'measures' in the root must be an object"),
    (_set("measurement", 5), ("check", "all"),
     "scenario 'measurement' in the root must be an object"),
    (_set("protocol", 5), ("protocol",),
     "scenario 'protocol' in the root must be an object"),
    (_set("quantum", 5), ("simulate-quantum",),
     "scenario 'quantum' in the root must be an object"),
    (_set("measurement", "mu", [1]), ("check", "all"),
     "measurement.mu references unknown measure '[1]'"),
    (lambda payload: payload.update(
        quantum=dict(QUANTUM["quantum"], units=[])), ("simulate-quantum",),
     "quantum.units must be 'natural' or 'si'"),
    # counts and lists are read whole, never truncated or split
    (_set("spacetime", "dim", 1.9), ("check", "all"),
     "bad 'dim' in spacetime: expected an integer, got 1.9"),
    (_set("spacetime", "dim", True), ("check", "all"),
     "bad 'dim' in spacetime: expected an integer, got True"),
    (_set("seed", 2.7), ("check", "all"),
     "bad 'seed' in the root: expected an integer, got 2.7"),
    (_set("protocol", "trials", 2000.9), ("signal-sim",),
     "bad 'trials' in protocol: expected an integer, got 2000.9"),
    (_set("protocol", "block_sizes", "12"), ("signal-sim",),
     "bad 'block_sizes' in protocol: expected a list, got '12'"),
    (_set("protocol", "lattice", "q_points", 13.7), ("protocol",),
     "bad 'q_points' in protocol.lattice: expected an integer, got 13.7"),
    (_set("protocol", "lattice", "p_points", True), ("protocol",),
     "bad 'p_points' in protocol.lattice: expected an integer, got True"),
    (_set("protocol", "lattice", "q_lo", "2"), ("protocol",),
     "bad 'q_lo' in protocol.lattice: expected a list, got '2'"),
    # corners of different lengths, once zipped down to the shorter one
    (_set("protocol", "lattice", "q_hi", [4.5, 9.0]), ("protocol",),
     "bad lattice: q_lo and q_hi differ in length (1 and 2)"),
    (_set("protocol", "lattice", "p_lo", [-4.0, -4.0]), ("signal-sim",),
     "bad lattice: p_lo and p_hi differ in length (2 and 1)"),
    # non-finite fields once raised IndexError tracebacks, built a
    # lattice of NaNs or blamed the cone radius or an int conversion
    (_set("protocol", "lattice", "p_lo", [-math.inf]), ("protocol",),
     "bad lattice: p_lo must be finite, got (-inf,)"),
    (_set("protocol", "lattice", "p_lo", [math.nan]), ("signal-sim",),
     "bad lattice: p_lo must be finite, got (nan,)"),
    (_set("protocol", "lattice", "p_hi", [math.inf]), ("protocol",),
     "bad lattice: p_hi must be finite, got (inf,)"),
    (_set("protocol", "lattice", "q_lo", [math.inf]), ("protocol",),
     "bad lattice: q_lo must be finite, got (inf,)"),
    (_set("protocol", "lattice", "q_time", math.nan), ("protocol",),
     "bad lattice: q_time must be finite, got nan"),
    (_set("protocol", "lattice", "p_time", math.nan), ("signal-sim",),
     "bad lattice: p_time must be finite, got nan"),
    (_set("protocol", "lattice", "cover_resolution", math.nan),
     ("protocol",), "bad lattice: cover_resolution must be finite, got nan"),
    # rejected before numpy is asked for 10**12 lattice points
    (_set("protocol", "lattice", "q_points", 10 ** 12), ("protocol",),
     f"the receiver lattice takes {10 ** 12} points, above the limit"),
    (_set("protocol", "lattice", "p_points", 10 ** 12), ("signal-sim",),
     f"the sender lattice takes {10 ** 12} points, above the limit"),
    # rejected before numpy is asked for 10**12 trials, a block size that
    # rng.binomial cannot take or a 2**40-cell packet grid
    (_set("protocol", "trials", 10 ** 12), ("signal-sim",),
     f"{10 ** 12} trials are above the limit of"),
    (_set("protocol", "block_sizes", [10 ** 30]), ("signal-sim",),
     f"block size {10 ** 30} is above the limit of"),
    (lambda payload: payload.update(quantum=dict(
        QUANTUM["quantum"], grid=dict(QUANTUM["quantum"]["grid"],
                                      n=2 ** 40))), ("simulate-quantum",),
     f"grid size {2 ** 40} is above the limit of"),
    # string coordinates were read character by character: origin "5" as
    # (5.0,), a K corner pair "0", "1" as [0, 1] and "05", "16" as the
    # box (0, 5)-(1, 6)
    (_on("grid_1d.json", _set("measures", "mu", "grid", "origin", "5")),
     ("check", "all"), "bad measure 'mu': expected a list, got '5'"),
    (_set("measurement", "K", [["0", "1"]]), ("check", "all"),
     "bad region in measurement.K: box corners are sequences of "
     "coordinates, got '0' and '1'"),
    (_on("annulus_64.json", _set("measurement", "K", [["05", "16"]])),
     ("check", "all"), "bad region in measurement.K: box corners are "
     "sequences of coordinates, got '05' and '16'"),
    (lambda payload: payload.update(
        quantum=dict(QUANTUM["quantum"], K=[["0", "1"]])),
     ("simulate-quantum",), "bad region in quantum.K: box corners are "
     "sequences of coordinates, got '0' and '1'"),
    # missing or unusable sections
    (_set("measures", "nu0", {"time": 1.0}), ("check", "all"),
     "measure 'nu0' needs 'atoms' or 'grid'"),
    (lambda payload: [payload], ("check", "all"),
     "scenario root must be an object"),
    (_drop("measurement"), ("check", "all"),
     "scenario has no 'measurement' section"),
    (_drop("protocol", "lattice"), ("protocol",),
     "scenario has no protocol.lattice section"),
    (_set("measurement", "nu1", "nu0"), ("signal-sim",),
     "cannot build a protocol to simulate: find_ns_witness found no "
     "marginal gap"),
    (lambda payload: None, ("simulate-quantum",),
     "scenario has no 'quantum' section"),
    (lambda payload: payload.update(quantum=QUANTUM["quantum"],
                                    spacetime={"dim": 2, "c": 1.0}),
     ("simulate-quantum",), "quantum dynamics are one-dimensional"),
    (lambda payload: payload.update(
        quantum=dict(QUANTUM["quantum"], dynamics="klein-gordon")),
     ("simulate-quantum",), "unknown dynamics 'klein-gordon'"),
    # a float deficit past the largest float: maxflow raised OverflowError
    # with a traceback, brute force wrote "deficit": Infinity
    (_HUGE_MU, ("check", "ce", "--method", "auto"),
     "the deficit overflows a float"),
    (_HUGE_MU, ("check", "ce", "--method", "bruteforce"),
     "the deficit overflows a float"),
    (_HUGE_MU, ("check", "ce", "--method", "maxflow"),
     "the deficit overflows a float"),
    (_HUGE_MU, ("check", "all"), "the deficit overflows a float"),
    # grid origins and cell sizes whose cell centers are not finite: the
    # ordering check once raised IndexError from the cone windows, validate
    # passed them (with a numpy overflow warning for the last), a NaN grid
    # mu was blamed on the box corners and a NaN grid nu0 on the geometry
    (_on("born_1d.json", _set("measures", "mu", "grid", "origin",
                              [math.nan])), ("check", "ce"),
     "bad measure 'mu': grid origin must be finite"),
    (_on("born_1d.json", _set("measures", "mu", "grid", "origin",
                              [math.inf])), ("check", "all"),
     "bad measure 'mu': grid origin must be finite"),
    (_on("born_1d.json", _set("measures", "mu", "grid", "origin",
                              [math.nan])), ("validate",),
     "bad measure 'mu': grid origin must be finite"),
    (_on("born_1d.json", _set("measures", "mu", "grid", "cell_size",
                              1e308)), ("check", "ce"),
     "bad measure 'mu': grid cell centers must be finite"),
    (_on("born_1d.json", lambda payload: payload["measures"]["mu"][
        "grid"].update(origin=[1e308], cell_size=1e306)), ("validate",),
     "bad measure 'mu': grid cell centers must be finite"),
    (_on("grid_1d.json", _set("measures", "mu", "grid", "origin",
                              [math.nan])), ("check", "all"),
     "bad measure 'mu': grid origin must be finite"),
    (_on("grid_1d.json", _set("measures", "nu0", "grid", "origin",
                              [math.nan])), ("check", "all"),
     "bad measure 'nu0': grid origin must be finite"),
], ids=["negative_weight", "negative_weight_assert", "duplicate_atom",
        "time_abc", "p_plus_half", "seed_x", "cell_size_negative",
        "weights_x", "time_null", "time_nan", "time_inf", "time_neg_inf",
        "grid_time_nan", "weight_null", "atom_row_object",
        "atom_row_str", "atom_row_short", "scales_t_abc",
        "scales_m_nan", "scales_m_inf", "scales_lambda_nan",
        "scales_lambda_inf", "scales_t_nan", "scales_overflow",
        "scales_underflow",
        "measures_list", "measurement_number", "protocol_number",
        "quantum_number", "reference_list", "units_list", "dim_fraction",
        "dim_bool", "seed_fraction", "trials_fraction", "block_sizes_str",
        "q_points_fraction", "p_points_bool", "q_lo_str", "q_hi_longer",
        "p_lo_longer", "p_lo_neg_inf", "p_lo_nan", "p_hi_inf", "q_lo_inf",
        "q_time_nan", "p_time_nan", "cover_resolution_nan", "q_points_huge",
        "p_points_huge", "trials_huge", "block_size_huge", "grid_n_huge",
        "grid_origin_str", "k_corners_str", "annulus_k_corners_str",
        "quantum_k_corners_str", "measure_neither_atoms_nor_grid",
        "root_list", "no_measurement", "no_lattice", "signal_sim_no_gap",
        "no_quantum", "quantum_dim_2", "dynamics_unknown",
        "deficit_overflow_auto", "deficit_overflow_bruteforce",
        "deficit_overflow_maxflow", "deficit_overflow_all",
        "grid_origin_nan_ce", "grid_origin_inf_all",
        "grid_origin_nan_validate", "grid_cell_size_overflow",
        "grid_last_center_overflow", "grid_28_origin_nan",
        "grid_nu0_origin_nan"])
def test_exit_code_two_on_every_rejected_value(edit, argv, message, tmp_path,
                                               capsys):
    # each of these once escaped main as a traceback with exit code 1, was
    # read as something else, or was reached by no other test
    if edit is not None:
        payload = json.loads((DATA / "two_atom.json").read_text())
        # an edit changes the payload in place or returns the one to write
        edited = edit(payload)
        payload = payload if edited is None else edited
        argv += ("--scenario", write_scenario(tmp_path, payload))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


QUANTUM = {
    "spacetime": {"dim": 1, "c": 1.0},
    "quantum": {"dynamics": "schrodinger", "m": 1.0, "lambda": 1.0,
                "t": 1.0, "x0": 0.0, "k0": 0.0,
                "grid": {"origin": -8.0, "cell_size": 0.0625, "n": 256},
                "K": [[[-1.0], [1.0]]]},
}


@pytest.mark.parametrize("path, argv", [
    (("seed",), ("check", "all")),
    (("measurement", "p_plus"), ("check", "all")),
    (("spacetime", "c"), ("check", "all")),
    (("spacetime", "dim"), ("validate",)),
    (("spacetime",), ("validate",)),
    (("protocol", "trials"), ("signal-sim",)),
    (("protocol", "block_sizes"), ("signal-sim",)),
    (("protocol", "block_sizes", 1), ("signal-sim",)),
    (("quantum", "m"), ("simulate-quantum",)),
    (("quantum", "lambda"), ("simulate-quantum",)),
    (("quantum", "t"), ("simulate-quantum",)),
    (("quantum", "x0"), ("simulate-quantum",)),
    (("quantum", "k0"), ("simulate-quantum",)),
    (("quantum", "grid"), ("simulate-quantum",)),
    (("quantum", "grid", "origin"), ("simulate-quantum",)),
    (("quantum", "grid", "cell_size"), ("simulate-quantum",)),
    (("quantum", "grid", "n"), ("simulate-quantum",)),
], ids=lambda v: ".".join(map(str, v)) if isinstance(v[0], str) else None)
def test_exit_code_two_on_null_scalar(path, argv, tmp_path, capsys):
    # each of these once escaped main as a TypeError traceback, exit 1
    source = QUANTUM if path[0] == "quantum" else json.loads(
        (DATA / "two_atom.json").read_text())
    payload = json.loads(json.dumps(source))
    _set(*path, None)(payload)
    argv += ("--scenario", write_scenario(tmp_path, payload))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Error" not in err


@pytest.mark.parametrize("k", [None, []], ids=["null", "no_boxes"])
def test_exit_code_two_on_empty_detector_region(k, tmp_path, capsys):
    # a missing K exits 2, so an empty one does too, in the measurement
    # and in the quantum section; null still reads as the empty region
    # where a record holds it (a holding worst set)
    payload = json.loads((DATA / "two_atom.json").read_text())
    payload["measurement"]["K"] = k
    path = write_scenario(tmp_path, payload)
    for argv in (("check", "all"), ("protocol",)):
        code, out, err = run_cli(capsys, *argv, "--scenario", path)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and "K" in err, argv
    payload = json.loads(json.dumps(QUANTUM))
    payload["quantum"]["K"] = k
    path = write_scenario(tmp_path, payload, name="quantum.json")
    code, out, err = run_cli(capsys, "simulate-quantum", "--scenario", path)
    assert (code, out) == (2, "") and "quantum.K is empty" in err
    assert Region.from_json(None, 2).is_empty


def test_exit_code_two_on_too_fine_cover_resolution(tmp_path, capsys):
    # 2**-40 asks for 2**39 cover points on K = [-0.25, 0.25]
    payload = json.loads((DATA / "two_atom.json").read_text())
    payload["protocol"]["lattice"]["cover_resolution"] = 2.0 ** -40
    path = write_scenario(tmp_path, payload, name="fine.json")
    for command in ("protocol", "signal-sim"):
        code, out, err = run_cli(capsys, command, "--scenario", path)
        assert (code, out) == (2, ""), command
        assert err.startswith("error:"), command
        assert f"takes {2 ** 39} points, above the limit" in err, command


@pytest.mark.parametrize("argv, accepted", [
    # flags no handler of the command reads are not offered
    (["truth-table", "--seed", "1"], False),
    (["truth-table", "--exact-rational"], False),
    (["scales", "--m", "1", "--lambda", "1", "--assert"], False),
    (["signal-sim", "--scenario", "f", "--assert"], False),
    (["truth-table", "--assert"], True),
    (["signal-sim", "--scenario", "f", "--seed", "3"], True),
    (["validate", "--scenario", "f", "--seed", "1"], False),
    (["simulate-quantum", "--scenario", "f", "--seed", "1"], False),
    (["simulate-quantum", "--scenario", "f", "--exact-rational"], False),
    (["validate", "--scenario", "f", "--exact-rational", "--assert"], True),
    (["simulate-quantum", "--scenario", "f", "--assert"], True),
    # scripts pass --seed to every scenario command that takes it
    (["check", "all", "--scenario", "f", "--seed", "3"], True),
    (["protocol", "--scenario", "f", "--seed", "3", "--exact-rational"], True),
])
def test_flags_offered_only_where_read(argv, accepted, capsys):
    if accepted:
        build_parser().parse_args(argv)
        return
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_exact_rational_rejects_grid_measures(tmp_path, capsys):
    payload = abc_payload(0.5, 1.0, 0.0)
    payload["measures"]["nu0"] = {
        "time": 1.0,
        "grid": {"origin": [-4.0], "cell_size": 0.5, "weights": [1.0] + [0.0] * 15},
    }
    path = write_scenario(tmp_path, payload)
    code, _, err = run_cli(capsys, "validate", "--scenario", path,
                           "--exact-rational")
    assert code == 2
    assert "exact-rational" in err


def test_out_directory_written_atomically(tmp_path, capsys):
    path = write_scenario(tmp_path, abc_payload(0.0, 1.0, 1.0))
    outdir = tmp_path / "nested" / "deeper"
    code, out, _ = run_cli(capsys, "check", "ce", "--scenario", path,
                           "--out", str(outdir))
    assert code == 0
    saved = (outdir / "check.json").read_text()
    assert saved == out
    assert not [p for p in outdir.iterdir() if ".json." in p.name]


# Records of d = 1 scenario files, each the stdout of
# `causal-lab <command> --scenario tests/data/<file>` without its
# wall_clock_s line, written when the future of a region in d >= 2 was
# still a box dilation and the d = 1 future had no cone slack.  Every
# d = 1 record is unchanged since then, byte for byte.  shuffled_1d.json
# lists the atoms of nu1, nu_plus and nu_minus in orders other than
# nu0's, some at points nu0 does not hold; its record was written while
# each check still asked the detector future of its own support.
DATA = Path(__file__).parent / "data"
GOLDEN = {
    "check_all_two_atom": ("check", "all", "two_atom.json"),
    "protocol_two_atom": ("protocol", "two_atom.json"),
    "signal_sim_two_atom": ("signal-sim", "two_atom.json"),
    "check_all_grid_1d": ("check", "all", "grid_1d.json"),
    "check_all_shuffled_1d": ("check", "all", "shuffled_1d.json"),
    # mu the Born weights of a Gaussian on 128 cells, every later role
    # their free evolution, K 48 cells: its failing ordering check is the
    # only one here with more than SMALL_SWEEP_ATOMS sources
    "check_all_born_1d": ("check", "all", "born_1d.json"),
    # a worst set of three separate atoms, -9, 10 and 11, from the scan
    # over fewer than SMALL_SWEEP_ATOMS sources
    "check_all_drained_1d": ("check", "all", "drained_1d.json"),
}


# the same on tests/data/annulus_64.json, `make_annulus_scenario(64)`: a
# d = 2 detector region of 248 boxes with disjoint interiors (the ring's 64
# overlapping boxes carved) and a cover by ten senders
GOLDEN_D2 = {
    "check_all_annulus_64": ("check", "all", "annulus_64.json"),
    "protocol_annulus_64": ("protocol", "annulus_64.json"),
    "signal_sim_annulus_64": ("signal-sim", "annulus_64.json"),
    # a failing ordering check: drained_2d.json's deficit is mass whose
    # cones hold no target, and its worst set those atoms
    "check_all_drained_2d": ("check", "all", "drained_2d.json"),
}


# tests/data/ring_3d.json: the 16-segment annulus lifted to d = 3 (K boxes
# 0.22 deep on z, a 15^3 sender lattice) and a cover by nine senders;
# written while the sender reach was still a dense matrix
GOLDEN_D3 = {
    "protocol_ring_3d": ("protocol", "ring_3d.json"),
    "signal_sim_ring_3d": ("signal-sim", "ring_3d.json"),
    "check_all_drained_3d": ("check", "all", "drained_3d.json"),
}


def _matches_golden(capsys, name, command):
    *command, scenario = command
    code, out, _ = run_cli(capsys, *command, "--scenario",
                           str(DATA / scenario))
    assert code == 0
    assert _without_clock(out) == (DATA / f"{name}.out").read_text()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_d1_records_match_golden(name, capsys):
    _matches_golden(capsys, name, GOLDEN[name])


@pytest.mark.parametrize("name", sorted(GOLDEN_D2))
def test_d2_records_match_golden(name, capsys):
    _matches_golden(capsys, name, GOLDEN_D2[name])


@pytest.mark.parametrize("name", sorted(GOLDEN_D3))
def test_d3_records_match_golden(name, capsys):
    _matches_golden(capsys, name, GOLDEN_D3[name])


def test_uncarved_annulus_k_matches_golden(tmp_path, capsys):
    # K as the ring's 64 overlapping boxes, not the file's 248 carved ones:
    # the same union, so `check all` writes the golden record less its
    # input digest, and `protocol` still needs several senders
    payload = json.loads((DATA / "annulus_64.json").read_text())
    payload["measurement"]["K"] = \
        protocol.make_annulus_scenario(64)[0].K.to_json()
    assert len(payload["measurement"]["K"]) == 64
    path = write_scenario(tmp_path, payload)

    def without_digest(out):
        return "".join(line for line in out.splitlines(keepends=True)
                       if "input_digest" not in line)

    code, out, _ = run_cli(capsys, "check", "all", "--scenario", path)
    assert code == 0
    want = (DATA / "check_all_annulus_64.out").read_text()
    assert without_digest(_without_clock(out)) == without_digest(want)
    code, out, _ = run_cli(capsys, "protocol", "--scenario", path)
    assert code == 0
    res = parse_record(out)["result"]
    assert res["constructed"] is True and res["problems"] == []
    assert res["protocol"]["k"] > 1
    assert res["protocol"]["K"] == payload["measurement"]["K"]


# stdout of `simulate-quantum` (record, then density.csv) on
# tests/data/quantum_1d.json with its dynamics rewritten, without the
# wall_clock_s line, written before the two packet classes shared one
# base (schrodinger, the file's own, before the phases were taken on half
# the spectrum; its ordering check fails on more than SMALL_SWEEP_ATOMS
# sources); for dirac k0 is dropped, which changes only input_digest.  FFTs
# and transcendentals round differently across numpy builds and CPUs, so
# the numbers match to 1e-9 and the text around them exactly.
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


@pytest.mark.parametrize("dynamics", ["schrodinger", "relativistic", "dirac"])
def test_simulate_quantum_records_match_golden(dynamics, tmp_path, capsys):
    payload = json.loads((DATA / "quantum_1d.json").read_text())
    payload["quantum"]["dynamics"] = dynamics
    if dynamics == "dirac":
        # the spinor bump takes no wavenumber
        del payload["quantum"]["k0"]
    path = write_scenario(tmp_path, payload)
    code, out, _ = run_cli(capsys, "simulate-quantum", "--scenario", path)
    assert code == 0
    got = _without_clock(out)
    want = (DATA / f"simulate_quantum_{dynamics}.out").read_text()
    assert NUMBER.sub("#", got) == NUMBER.sub("#", want)
    assert ([float(v) for v in NUMBER.findall(got)]
            == pytest.approx([float(v) for v in NUMBER.findall(want)],
                             rel=1e-9, abs=1e-13))


def test_simulate_quantum_dirac_rejects_k0(tmp_path, capsys):
    # the spinor bump takes no wavenumber: a nonzero k0 is an input error,
    # and k0 = 0 gives the record and density of an absent k0
    outputs = {}
    for k0 in (0.5, -1e-300, 0.0, None):
        payload = json.loads(json.dumps(QUANTUM))
        payload["quantum"]["dynamics"] = "dirac"
        if k0 is None:
            del payload["quantum"]["k0"]
        else:
            payload["quantum"]["k0"] = k0
        path = write_scenario(tmp_path, payload)
        code, out, err = run_cli(capsys, "simulate-quantum", "--scenario",
                                 path)
        if k0:
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and "quantum.k0" in err
            assert err.count("\n") == 1
        else:
            assert (code, err) == (0, "")
            outputs[k0] = [line for line in out.splitlines()
                           if "input_digest" not in line
                           and "wall_clock_s" not in line]
    assert outputs[0.0] == outputs[None]


def test_validate_flags_atomic_nu0_beside_grid_nu1(tmp_path, capsys):
    # nu1 and nu_plus / nu_minus as 16-cell grids that mix exactly, with
    # nu0 left atomic: ns cannot line nu0 up with nu1
    def grid(cells):
        weights = [0.0] * 16
        for i, w in cells.items():
            weights[i] = w
        return {"time": 1.0, "grid": {"origin": [0.0], "cell_size": 0.25,
                                      "weights": weights}}

    payload = json.loads((DATA / "two_atom.json").read_text())
    payload["measures"].update(nu1=grid({3: 0.8, 8: 0.2}),
                               nup=grid({3: 1.0}),
                               num=grid({3: 0.6, 8: 0.4}))
    path = write_scenario(tmp_path, payload)
    violations = conditions.validate(Scenario(path).measurement_scenario())
    assert violations == ["marginal: nu0 and nu1 are not comparable "
                          "(grid measures must share geometry to compare)"]
    code, out, _ = run_cli(capsys, "validate", "--scenario", path, "--assert")
    assert code == 1
    assert parse_record(out)["result"]["violations"] == violations
    # the verdicts need that comparison, so check refuses the file
    code, _, err = run_cli(capsys, "check", "all", "--scenario", path)
    assert code == 2 and "share geometry" in err


def _methods_agree(capsys, name):
    """`check ce` auto and bruteforce on a data file: one result."""
    path = str(DATA / name)
    code, out, _ = run_cli(capsys, "validate", "--assert", "--scenario", path)
    assert code == 0
    results = {}
    for method in ("auto", "bruteforce"):
        code, out, _ = run_cli(capsys, "check", "ce", "--method", method,
                               "--scenario", path)
        assert code == 0
        results[method] = parse_record(out)["result"]
        results[method].pop("method")
    assert results["auto"] == results["bruteforce"]
    return results["auto"]


def test_drained_2d_methods_agree(capsys):
    # the d = 2 file of the console-script smoke step: four atoms whose
    # cones hold no nu mass are the one worst set, found by both methods
    result = _methods_agree(capsys, "drained_2d.json")
    assert result["holds"] is False
    assert result["deficit"] == 0.75
    assert result["worst_set"] == [
        [[x, y], [x, y]] for x, y in ((10, 0), (10, 2), (12, 0), (12, 2))]


def test_drained_3d_methods_agree(capsys):
    # the d = 3 file of the same smoke step, built the same way
    result = _methods_agree(capsys, "drained_3d.json")
    assert result["holds"] is False
    assert result["deficit"] == 0.75
    assert result["worst_set"] == [
        [p, p] for p in ([10, 0, 0], [10, 2, 0], [12, 0, 2], [12, 2, 2])]
