"""CLI contract tests: exit codes, determinism, dumps, round-trips."""

from __future__ import annotations

import json

import pytest

from loopjet.cli import csv_to_explicit_coeffs, main
from loopjet.scenario import ScenarioConfig

MINIMAL = {
    "schema": "loopjet-scenario/1",
    "family": "akns_sl2",
    "n": 2,
    "variant": "standard",
    "flows": 2,
    "order": 2,
    "f_source": {"kind": "explicit",
                 "coeffs": []},
    "suites": ["factorization", "tau"],
}

E21_FIXTURE = {
    "schema": "loopjet-scenario/1",
    "family": "akns_sl2",
    "n": 2,
    "variant": "standard",
    "flows": 2,
    "order": 2,
    "f_source": {"kind": "explicit",
                 "coeffs": [[0, 1, 1, 1.0, 0.0], [0, 2, 2, 1.0, 0.0],
                            [-1, 2, 1, 1.0, 0.0]]},
    "suites": ["factorization", "flows", "tau"],
}

SEEDED = {
    "schema": "loopjet-scenario/1",
    "family": "akns_sl2",
    "n": 2,
    "variant": "standard",
    "flows": 3,
    "order": 3,
    "f_source": {"kind": "seeded", "seed": 7, "depth": 3, "amplitude": 0.3},
    "suites": ["factorization", "tau"],
}


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def _strip_timing(report_text: str) -> str:
    doc = json.loads(report_text)
    doc.pop("timing_s", None)
    return json.dumps(doc, sort_keys=True)


def test_minimal_identity_config_all_pass(tmp_path):
    # f = I (empty explicit table = identity): every defect must be ~0
    cfg = dict(MINIMAL)
    cfg["f_source"] = {"kind": "explicit",
                       "coeffs": [[0, 1, 1, 1.0, 0.0], [0, 2, 2, 1.0, 0.0]]}
    rc = main(["run", "--config", _write(tmp_path, "c.json", cfg),
               "--out", str(tmp_path / "r.json")])
    assert rc == 0
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["passed"]
    assert all(c["max_defect"] < 1e-12 for c in doc["checks"])


def test_e21_fixture_report_and_dump(tmp_path):
    cfgp = _write(tmp_path, "c.json", E21_FIXTURE)
    rc = main(["run", "--config", cfgp, "--out", str(tmp_path / "r.json")])
    assert rc == 0
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["passed"]
    rc = main(["dump", "--config", cfgp, "--target", "u",
               "--out", str(tmp_path / "u.csv")])
    assert rc == 0
    lines = (tmp_path / "u.csv").read_text().strip().splitlines()
    assert lines[0] == "multi_index,lambda_degree,row,col,re,im"
    body = lines[1:]
    # the constant solution r = 2i: a single entry family at row 2, col 1
    assert body == ["0;0,0,2,1,0,2"]
    rc = main(["dump", "--config", cfgp, "--target", "lntau",
               "--out", str(tmp_path / "ln.csv")])
    assert rc == 0
    assert (tmp_path / "ln.csv").read_text().strip().splitlines()[1:] == []


def test_dump_identity_u_is_empty(tmp_path):
    cfg = dict(MINIMAL)
    cfg["f_source"] = {"kind": "explicit",
                       "coeffs": [[0, 1, 1, 1.0, 0.0], [0, 2, 2, 1.0, 0.0]]}
    cfgp = _write(tmp_path, "c.json", cfg)
    main(["dump", "--config", cfgp, "--target", "u",
          "--out", str(tmp_path / "u.csv")])
    assert (tmp_path / "u.csv").read_text().strip().splitlines()[1:] == []


def test_determinism_byte_identical(tmp_path):
    cfgp = _write(tmp_path, "c.json", SEEDED)
    main(["run", "--config", cfgp, "--out", str(tmp_path / "a.json")])
    main(["run", "--config", cfgp, "--out", str(tmp_path / "b.json")])
    a = _strip_timing((tmp_path / "a.json").read_text())
    b = _strip_timing((tmp_path / "b.json").read_text())
    assert a == b
    main(["dump", "--config", cfgp, "--target", "M",
          "--out", str(tmp_path / "m1.csv")])
    main(["dump", "--config", cfgp, "--target", "M",
          "--out", str(tmp_path / "m2.csv")])
    assert (tmp_path / "m1.csv").read_text() == (tmp_path / "m2.csv").read_text()


def test_seed_override_changes_data(tmp_path):
    cfgp = _write(tmp_path, "c.json", SEEDED)
    main(["run", "--config", cfgp, "--out", str(tmp_path / "a.json")])
    main(["run", "--config", cfgp, "--seed", "8",
          "--out", str(tmp_path / "b.json")])
    a = json.loads((tmp_path / "a.json").read_text())
    b = json.loads((tmp_path / "b.json").read_text())
    assert a["scenario"]["f_source"]["seed"] == 7
    assert b["scenario"]["f_source"]["seed"] == 8
    assert a["checks"] != b["checks"]


def test_round_trip_dump_to_explicit_f(tmp_path):
    cfgp = _write(tmp_path, "c.json", SEEDED)
    main(["run", "--config", cfgp, "--out", str(tmp_path / "a.json")])
    main(["dump", "--config", cfgp, "--target", "M",
          "--out", str(tmp_path / "m.csv")])
    coeffs = csv_to_explicit_coeffs((tmp_path / "m.csv").read_text())
    cfg2 = dict(SEEDED)
    cfg2["f_source"] = {"kind": "explicit", "coeffs": coeffs}
    cfgp2 = _write(tmp_path, "c2.json", cfg2)
    main(["run", "--config", cfgp2, "--out", str(tmp_path / "b.json")])
    a = json.loads((tmp_path / "a.json").read_text())
    b = json.loads((tmp_path / "b.json").read_text())
    assert a["checks"] == b["checks"]
    assert a["conventions"] == b["conventions"]


def test_exit_code_invalid_config(tmp_path):
    bad = dict(SEEDED)
    bad["family"] = "nonsense"
    rc = main(["run", "--config", _write(tmp_path, "c.json", bad),
               "--out", str(tmp_path / "r.json")])
    assert rc == 2
    notjson = tmp_path / "x.json"
    notjson.write_text("{oops")
    assert main(["run", "--config", str(notjson),
                 "--out", str(tmp_path / "r.json")]) == 2


def test_exit_code_check_failure(tmp_path):
    cfg = dict(SEEDED)
    cfg["tolerances"] = {"fact_soundness": 1e-30}
    rc = main(["run", "--config", _write(tmp_path, "c.json", cfg),
               "--out", str(tmp_path / "r.json")])
    assert rc == 1
    doc = json.loads((tmp_path / "r.json").read_text())
    assert not doc["passed"]


def test_exit_code_numerical_failure(tmp_path):
    cfg = dict(SEEDED)
    cfg["window"] = {"lo": -6, "hi": 4}
    rc = main(["run", "--config", _write(tmp_path, "c.json", cfg),
               "--out", str(tmp_path / "r.json")])
    assert rc == 3


@pytest.mark.parametrize("path,value", [
    (("order",), "three"), (("flows",), "two"), (("n",), "2x"),
    (("f_source", "depth"), "deep"), (("f_source", "seed"), [7]),
    (("f_source", "amplitude"), "big"), (("window", "lo"), "low"),
    (("flows",), 0), (("f_source", "depth"), 0), (("suites",), "factorization"),
    (("f_source",), {"kind": "explicit", "coeffs": [[-1, 5, 1, 0.1, 0.0]]}),
    (("virasoro", "ells"), "abc"), (("virasoro", "ells"), [-2]),
    (("virasoro", "gammas"), "zero"), (("tolerances", "fact_oracle"), -1.0)])
def test_exit_code_malformed_field(tmp_path, capsys, path, value):
    bad = json.loads(json.dumps(SEEDED))
    holder = bad
    for key in path[:-1]:
        holder = holder.setdefault(key, {})
    holder[path[-1]] = value
    rc = main(["run", "--config", _write(tmp_path, "c.json", bad),
               "--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert ".".join(path) in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_exit_code_non_finite_defect(tmp_path, capsys):
    # amplitude 50 overflows the truncated series: the run stops at the
    # stage that overflowed, before any check or report sees a non-finite value
    cfg = {"schema": "loopjet-scenario/1", "family": "kdv_twisted", "n": 2,
           "flows": 2, "order": 2, "suites": ["factorization", "flows", "tau"],
           "f_source": {"kind": "seeded", "seed": 31, "depth": 3,
                        "amplitude": 50}}
    rc = main(["run", "--config", _write(tmp_path, "c.json", cfg),
               "--out", str(tmp_path / "r.json")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "prerequisite factorization" in err
    assert "overflow" in err and "RuntimeWarning" not in err
    assert not (tmp_path / "r.json").exists()


def test_exit_code_overflow_in_scattering_datum(tmp_path, capsys):
    cfg = {"schema": "loopjet-scenario/1", "family": "kdv_twisted", "n": 2,
           "flows": 1, "order": 1, "suites": ["factorization"],
           "f_source": {"kind": "seeded", "seed": 31, "depth": 3,
                        "amplitude": 1e200}}
    rc = main(["run", "--config", _write(tmp_path, "c.json", cfg),
               "--out", str(tmp_path / "r.json")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "scattering datum" in err and "overflow" in err
    assert not (tmp_path / "r.json").exists()


def test_unknown_dump_target(tmp_path):
    cfgp = _write(tmp_path, "c.json", SEEDED)
    rc = main(["dump", "--config", cfgp, "--target", "bogus",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_list_checks_contract(capsys):
    assert main(["list-checks"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) >= 20
    assert any(l.startswith("thm7.1_tau_uu") for l in lines)
    anchor_line = next(l for l in lines if l.startswith("thm7.1_tau_uu"))
    assert "-v_ik v_ki" in anchor_line
    assert any(l.startswith("virasoro_bracket") for l in lines)


def test_report_records_every_enabled_suite(tmp_path):
    cfgp = _write(tmp_path, "c.json", SEEDED)
    main(["run", "--config", cfgp, "--out", str(tmp_path / "r.json")])
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["schema"] == "loopjet-report/1"
    assert set(doc["timing_s"]) == set(SEEDED["suites"])
    assert len(doc["checks"]) >= len(SEEDED["suites"])
    assert "lax_bracket" in doc["conventions"]


def test_shipped_configs_all_pass(tmp_path):
    import pathlib
    import time
    cfg_dir = pathlib.Path(__file__).resolve().parent.parent / "configs"
    t0 = time.perf_counter()
    rc = main(["run", "--config", str(cfg_dir / "gl3_full.json"),
               "--out", str(tmp_path / "r.json")])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    assert elapsed < 60.0
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["passed"]
    rc = main(["run", "--config", str(cfg_dir / "e21_fixture.json"),
               "--out", str(tmp_path / "e.json")])
    assert rc == 0


def test_config_validation_direct():
    import pytest as _pt
    from loopjet.errors import ConfigError
    raw = {"schema": "loopjet-scenario/1", "family": "gl_n", "n": 3,
           "a_diag": [[1, 0], [1, 0], [2, 0]], "suites": ["factorization"]}
    with _pt.raises(ConfigError):
        ScenarioConfig.from_dict(raw)
    raw2 = {"schema": "wrong", "family": "akns_sl2", "n": 2}
    with _pt.raises(ConfigError):
        ScenarioConfig.from_dict(raw2)
