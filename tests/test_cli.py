"""CLI contract tests: exit codes, determinism, dumps, round-trips."""

from __future__ import annotations

import json
import math
import pathlib
import time
import weakref

import numpy as np
import pytest

from loopjet import scenario
from loopjet.cli import main
from loopjet.scenario import (VALUE_BUDGET_BYTES, Scenario, ScenarioConfig,
                              _Runner)
from loopjet.series import Series

from helpers import csv_to_explicit_coeffs

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


def test_exit_code_shift_past_the_window(tmp_path, capsys):
    # l = 23 multiplies by lambda**24, a shift past the whole window (W = 23
    # here): the shifted value keeps no data and its read is untrusted
    cfg = dict(SEEDED, order=2, flows=2,
               suites=["factorization", "flows", "tau", "virasoro"],
               virasoro={"ells": [-1, 0, 23], "gammas": ["zero", "xi0"]})
    rc = main(["run", "--config", _write(tmp_path, "c.json", cfg),
               "--out", str(tmp_path / "r.json")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "TrustError" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("path,value", [
    (("order",), "three"), (("flows",), "two"), (("n",), "2x"),
    (("f_source", "depth"), "deep"), (("f_source", "seed"), [7]),
    (("f_source", "amplitude"), "big"), (("window", "lo"), "low"),
    (("flows",), 0), (("f_source", "depth"), 0), (("suites",), "factorization"),
    (("f_source",), {"kind": "explicit", "coeffs": [[-1, 5, 1, 0.1, 0.0]]}),
    (("virasoro", "ells"), "abc"), (("virasoro", "ells"), [-2]),
    (("virasoro", "gammas"), "zero"), (("tolerances", "fact_oracle"), -1.0),
    (("a_diag",), [[1.0, 0.0], [1.0, 0.0]]),
    (("window",), {"lo": -30, "hi": -1}),
    (("f_source",), {"kind": "explicit", "coeffs": [[2, 1, 1, 0.1, 0.0]]}),
    (("f_source",), {"kind": "explicit", "coeffs": [[-500, 1, 1, 0.1, 0.0]]}),
    (("f_source",), {"kind": "explicit",
                     "coeffs": [[0, 1, 1, 2.0, 0.0], [0, 2, 2, 1.0, 0.0]]}),
    (("tolerances", "cocycle_jacobi"), 1e-9),
    (("n",), 2.5), (("order",), True), (("window",), {"lo": -26.5, "hi": 11}),
    (("virasoro", "ells"), [0.5]), (("tolerances", "fact_oracle"), math.nan),
    (("f_source", "amplitude"), math.nan),
    (("a_diag",), [[1, 0], [math.inf, 0]]),
    (("suites",), ["factorization", "factorization"]),
    (("suites",), ["bogus"]), (("virasoro", "gammas"), ["bogus"]),
    (("suite",), ["tau"]), (("virasoro", "ell"), [0]),
    (("f_source", "amplitud"), 0.3), (("f_source", "depth"), 27),
    (("flows",), 10 ** 6), (("order",), 10 ** 6)])
def test_exit_code_malformed_field(tmp_path, capsys, path, value):
    _assert_field_rejected(tmp_path, capsys, SEEDED, path, value)


@pytest.mark.parametrize("raw,override,field", [
    ([], ["--seed", "3"], "JSON object"),
    ([], ["--order", "3"], "JSON object"),
    (dict(SEEDED, f_source=5), ["--seed", "3"], "f_source"),
    (dict(SEEDED, f_source={"kind": "bogus"}), ["--seed", "3"],
     "f_source.kind")])
def test_exit_code_override_of_a_malformed_config(tmp_path, capsys, raw,
                                                  override, field):
    # --seed and --order apply to a config object only; the config's own
    # rejection stands, never a traceback
    rc = main(["run", "--config", _write(tmp_path, "c.json", raw),
               "--out", str(tmp_path / "r.json"), *override])
    assert rc == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ["run", "dump"])
def test_exit_code_unwritable_out(tmp_path, capsys, command):
    cfg = _write(tmp_path, "c.json",
                 dict(E21_FIXTURE, suites=["factorization"]))
    args = [command, "--config", cfg, "--out",
            str(tmp_path / "missing" / "r.json")]
    if command == "dump":
        args += ["--target", "u"]
    assert main(args) == 2
    assert "--out" in capsys.readouterr().err


@pytest.mark.parametrize("family,a_diag", [("vector_akns", None),
                                           ("gl_n", [[1.0, 0.0]])])
def test_exit_code_trivial_dimension(tmp_path, capsys, family, a_diag):
    base = dict(SEEDED, family=family, a_diag=a_diag)
    _assert_field_rejected(tmp_path, capsys, base, ("n",), 1)


@pytest.mark.parametrize("family,n,a_diag", [
    ("vector_akns", 3, [[1, 0], [2, 0], [3, 0]]),
    ("kdv_twisted", 2, [[1, 0], [-1, 0]])])
def test_exit_code_a_diag_of_a_family_that_fixes_a(tmp_path, capsys, family,
                                                   n, a_diag):
    base = dict(SEEDED, family=family, n=n)
    _assert_field_rejected(tmp_path, capsys, base, ("a_diag",), a_diag)


@pytest.mark.parametrize("variant,a_diag", [
    ("sigma_twisted", None), ("tau_sigma", [[1.0, 0.0], [-1.0, 0.0]])])
def test_odd_sl2_flows_check_only_the_closed_forms_that_hold(tmp_path, variant,
                                                             a_diag):
    # complex mKdV needs a = diag(1, -1) and mKdV a = diag(i, -i): neither
    # closed form holds here, so the flows suite checks the flows alone
    cfg = dict(SEEDED, variant=variant, a_diag=a_diag, flows=2,
               suites=["flows"])
    rc = main(["run", "--config", _write(tmp_path, "c.json", cfg),
               "--out", str(tmp_path / "r.json")])
    assert rc == 0
    doc = json.loads((tmp_path / "r.json").read_text())
    assert [c["id"] for c in doc["checks"]] == ["flow_rhs_match"]


def _assert_field_rejected(tmp_path, capsys, base, path, value):
    bad = json.loads(json.dumps(base))
    holder = bad
    for key in path[:-1]:
        holder = holder.setdefault(key, {})
    holder[path[-1]] = value
    rc = main(["run", "--config", _write(tmp_path, "c.json", bad),
               "--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert ".".join(path) in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("name,suite,low", [
    ("akns_standard", "flows", 2), ("nls_unitary", "flows", 2),
    ("vector_akns", "flows", 2), ("gl2_operator", "virasoro", 2),
    ("vector_akns", "recovery", 3)])
def test_exit_code_order_too_low_for_suite(tmp_path, capsys, name, suite, low):
    raw = json.loads((SHIPPED / f"{name}.json").read_text())
    raw["suites"] = [suite]
    raw["order"] = low
    ScenarioConfig.from_dict(raw)  # the minimum itself is accepted
    raw["order"] = low - 1
    rc = main(["run", "--config", _write(tmp_path, "c.json", raw),
               "--out", str(tmp_path / "r.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'order'" in err and repr(suite) in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("name,suite,override", [
    ("gl3_full", "recovery", {}), ("akns_standard", "recovery", {}),
    ("vector_akns", "recovery", {"n": 2}),
    ("vector_akns", "proof_identities", {}),
    ("nls_unitary", "proof_identities", {})],
    ids=["gl3_full-recovery", "akns_standard-recovery",
         "vector_akns_n2-recovery", "vector_akns-proof_identities",
         "nls_unitary-proof_identities"])
def test_exit_code_suite_outside_its_family(tmp_path, capsys, monkeypatch,
                                            name, suite, override):
    # a config rule: the run stops before the prerequisite factorization
    from loopjet import scenario
    calls = []
    factorize = scenario.factorize_jet

    def counted(*args, **kwargs):
        calls.append(args)
        return factorize(*args, **kwargs)

    monkeypatch.setattr(scenario, "factorize_jet", counted)
    raw = json.loads((SHIPPED / f"{name}.json").read_text())
    raw.update(override, suites=[suite])
    rc = main(["run", "--config", _write(tmp_path, "c.json", raw),
               "--out", str(tmp_path / "r.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert repr(suite) in err and raw["family"] in err
    assert not calls
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


@pytest.mark.parametrize("config,suite,needs_stabilizers", [
    ("akns_standard", "tau", {"tau_shift_constancy", "tau_conjugation"}),
    ("vector_akns", "recovery", {"recovery_k_invariance"})],
    ids=["akns_standard-tau", "vector_akns-recovery"])
def test_suite_order_does_not_change_the_checks(tmp_path, monkeypatch, config,
                                                suite, needs_stabilizers):
    # the tau and recovery suites read the stabilizer factorizations
    # whether or not the factorization suite ran first, and after a suite
    # that does not read them; they are built once per run
    base = json.loads((SHIPPED / f"{config}.json").read_text())
    built = []
    check = scenario.stabilizer_k_check
    monkeypatch.setattr(scenario, "stabilizer_k_check",
                        lambda *a: built.append(1) or check(*a))
    for suites in (["factorization", suite], [suite, "factorization"],
                   ["factorization", "flows", suite]):
        built.clear()
        cfgp = _write(tmp_path, "c.json", dict(base, suites=suites))
        out = tmp_path / "r.json"
        assert main(["run", "--config", cfgp, "--out", str(out)]) == 0
        ids = {c["id"] for c in json.loads(out.read_text())["checks"]}
        assert needs_stabilizers <= ids, suites
        assert len(built) == 1, suites


def _shipped_runner(name: str, suites: list[str]) -> _Runner:
    raw = json.loads((SHIPPED / f"{name}.json").read_text())
    return _Runner(Scenario(ScenarioConfig.from_dict(dict(raw,
                                                          suites=suites))))


def test_check_only_factorizations_die_once_read(monkeypatch):
    # the var_choice="last" result is dead before the stabilizers are
    # built, and the stabilizer results once the last suite reading them
    # (factorization here; flows does not read them) is done
    refs = {}
    calls = {"factorize_jet": scenario.factorize_jet,
             "stabilizer_h_check": scenario.stabilizer_h_check,
             "stabilizer_k_check": scenario.stabilizer_k_check}

    def factorize(*args, **kw):
        res = calls["factorize_jet"](*args, **kw)
        if kw.get("var_choice") == "last":
            refs["tie_break"] = weakref.ref(res)
        return res

    def stabilizer(name, key):
        def check(*args):
            assert refs["tie_break"]() is None
            out = calls[name](*args)
            refs[key] = weakref.ref(out[key])
            return out
        return check

    monkeypatch.setattr(scenario, "factorize_jet", factorize)
    monkeypatch.setattr(scenario, "stabilizer_h_check",
                        stabilizer("stabilizer_h_check", "result_h"))
    monkeypatch.setattr(scenario, "stabilizer_k_check",
                        stabilizer("stabilizer_k_check", "result_k"))
    runner = _shipped_runner("akns_standard", ["factorization", "flows"])
    assert runner.run().passed
    assert set(refs) == {"tie_break", "result_h", "result_k"}
    assert runner.stabilizers is None
    assert all(ref() is None for ref in refs.values())


def test_each_eps_refactorization_dies_before_the_next(monkeypatch):
    refs = []
    build = scenario.eps_perturbed_result

    def eps(*args):
        assert all(ref() is None for ref in refs)
        out = build(*args)
        refs.append(weakref.ref(out))
        return out

    monkeypatch.setattr(scenario, "eps_perturbed_result", eps)
    assert _shipped_runner("akns_standard", ["virasoro"]).run().passed
    assert len(refs) == 11  # the tangent sample, then 5 ells x 2 gammas


SHIPPED = pathlib.Path(__file__).resolve().parent.parent / "configs"
PINNED = json.loads((pathlib.Path(__file__).resolve().parent / "data"
                     / "shipped_reports.json").read_text())
DEFECT_BAND = 1.0  # decades a check's max_defect may move from its pin


@pytest.mark.parametrize("name,order", [
    *((p.stem, None) for p in sorted(SHIPPED.glob("*.json"))),
    ("gl3_full", 4), ("gl3_full", 5), ("akns_standard", 8)])
def test_jet_shape_is_the_contexts(name, order):
    # T, W, nfft, the pair count and the bytes of a value and of a spectrum
    # from the config alone, before any context is built; every shipped
    # config and the larger workloads fit the value budget
    raw = json.loads((SHIPPED / f"{name}.json").read_text())
    cfg = ScenarioConfig.from_dict(raw if order is None else
                                   dict(raw, order=order))
    shape = cfg.jet_shape()
    ctx = Scenario(cfg).ctx
    assert (shape.T, shape.W, shape.nfft, shape.pairs) == \
        (ctx.T, ctx.W, ctx.nfft, ctx.pair_a.size)
    # the most a value stores: every jet row live
    full = Series.monomial(ctx, np.eye(ctx.n), alpha=ctx.T - 1)
    assert shape.value_bytes == full.stored_rows().nbytes
    assert shape.spectrum_bytes == ctx.spectrum_bytes
    assert shape.value_bytes <= VALUE_BUDGET_BYTES


@pytest.mark.parametrize("field,value", [
    ("n", 400), ("window", {"lo": -10 ** 7, "hi": 0}), ("flows", 500),
    ("order", 40)], ids=["n", "window", "flows", "order"])
def test_exit_code_value_over_budget_names_its_field(tmp_path, capsys, field,
                                                     value):
    # vector_akns takes any n: each size field alone can break the budget,
    # and the refusal names that field
    cfg = dict(SEEDED, family="vector_akns", n=3)
    cfg[field] = value
    rc = main(["run", "--config", _write(tmp_path, "c.json", cfg),
               "--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert f"field {field!r}: one jet value" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(p.stem for p in SHIPPED.glob("*.json")))
def test_shipped_configs_all_pass(tmp_path, name):
    # every shipped config passes with the check ids, pass values and
    # detected conventions pinned in tests/data/shipped_reports.json, and
    # each check's max_defect stays within DEFECT_BAND decades of its pinned
    # value (the defect ratchet); an exact zero stays an exact zero
    t0 = time.perf_counter()
    rc = main(["run", "--config", str(SHIPPED / f"{name}.json"),
               "--out", str(tmp_path / "r.json")])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    if name == "gl3_full":
        assert elapsed < 60.0
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["passed"]
    rows = sorted([c["id"], c["passed"], c["max_defect"]]
                  for c in doc["checks"])
    pinned = PINNED[name]["checks"]
    assert [r[:2] for r in rows] == [p[:2] for p in pinned]
    moved = [(cid, got, pin)
             for (cid, _, got), (_, _, pin) in zip(rows, pinned)
             if (got == 0) != (pin == 0)
             or (pin and abs(math.log10(got / pin)) > DEFECT_BAND)]
    assert moved == []
    assert doc["conventions"] == PINNED[name]["conventions"]


def test_catalog_is_exactly_the_emittable_ids():
    # literal ids passed to record(...) or _Runner.add(...), plus the named
    # flows that some accepted family x variant pair runs
    import ast
    import itertools
    from loopjet import checks, scenario
    from loopjet.errors import ConfigError
    from loopjet.hierarchy import named_flows
    emitted = set()
    for path in pathlib.Path(checks.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                    and (getattr(node.func, "id", None) == "record"
                         or getattr(node.func, "attr", None) == "add")):
                emitted.add(node.args[0].value)
    grid = [(family, variant, n, None) for (family, variant), n in
            itertools.product(scenario.PAIRS, (2, 3))]
    # complex mKdV holds only with a = diag(1, -1)
    grid.append(("akns_sl2", "sigma_twisted", 2, [[1.0, 0.0], [-1.0, 0.0]]))
    for family, variant, n, a_diag in grid:
        raw = {"schema": "loopjet-scenario/1", "family": family, "n": n,
               "variant": variant, "flows": 3, "a_diag": a_diag}
        if family == "gl_n":
            raw["a_diag"] = [[1.0, 0.0], [-0.4, 0.8], [0.2, -1.1]][:n]
        try:
            scen = scenario.Scenario(scenario.ScenarioConfig.from_dict(raw))
        except ConfigError:
            continue
        emitted.update(f"flow_{name}" for name in
                       named_flows(scen.seq, scen.spec.variant))
    assert set(checks.CATALOG) == emitted


@pytest.mark.parametrize("family", ["akns_sl2", "vector_akns", "gl_n",
                                    "kdv_twisted"])
def test_family_variant_pairs_are_the_table(family):
    # a pair outside the table is a config error naming 'variant' already
    # in from_dict, and in Scenario for a config built by hand; a pair in
    # it builds a scenario
    from loopjet import scenario
    from loopjet.errors import ConfigError
    from loopjet.splitting import VARIANTS
    for variant in VARIANTS:
        raw = {"schema": "loopjet-scenario/1", "family": family,
               "n": 3 if family in ("vector_akns", "gl_n") else 2,
               "variant": variant, "flows": 1, "order": 1}
        if family == "gl_n":
            raw["a_diag"] = [[1.0, 0.0], [-0.4, 0.8], [0.2, -1.1]]
        if (family, variant) not in scenario.PAIRS:
            with pytest.raises(ConfigError, match="'variant'"):
                ScenarioConfig.from_dict(raw)
            with pytest.raises(ConfigError, match="'variant'"):  # by hand
                scenario.Scenario(ScenarioConfig(family, raw["n"], variant))
            continue
        scen = scenario.Scenario(ScenarioConfig.from_dict(raw))
        assert scen.seq.n == raw["n"]


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
