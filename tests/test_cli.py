import json
import math

import numpy as np
import pytest

from framedyn.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_systems_list(capsys):
    code, out, _ = run(capsys, "systems", "list")
    assert code == 0
    assert out.split() == ["nonholonomic_particle", "vertical_disk",
                           "delta_class", "carriage"]


def test_systems_show(capsys):
    code, out, _ = run(capsys, "systems", "show", "carriage")
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "carriage" and doc["n"] == 5 and doc["m"] == 2
    assert len(doc["frame"]) == 5


@pytest.mark.parametrize("name", ["nonholonomic_particle", "vertical_disk",
                                  "delta_class", "carriage"])
def test_shown_system_loads_back(capsys, tmp_path, name):
    # systems show writes a JSON system (builtin_k null where there is
    # none), which shows again as the same document
    code, shown, _ = run(capsys, "systems", "show", name)
    assert code == 0
    path = tmp_path / "shown.json"
    path.write_text(shown)
    assert run(capsys, "systems", "show", str(path)) == (0, shown, "")


@pytest.mark.parametrize("name", ["lx", "P"])
def test_set_accepts_only_base_params(capsys, tmp_path, name):
    # A misspelt name would be ignored, and a derived one (the carriage's P)
    # overwritten by the value derived from the base parameters.
    out = tmp_path / "c.json"
    code, _, err = run(capsys, "consistency", "--system", "carriage",
                       "--set", f"{name}=2", "--samples", "3", "--out",
                       str(out))
    assert code == 2
    assert "$.set" in err and f"'{name}'" in err
    assert "accepted: m0, m1, J, J2, R, c, l" in err
    assert not out.exists()
    code, _, err = run(capsys, "systems", "show", "carriage", "--set",
                       f"{name}=2")
    assert code == 2 and "$.set" in err
    code, shown, _ = run(capsys, "systems", "show", "carriage", "--set", "l=2")
    assert code == 0 and json.loads(shown)["params"]["l"] == 2.0


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_set_rejects_non_finite_values(capsys, tmp_path, value):
    out = tmp_path / "d.csv"
    code, _, err = run(capsys, "derive", "--system", "carriage", "--set",
                       f"l={value}", "--samples", "2", "--out", str(out))
    assert code == 2
    assert "config error at $.set:" in err and "'l'" in err
    assert not out.exists()


# A custom system: a sled on a tilted plane.
SLED = {
    "name": "tilted_plane_sled",
    "n": 3,
    "m": 2,
    "coords": ["x", "y", "s"],
    "frame": [["1", "0", "0"],
              ["0", "1", "-sin(x)"],
              ["0", "0", "1"]],
    "lagrangian": "(u1*u1 + u2*u2 + u3*u3)/2",
    "params": {},
}


@pytest.mark.parametrize("system,sets", [
    ("nonholonomic_particle", ["--set", "I3=1.375"]), ("sled", [])],
    ids=["builtin", "json"])
def test_repeated_command_builds_nothing(capsys, tmp_path, monkeypatch,
                                         system, sets):
    # A second identical command reuses the frame and Lagrangian that the
    # first one built (SystemDef.frame, SystemDef.lagrangian): it parses
    # no text, walks no tree for a structure key and writes the same bytes.
    # A JSON system's expressions are checked by that build, so they too
    # are parsed once.
    import sys
    from collections import OrderedDict

    import framedyn.exprlang as exprlang
    import framedyn.systems as systems

    monkeypatch.setattr(systems, "_BUILT", OrderedDict())
    counts = {"parse": 0, "_structure": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in counts:
        real = getattr(exprlang, name)
        for module in [m for k, m in sys.modules.items()
                       if k.startswith("framedyn")]:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted(name, real))
    if system == "sled":
        system = tmp_path / "sled.json"
        system.write_text(json.dumps(SLED))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["derive", "--system", str(system), *sets, "--samples", "6",
            "--seed", "2"]
    assert run(capsys, *argv, "--out", str(a))[0] == 0
    assert counts["parse"] > 0 and counts["_structure"] > 0
    counts.update(parse=0, _structure=0)
    assert run(capsys, *argv, "--out", str(b))[0] == 0
    assert counts == {"parse": 0, "_structure": 0}
    assert a.read_bytes() == b.read_bytes()


def test_systems_show_requires_name(capsys):
    code, _, err = run(capsys, "systems", "show")
    assert code == 2


def test_unknown_system_is_config_error(capsys):
    code, _, err = run(capsys, "derive", "--system", "nope")
    assert code == 2
    assert "unknown system" in err


def test_derive_table(capsys, tmp_path):
    out = tmp_path / "table.csv"
    code, _, _ = run(capsys, "derive", "--system", "nonholonomic_particle",
                     "--samples", "5", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "q1,q2,q3,v1,v2,gamma1,gamma2,lambda3,energy,p3"
    assert len(lines) == 6
    row = [float(x) for x in lines[1].split(",")]
    q1, v1, v2 = row[0], row[3], row[4]
    assert row[5] == pytest.approx(0.0, abs=1e-12)
    assert row[6] == pytest.approx(-q1 * v1 * v2 / (1 + q1 ** 2), rel=1e-9)


def test_derive_empty_grid(capsys, tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"points": []}))
    out = tmp_path / "t.csv"
    code, _, _ = run(capsys, "derive", "--system", "nonholonomic_particle",
                     "--grid", str(grid), "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1  # header only
    # zero sampled states give the same table
    code, _, _ = run(capsys, "derive", "--system", "nonholonomic_particle",
                     "--samples", "0", "--out", str(out))
    assert code == 0 and out.read_text().splitlines() == lines


def test_derive_bad_grid_row(capsys, tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"points": [[1.0, 2.0]]}))
    code, _, err = run(capsys, "derive", "--system", "nonholonomic_particle",
                       "--grid", str(grid))
    assert code == 2
    assert "$.points[0]" in err


@pytest.mark.parametrize("entry", [True, None, "a"])
def test_derive_grid_entries_must_be_numbers(capsys, tmp_path, entry):
    # A JSON true, null or string in a grid row is a config error at its
    # path, not a q1 of 1, a row of NaN or a conversion error.
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"points": [[0.0, 0.1, 0.2, 0.3, 0.4, 1.0,
                                            0.0], [0.0, entry, 0.0, 0.0,
                                                   0.0, 1.0, 0.0]]}))
    code, _, err = run(capsys, "derive", "--system", "carriage",
                       "--grid", str(grid))
    assert code == 2
    assert "config error at $.points[1][1]" in err


@pytest.mark.parametrize("points", [5, {"0": [0.0] * 7}])
def test_derive_grid_points_must_be_a_list(capsys, tmp_path, points):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"points": points}))
    code, _, err = run(capsys, "derive", "--system", "carriage",
                       "--grid", str(grid))
    assert code == 2 and "config error at $.points:" in err


@pytest.mark.parametrize("command,samples", [
    ("consistency", "0"), ("consistency", "-3"), ("derive", "-3")])
def test_too_few_samples_is_config_error(capsys, tmp_path, command,
                                         samples):
    code, _, err = run(capsys, command, "--system", "carriage",
                       "--samples", samples)
    assert code == 2 and "$.samples" in err
    cfgp = tmp_path / "run.json"
    cfgp.write_text(json.dumps({"system": "carriage",
                                "samples": int(samples)}))
    code, _, err = run(capsys, command, "--config", str(cfgp))
    assert code == 2 and "$.samples" in err


def test_simulate_rejects_infinite_atol(capsys, tmp_path):
    # atol = inf would switch DOPRI5's error control off
    code, out, err = run(capsys, "simulate", "--system", "carriage",
                         "--method", "rk45", "--atol", "inf", "--t-end",
                         "0.1", "--out", str(tmp_path / "t.csv"))
    assert code == 1 and out == ""
    assert "atol must be finite" in err
    assert not (tmp_path / "t.csv").exists()


def test_simulate_wheels_constant(capsys, tmp_path):
    out = tmp_path / "carriage.csv"
    code, report, _ = run(capsys, "simulate", "--system", "carriage",
                          "--set", "l=0", "--v0", "1,0", "--t-end", "1",
                          "--dt", "0.01", "--out", str(out))
    assert code == 0
    doc = json.loads(report)
    assert doc["system"] == "carriage"
    assert doc["energy_drift"] <= 1e-9
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    v1, v2 = rows[:, 6], rows[:, 7]
    assert np.max(np.abs(v1 - 1.0)) <= 1e-12
    assert np.max(np.abs(v2)) <= 1e-12


def test_simulate_json_format(capsys, tmp_path):
    out = tmp_path / "p.json"
    code, _, _ = run(capsys, "simulate", "--system", "nonholonomic_particle",
                     "--q0", "0,0,0", "--v0", "1,1", "--t-end", "0.5",
                     "--dt", "0.01", "--format", "json", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert "energy" in doc and len(doc["t"]) == 51


def _is_json_dumps(text, sort_keys):
    """text is json.dumps(indent=1) of what it parses to, plus a newline."""
    return text == json.dumps(json.loads(text), indent=1,
                              sort_keys=sort_keys) + "\n"


@pytest.mark.parametrize("argv,non_finite", [
    (["consistency", "--system", "carriage", "--samples", "20"], False),
    (["consistency", "--system", "carriage", "--section", "momentum_shifted",
      "--samples", "5"], False),
    (["consistency", "--system", "nonholonomic_particle", "--section",
      '{"kind": "custom", "phi": ["exp(10000*q1)"]}', "--samples", "3"],
     True),
    (["systems", "show", "carriage", "--set", "l=0.25"], False),
], ids=["carriage", "shifted", "non_finite", "systems_show"])
def test_reports_are_json_dumps_indent_1(capsys, argv, non_finite):
    # pins the format itself, where test_reports_byte_identical pins only
    # that two runs agree
    with np.errstate(over="ignore"):
        code, out, _ = run(capsys, *argv)
    assert code == 0
    assert _is_json_dumps(out, sort_keys=True)
    assert non_finite == ("NaN" in out and "Infinity" in out)


def test_simulate_json_outputs_are_json_dumps_indent_1(capsys, tmp_path):
    out = tmp_path / "t.json"
    code, report, _ = run(capsys, "simulate", "--system", "vertical_disk",
                          "--method", "rk45", "--t-end", "0.1", "--format",
                          "json", "--out", str(out))
    assert code == 0
    assert _is_json_dumps(report, sort_keys=True)
    assert _is_json_dumps(out.read_text(), sort_keys=False)


def test_csv_cells_are_17g(capsys, tmp_path):
    out = tmp_path / "t.csv"
    code, _, _ = run(capsys, "simulate", "--system", "carriage", "--t-end",
                     "0.05", "--out", str(out))
    assert code == 0
    code, table, _ = run(capsys, "derive", "--system", "carriage",
                         "--samples", "10")
    assert code == 0
    for text in (out.read_text(), table):
        header, *rows = text.split("\n")[:-1]
        assert rows and text.endswith("\n")
        for row in rows:
            cells = row.split(",")
            assert len(cells) == len(header.split(","))
            assert cells == [f"{float(c):.17g}" for c in cells]


def test_simulate_bad_initial_state(capsys):
    code, _, err = run(capsys, "simulate", "--system",
                       "nonholonomic_particle", "--q0", "1,2")
    assert code == 2
    assert "$.q0" in err


class TestConsistencyCommand:
    def test_disk_momentum_strongly_consistent(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        code, _, _ = run(capsys, "consistency", "--system", "vertical_disk",
                         "--section", "momentum", "--samples", "50",
                         "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "strongly_consistent"
        assert doc["max_weak_defect"] <= 1e-9
        assert "prop6_scalar" in doc
        assert doc["seed"] == 0 and doc["version"]

    def test_carriage_generic_inconsistent(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        code, _, _ = run(capsys, "consistency", "--system", "carriage",
                         "--set", "l=1", "--section", "momentum",
                         "--samples", "50", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "inconsistent"
        assert doc["max_weak_defect"] > 1e-3

    def test_carriage_l0_consistent(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        code, _, _ = run(capsys, "consistency", "--system", "carriage",
                         "--set", "l=0", "--section", "momentum",
                         "--samples", "50", "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["verdict"] == "strongly_consistent"

    def test_carriage_special_length_shifted(self, capsys, tmp_path):
        from framedyn.chaplygin import carriage_special_length
        from framedyn.systems import builtin
        lstar = carriage_special_length(builtin("carriage").params)
        out = tmp_path / "r.json"
        code, _, _ = run(capsys, "consistency", "--system", "carriage",
                         "--set", f"l={lstar!r}", "--section",
                         "momentum_shifted", "--samples", "50",
                         "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "strongly_consistent"
        assert doc["gamma_k_residual"] <= 1e-9
        assert doc["k_conserved"] is True

    @pytest.mark.parametrize("defect,verdict", [
        ("weak", "inconsistent"), ("strong", "weakly_consistent")])
    def test_nan_defect_fails_its_test(self, capsys, tmp_path, monkeypatch,
                                       defect, verdict):
        # The disk's momentum section is strongly consistent; a NaN defect
        # must fail the test it enters instead of passing it.
        import framedyn.cli as cli

        real = cli.consistency_report

        def with_nan(*args):
            rep = real(*args)
            name = f"{defect}_defect"
            setattr(rep, name, np.full_like(getattr(rep, name), np.nan))
            return rep

        monkeypatch.setattr(cli, "consistency_report", with_nan)
        out = tmp_path / "r.json"
        code, _, _ = run(capsys, "consistency", "--system", "vertical_disk",
                         "--section", "momentum", "--samples", "5",
                         "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == verdict
        assert np.isnan(doc[f"max_{defect}_defect"])

    def test_section_report_gives_the_expressions_as_written(
            self, capsys, tmp_path):
        from framedyn.systems import builtin

        cases = [
            ("nonholonomic_particle", '{"kind": "custom", "phi": '
             '["exp(1000*q1)"]}', "phi", ["exp(1000*q1)"]),
            ("carriage", '{"kind": "custom", "phi": ["0", "v1*y", "x"]}',
             "phi", ["0", "v1*y", "x"]),
            ("carriage", '{"kind": "momentum_shifted", "k": '
             '["v1", "x*v2", "0"]}', "k", ["v1", "x*v2", "0"]),
            ("carriage", "momentum_shifted", "k",
             builtin("carriage").builtin_k),
        ]
        for system, spec, key, want in cases:
            out = tmp_path / "r.json"
            code, _, _ = run(capsys, "consistency", "--system", system,
                             "--section", spec, "--samples", "3",
                             "--out", str(out))
            assert code == 0
            section = json.loads(out.read_text())["section"]
            assert section[key] == want, spec

    def test_reports_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(capsys, "consistency", "--system",
                             "nonholonomic_particle", "--section", "zero",
                             "--samples", "30", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


    def test_main_builds_one_parser_per_process(self, capsys, tmp_path,
                                                monkeypatch):
        import framedyn.cli as cli

        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda: built.append(1) or real())
        cli._parser.cache_clear()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["consistency", "--system", "carriage", "--section",
                "momentum", "--samples", "20"]
        run(capsys, *argv, "--out", str(a))
        # other options in between must not carry over
        code, _, _ = run(capsys, "consistency", "--system", "carriage",
                         "--section", "zero", "--samples", "5", "--seed", "3",
                         "--set", "l=0.0", "--out", str(tmp_path / "c.json"))
        assert code == 0
        run(capsys, *argv, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()
        assert len(built) == 1
        assert real() is not real()

    @pytest.mark.parametrize("system,section,path", [
        ("carriage", '{"kind": "custom"}', "$.section.phi"),
        ("carriage", '{"kind": "custom", "phi": "x"}', "$.section.phi"),
        ("carriage", '{"kind": "custom", "phi": ["x", 2, "y"]}',
         "$.section.phi[1]"),
        ("carriage", '{"kind": "momentum_shifted", "k": [1, 2, 3]}',
         "$.section.k[0]"),
        ("carriage", '{"kind": "momentum_shifted", "k": null}',
         "$.section.k"),
        ("carriage", '{"kind": "bogus"}', "$.section.kind"),
        ("carriage", "[1]", "$.section.kind"),
        ("carriage", '{"kind": "custom", "phi": ["x+", "0", "0"]}',
         "$.section.phi[0]"),
        ("carriage", '{"kind": "custom", "phi": ["zz", "0", "0"]}',
         "$.section.phi[0]"),
        ("carriage", '{"kind": "momentum_shifted", "k": ["0", "v1", "q"]}',
         "$.section.k[2]"),
        ("vertical_disk", "momentum_shifted", "$.section.kind"),
    ], ids=["custom_without_phi", "phi_string", "phi_number",
            "k_numbers", "k_null", "unknown_kind", "list", "phi_syntax",
            "phi_unbound", "k_unbound", "no_builtin_k"])
    def test_bad_section_is_config_error(self, capsys, tmp_path, system,
                                         section, path):
        out = tmp_path / "r.json"
        code, _, err = run(capsys, "consistency", "--system", system,
                           "--section", section, "--samples", "2",
                           "--out", str(out))
        assert code == 2
        assert f"config error at {path}:" in err
        assert not out.exists()


class TestCustomSystems:
    def _write_def(self, tmp_path, **overrides):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({**SLED, **overrides}))
        return path

    def test_custom_system_runs(self, capsys, tmp_path):
        path = self._write_def(tmp_path)
        out = tmp_path / "t.csv"
        code, _, _ = run(capsys, "derive", "--system", str(path),
                         "--samples", "4", "--out", str(out))
        assert code == 0
        assert len(out.read_text().splitlines()) == 5

    def test_schema_error_has_path(self, capsys, tmp_path):
        path = self._write_def(tmp_path, frame=[["1", "0", "0"]])
        code, _, err = run(capsys, "derive", "--system", str(path))
        assert code == 2
        assert "$.frame" in err

    def test_bad_param_type(self, capsys, tmp_path):
        path = self._write_def(tmp_path, params={"g": "ten"})
        code, _, err = run(capsys, "derive", "--system", str(path))
        assert code == 2
        assert "$.params.g" in err

    @pytest.mark.parametrize("overrides,where", [
        ({"n": True, "m": 1, "coords": ["x"], "frame": [["1"]],
          "lagrangian": "u1*u1/2"}, "$.n"),
        ({"params": {"g": True}}, "$.params.g"),
    ])
    def test_json_booleans_are_not_numbers(self, capsys, tmp_path, overrides,
                                           where):
        path = self._write_def(tmp_path, **overrides)
        code, _, err = run(capsys, "derive", "--system", str(path),
                           "--samples", "2", "--out", str(tmp_path / "d.csv"))
        assert code == 2
        assert f"config error at {where}:" in err

    @pytest.mark.parametrize("command,overrides,argv,where", [
        ("derive", {"coords": ["x", 3, "s"]}, (), "$.coords[1]"),
        ("derive", {"coords": ["x", "x", "s"]}, (), "$.coords[1]"),
        ("derive", {"coords": ["u1", "y", "s"]}, (), "$.coords[0]"),
        ("derive", {"velocities": ["ux", "s", "us"]}, (), "$.coords[2]"),
        ("derive", {"frame": [[True, "0", "0"], ["0", "1", "-sin(x)"],
                              ["0", "0", "1"]]}, (), "$.frame[0][0]"),
        ("derive", {"frame": [["1", "0", "0"], ["0", "1", None],
                              ["0", "0", "1"]]}, (), "$.frame[1][2]"),
        ("derive", {"frame": ["1x0", ["0", "1", "-sin(x)"],
                              ["0", "0", "1"]]}, (), "$.frame[0]"),
        ("derive", {"velocities": ["u1", "u2"]}, (), "$.velocities"),
        ("derive", {"sample_box": {"q": [[-1, 1]] * 3}}, (),
         "$.sample_box.v"),
        ("derive", {"builtin_k": [True]}, (), "$.builtin_k[0]"),
        ("derive", {}, ("--seed", "-3"), "$.seed"),
        # json writes and reads NaN and Infinity
        ("derive", {"params": {"g": math.nan}}, (), "$.params.g"),
        ("derive", {"params": {"g": math.inf}}, (), "$.params.g"),
        ("derive", {"params": {"g": 10 ** 400}}, (), "$.params.g"),
        # an expression that does not parse or names an unbound variable
        ("derive", {"frame": [["1", "0", "x+"], ["0", "1", "-sin(x)"],
                              ["0", "0", "1"]]}, (), "$.frame[0][2]"),
        ("derive", {"frame": [["1", "0", "zz"], ["0", "1", "-sin(x)"],
                              ["0", "0", "1"]]}, (), "$.frame[0][2]"),
        ("derive", {"lagrangian": "(u1*u1 + u2*u2)/"}, (), "$.lagrangian"),
        ("derive", {"lagrangian": "zz*u1*u1/2"}, (), "$.lagrangian"),
        ("consistency", {"builtin_k": ["v1*"]},
         ("--section", "momentum_shifted"), "$.builtin_k[0]"),
        ("consistency", {"builtin_k": ["zz*v1"]},
         ("--section", "momentum_shifted"), "$.builtin_k[0]"),
        ("derive", {"sample_box": {"q": [[-1, 1], [2, -2], [-1, 1]],
                                   "v": [[-1, 1]] * 2}}, (),
         "$.sample_box.q[1]"),
        ("derive", {"sample_box": {"q": [[-1, 1]] * 3,
                                   "v": [[-1, 1], [math.nan, 2]]}}, (),
         "$.sample_box.v[1][0]"),
        ("derive", {"domain_note": 5}, (), "$.domain_note"),
        ("derive", {"references": ["gamma"]}, (), "$.references"),
    ], ids=["coord_number", "coord_duplicate", "coord_is_default_velocity",
            "coord_is_velocity", "frame_true", "frame_null", "frame_row_text",
            "velocities_length", "sample_box_without_v", "builtin_k_true",
            "negative_seed", "param_nan", "param_inf", "param_huge_int",
            "frame_syntax", "frame_unbound", "lagrangian_syntax",
            "lagrangian_unbound", "builtin_k_syntax", "builtin_k_unbound",
            "sample_box_reversed", "sample_box_nan", "domain_note_number",
            "references_list"])
    def test_bad_entries_are_config_errors(self, capsys, tmp_path, command,
                                           overrides, argv, where):
        path = self._write_def(tmp_path, **overrides)
        out = tmp_path / "out"
        code, _, err = run(capsys, command, "--system", str(path),
                           "--samples", "2", "--out", str(out), *argv)
        assert code == 2
        assert f"config error at {where}:" in err
        assert not out.exists()

    def test_only_declared_params_may_be_set(self, capsys, tmp_path):
        path = self._write_def(tmp_path, params={"g": 9.81})
        out = tmp_path / "t.csv"
        argv = ("derive", "--system", str(path), "--samples", "2", "--out",
                str(out))
        assert run(capsys, *argv, "--set", "g=1")[0] == 0
        out.unlink()
        code, _, err = run(capsys, *argv, "--set", "h=1")
        assert code == 2
        assert "$.set" in err and "'h'" in err and "accepted: g" in err
        assert not out.exists()

    def test_singular_frame_is_runtime_error(self, capsys, tmp_path):
        path = self._write_def(tmp_path, frame=[["1", "0", "0"],
                                                ["1", "0", "0"],
                                                ["0", "0", "1"]])
        code, _, err = run(capsys, "simulate", "--system", str(path),
                           "--v0", "1,0", "--t-end", "0.1", "--dt", "0.05",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 1


class TestRunConfig:
    def test_config_file_supplies_options(self, capsys, tmp_path):
        cfgp = tmp_path / "run.json"
        cfgp.write_text(json.dumps({
            "system": "carriage",
            "params": {"l": 0.0},
            "v0": [1.0, 0.0],
            "t_end": 0.5,
            "dt": 0.01,
            "out": str(tmp_path / "t.csv"),
        }))
        code, report, _ = run(capsys, "simulate", "--config", str(cfgp))
        assert code == 0
        doc = json.loads(report)
        assert doc["system"] == "carriage" and doc["params"]["l"] == 0.0
        assert (tmp_path / "t.csv").exists()

    def test_flags_override_config(self, capsys, tmp_path):
        cfgp = tmp_path / "run.json"
        cfgp.write_text(json.dumps({"system": "nonholonomic_particle",
                                    "samples": 3, "seed": 5}))
        out = tmp_path / "d.csv"
        code, _, _ = run(capsys, "derive", "--config", str(cfgp),
                         "--samples", "7", "--out", str(out))
        assert code == 0
        assert len(out.read_text().splitlines()) == 8  # header + 7 rows

    def test_unknown_config_field(self, capsys, tmp_path):
        cfgp = tmp_path / "run.json"
        cfgp.write_text(json.dumps({"system": "carriage", "speed": 3}))
        code, _, err = run(capsys, "derive", "--config", str(cfgp))
        assert code == 2
        assert "$.speed" in err

    def test_bad_config_param_type(self, capsys, tmp_path):
        cfgp = tmp_path / "run.json"
        cfgp.write_text(json.dumps({"system": "carriage",
                                    "params": {"l": "zero"}}))
        code, _, err = run(capsys, "derive", "--config", str(cfgp))
        assert code == 2
        assert "$.params.l" in err

    def test_unknown_config_param(self, capsys, tmp_path):
        cfgp = tmp_path / "run.json"
        cfgp.write_text(json.dumps({"system": "vertical_disk",
                                    "params": {"mass": 2.0}}))
        code, _, err = run(capsys, "derive", "--config", str(cfgp),
                           "--samples", "2", "--out", str(tmp_path / "d.csv"))
        assert code == 2
        assert "$.params.mass" in err
        assert "accepted: M, axial_inertia, steer_inertia, R" in err

    def test_missing_system_everywhere(self, capsys):
        code, _, err = run(capsys, "derive")
        assert code == 2
        assert "$.system" in err

    @pytest.mark.parametrize("command,field,value,path", [
        ("simulate", "q0", ["a", 0, 0, 0, 0], "$.q0[0]"),
        ("simulate", "q0", [0, None, 0, 0, 0], "$.q0[1]"),
        ("simulate", "q0", [True, 0, 0, 0, 0], "$.q0[0]"),
        ("simulate", "v0", [1.0, False], "$.v0[1]"),
        ("consistency", "samples", True, "$.samples"),
        ("simulate", "seed", True, "$.seed"),
        ("consistency", "seed", True, "$.seed"),
        ("simulate", "params", {"l": True}, "$.params.l"),
        ("consistency", "params", {"l": True}, "$.params.l"),
        ("derive", "params", {"l": math.nan}, "$.params.l"),
        ("derive", "params", {"l": -math.inf}, "$.params.l"),
    ])
    def test_config_entries_must_be_numbers(self, capsys, tmp_path, command,
                                            field, value, path):
        # a JSON true or false is no number, and each state entry is checked
        cfgp = tmp_path / "run.json"
        cfgp.write_text(json.dumps({"system": "carriage", "t_end": 0.01,
                                    "samples": 2, field: value}))
        out = tmp_path / "out.csv"
        code, _, err = run(capsys, command, "--config", str(cfgp), "--out",
                           str(out))
        assert code == 2
        assert f"config error at {path}:" in err
        assert not out.exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["--version"])
    assert ei.value.code == 0
