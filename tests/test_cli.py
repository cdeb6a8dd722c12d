"""Command-line interface: config parsing, outputs, exit codes, determinism."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import magnetovar
from magnetovar import shell as sh
from magnetovar.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, RunConfig, main
from magnetovar.errors import ConfigError
from magnetovar.io import write_csv
from magnetovar.magnetostatics import SolverConfig


def write_cfg(tmp_path, name, body):
    p = tmp_path / name
    p.write_text(body)
    return str(p)


BASE = "config_version = 1\nseed = 1\n"


def test_config_parse_and_typed_access(tmp_path):
    path = write_cfg(tmp_path, "a.cfg", """
# comment line
config_version = 1
seed = 7
material.easy_axis = 0 1 0   # trailing comment
shell.eps_list = 0.2 0.1
dump.fields = false
""")
    cfg = RunConfig.load(path)
    assert cfg.get_int("seed") == 7
    assert cfg.get_vec3("material.easy_axis") == (0.0, 1.0, 0.0)
    assert cfg.get_floats("shell.eps_list") == [0.2, 0.1]
    assert cfg.get_bool("dump.fields") is True or cfg.get_bool("dump.fields") is False
    assert cfg.get_bool("dump.fields") is False
    assert cfg.get_str("missing.key", "fallback") == "fallback"


def test_config_requires_version(tmp_path):
    path = write_cfg(tmp_path, "a.cfg", "seed = 1\n")
    with pytest.raises(ConfigError):
        RunConfig.load(path)
    path2 = write_cfg(tmp_path, "b.cfg", "config_version = 99\n")
    with pytest.raises(ConfigError):
        RunConfig.load(path2)


def test_config_malformed_line(tmp_path):
    path = write_cfg(tmp_path, "a.cfg", "config_version = 1\nnot a pair\n")
    with pytest.raises(ConfigError):
        RunConfig.load(path)


def test_missing_config_exits_2(tmp_path):
    assert main(["oracle", "--config", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG


def test_oracle_command(tmp_path):
    cfg = write_cfg(tmp_path, "o.cfg", BASE + "oracle.ball_cells = 10\n")
    out = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == EXIT_OK
    text = (out / "oracle.csv").read_text()
    assert text.splitlines()[0] == "quantity,value"
    gap = float(dict(line.split(",") for line in text.splitlines()[1:])["relative_gap"])
    assert gap < 1e-6


def test_oracle_determinism_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, "o.cfg", BASE + "oracle.ball_cells = 10\n")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["oracle", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["oracle", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    assert (out1 / "oracle.csv").read_bytes() == (out2 / "oracle.csv").read_bytes()


def test_oracle_seed_changes_output(tmp_path):
    cfg = write_cfg(tmp_path, "o.cfg", BASE + "oracle.ball_cells = 10\n")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    main(["oracle", "--config", cfg, "--out", str(out1)])
    main(["oracle", "--config", cfg, "--out", str(out2), "--seed", "9"])
    assert (out1 / "oracle.csv").read_bytes() != (out2 / "oracle.csv").read_bytes()


def test_demag_command(tmp_path):
    cfg = write_cfg(tmp_path, "d.cfg", BASE + """
geometry.kind = ellipsoid
geometry.a = 1.0
geometry.b = 1.0
geometry.c = 1.0
grid.h = 0.125
grid.pad_ratio = 1.5
""")
    out = tmp_path / "out"
    assert main(["demag", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = dict(line.split(",") for line in
                (out / "demag.csv").read_text().splitlines()[1:])
    trace = float(rows["trace"])
    assert abs(trace - 1.0) < 0.05
    assert abs(float(rows["n_xy"])) < 1e-8


def test_solve_rejects_zero_or_non_finite_init_direction(tmp_path, capsys):
    # zeeman only: no exchange norm check stops the NaN start (which ended in exit 3)
    for direction in ("0 0 0", "nan 0 1", "inf 0 0"):
        cfg = write_cfg(tmp_path, "s.cfg", BASE + "grid.h = 0.5\nminimize.terms = zeeman\n"
                        "material.h_applied = 0 0 0.5\nsolve.init = uniform\n"
                        f"solve.init_direction = {direction}\n")
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "solve.init_direction" in capsys.readouterr().err
        assert not (out / "summary.csv").exists()


@pytest.mark.parametrize("line, field", [
    ("material.q = nan", "Q"),
    ("material.easy_axis = nan nan nan", "easy_axis"),
    ("material.h_applied = nan 0 0.5", "h_applied"),
    ("minimize.step = inf", "step"),
    ("minimize.grad_tol = nan", "grad_tol"),
])
def test_solve_rejects_non_finite_material_and_minimizer_values(tmp_path, capsys, line,
                                                                field):
    # rejected while the config is read, before a NaN line search can start
    root = Path(__file__).resolve().parent.parent
    body = (root / "configs" / "solve_zeeman.cfg").read_text() + line + "\n"
    cfg = write_cfg(tmp_path, "s.cfg", body)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert re.search(rf"\b{field}\b", capsys.readouterr().err)
    assert not (out / "summary.csv").exists()


@pytest.mark.parametrize("command, base, lines, quantity", [
    ("demag", "demag_sphere", "grid.h = nan", "grid spacing h"),
    ("demag", "demag_sphere", "grid.h = inf", "grid spacing h"),
    ("demag", "demag_sphere", "geometry.a = nan", "semi-axes"),
    ("demag", "demag_sphere", "geometry.a = inf", "semi-axes"),
    ("solve", "solve_zeeman", "geometry.kind = box\ngeometry.extents = nan 1 1", "extents"),
    ("shell-study", "shell_sphere", "shell.pad_ratio = nan", "pad_ratio"),
    ("shell-study", "shell_sphere", "shell.eps_list = nan", "half-thickness eps"),
    ("shell-study", "shell_sphere", "shell.cells_per_thickness = 0", "cells_per_thickness"),
    ("validate", "default", "validate.ball_cells = 0", "validate.ball_cells"),
    ("oracle", "default", "oracle.ball_cells = 0", "oracle.ball_cells"),
])
def test_non_finite_or_out_of_range_sizes_are_config_errors(tmp_path, capsys, command,
                                                            base, lines, quantity):
    # each used to end in a traceback (exit 1) or, for grid.h = inf, an all-NaN demag.csv
    root = Path(__file__).resolve().parent.parent
    body = (root / "configs" / f"{base}.cfg").read_text() + lines + "\n"
    cfg = write_cfg(tmp_path, "c.cfg", body)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert quantity in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_oracle_beyond_dense_cap_is_config_error(tmp_path, capsys):
    # 40 cells across the ball give a 104^3 = 1,124,864-cell grid
    root = Path(__file__).resolve().parent.parent
    body = (root / "configs" / "default.cfg").read_text() + "oracle.ball_cells = 40\n"
    cfg = write_cfg(tmp_path, "o.cfg", body)
    out = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "32768" in capsys.readouterr().err
    assert not (out / "oracle.csv").exists()


def test_demag_requires_ellipsoid(tmp_path):
    cfg = write_cfg(tmp_path, "d.cfg", BASE + "geometry.kind = box\n")
    assert main(["demag", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_solve_zeeman_reaches_analytic_minimum(tmp_path):
    cfg = write_cfg(tmp_path, "s.cfg", BASE + """
geometry.kind = ellipsoid
geometry.a = 1.0
geometry.b = 1.0
geometry.c = 1.0
grid.h = 0.16666666666666666
grid.pad_ratio = 0.5
material.h_applied = 0 0 0.5
minimize.method = projected_gradient
minimize.step = 1.0
minimize.grad_tol = 1e-6
minimize.max_iter = 400
minimize.terms = zeeman
""")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = dict(line.split(",") for line in
                (out / "summary.csv").read_text().splitlines()[1:])
    # analytic minimum: -|h_a| * volume; volume recovered from the zeeman row
    total = float(rows["total"])
    zeeman = float(rows["zeeman"])
    assert rows["converged"] == "1"
    assert abs(total - zeeman) < 1e-12
    # energy trace monotone
    trace = [float(line.split(",")[1]) for line in
             (out / "trace.csv").read_text().splitlines()[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
    # field dump present with the documented header
    dump = (out / "magnetization.vtk").read_text().splitlines()
    assert dump[0] == "# vtk DataFile Version 2.0"
    assert dump[3] == "DATASET STRUCTURED_POINTS"
    assert dump[8].startswith("VECTORS m double")


def test_shell_study_command(tmp_path):
    cfg = write_cfg(tmp_path, "sh.cfg", BASE + """
shell.surface = sphere
shell.radius = 1.0
shell.level = 3
shell.m0 = uniform_z
shell.eps_list = 0.2 0.1
""")
    out = tmp_path / "out"
    assert main(["shell-study", "--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "shell_study.csv").read_text().splitlines()
    assert lines[0] == "eps,exchange,stray_scaled,total,limit,gap"
    gaps = [float(line.split(",")[-1]) for line in lines[1:]]
    assert gaps[1] < gaps[0]
    bounds = (out / "recovery_bounds.csv").read_text().splitlines()
    assert bounds[0] == "eps,lower_bound,upper_bound"
    for line, study in zip(bounds[1:], lines[1:]):
        _, lo, hi = (float(x) for x in line.split(","))
        stray = float(study.split(",")[2])
        assert lo <= stray <= hi


def test_shell_study_deterministic_and_equals_convergence_study(tmp_path):
    cfg = write_cfg(tmp_path, "sh.cfg", BASE + """
shell.surface = sphere
shell.radius = 1.0
shell.level = 2
shell.m0 = uniform_z
shell.eps_list = 0.2 0.1
""")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["shell-study", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["shell-study", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    for name in ("shell_study.csv", "recovery_bounds.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    rows = sh.convergence_study(sh.make_sphere_mesh(1.0, 2),
                                sh.uniform_field((0.0, 0.0, 1.0)), [0.2, 0.1],
                                SolverConfig())
    write_csv(tmp_path / "study.csv",
              ["eps", "exchange", "stray_scaled", "total", "limit", "gap"],
              [[r.eps, r.exchange, r.stray_scaled, r.total, r.limit, r.gap]
               for r in rows])
    assert (out1 / "shell_study.csv").read_bytes() == \
        (tmp_path / "study.csv").read_bytes()


def test_unwritable_output_dir_exits_4(tmp_path):
    cfg = write_cfg(tmp_path, "o.cfg", BASE + "oracle.ball_cells = 10\n")
    # a regular file in the path makes the output directory uncreatable
    # regardless of privileges
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code = main(["oracle", "--config", cfg, "--out", str(blocker / "sub")])
    assert code == EXIT_IO


def test_partial_outputs_removed_on_failure(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, "sh.cfg", BASE + """
shell.surface = sphere
shell.level = 2
shell.m0 = uniform_z
shell.eps_list = 0.2 0.1
shell.delta = 5.0
""")
    # delta beyond the tubular bound makes the bounds step fail after the
    # study table was already written; the partial table must be removed
    out = tmp_path / "out"
    code = main(["shell-study", "--config", cfg, "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not (out / "shell_study.csv").exists()


def test_absurd_tolerance_is_clamped_with_warning(tmp_path):
    from magnetovar.cli import build_solver_config
    path = write_cfg(tmp_path, "t.cfg", BASE + "solver.tol = 1\n")
    cfg = RunConfig.load(path)
    solver, warned = build_solver_config(cfg, clamp_tol=True)
    assert warned and solver.tol == 1e-8
    # without clamping the absurd value is a config error
    with pytest.raises(Exception):
        build_solver_config(cfg)


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    path = write_cfg(tmp_path, "typo.cfg", BASE + "solver.tolerance = 1e-6\n")
    with pytest.raises(ConfigError, match=r"typo\.cfg:3: unknown key 'solver\.tolerance'"):
        RunConfig.load(path)
    assert main(["oracle", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "solver.tolerance" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_known_keys_cover_configs_cli_and_readme():
    from magnetovar import cli
    root = Path(__file__).resolve().parent.parent
    for path in sorted((root / "configs").glob("*.cfg")):
        RunConfig.load(path)
    read = set(re.findall(r'get_\w+\("([^"]+)"', Path(cli.__file__).read_text()))
    assert read == cli.KNOWN_KEYS
    readme = (root / "README.md").read_text()
    block = readme.split("### Config format", 1)[1].split("```")[1]
    documented = set(re.findall(r"^([a-z_]+(?:\.[a-z0-9_]+)?) =", block, re.M))
    assert documented == cli.KNOWN_KEYS

    # the README's value for each key is the literal default cli.py passes,
    # parsed with the same getter; "<command>: <value>" in the key's comment
    # names the default of that command where it differs
    readme_values, comments, key = {}, {}, None
    for line in block.splitlines():
        if line.lstrip().startswith("#") and key is not None:
            comments[key] += " " + line.split("#", 1)[1]
        elif "=" in line:
            key, rest = (part.strip() for part in line.split("=", 1))
            readme_values[key], _, comments[key] = (part.strip() for part in
                                                    rest.partition("#"))
    checked = set()
    tree = ast.parse(Path(cli.__file__).read_text())
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        command = func.name[4:].replace("_", "-") if func.name.startswith("cmd_") else None
        for call in ast.walk(func):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr.startswith("get_") and len(call.args) == 2
                    and isinstance(call.args[0], ast.Constant)):
                continue
            key = call.args[0].value
            try:
                default = ast.literal_eval(call.args[1])
            except ValueError:
                # not a literal, so not checked: demag's grid.h (2 min(a, b, c) / 24)
                # and shell.delta (0.7 x the minimal curvature radius) are computed,
                # minimize.terms is the constant energy.ALL_TERMS
                continue
            if default is None:  # config_version has no default: it is mandatory
                continue
            named = re.search(rf"\b{command}: (\S+)", comments[key]) if command else None
            text = named.group(1) if named else readme_values[key]
            value = getattr(RunConfig({key: text}), call.func.attr)(key)
            assert value == default, (key, command, text, default)
            checked.add(key)
    assert {"output.dir", "grid.h", "grid.pad_ratio", "oracle.ball_cells"} <= checked


IMPORT_GUARD = """
import json, sys
from magnetovar.cli import main
work, report = sys.argv[1], {}
for cmd in ("demag", "solve", "shell-study", "oracle"):
    if cmd == "oracle":
        report["scipy_before_oracle"] = sorted(m for m in sys.modules if m.startswith("scipy"))
    report[cmd] = main([cmd, "--config", f"{work}/{cmd}.cfg", "--out", f"{work}/{cmd}"])
report["oracle_loads_lu"] = "scipy.sparse.linalg" in sys.modules
print(json.dumps(report))
"""


def test_commands_run_without_scipy_except_oracle(tmp_path):
    # every command but the dense LU oracle runs on numpy alone; this runs
    # in a fresh interpreter because the test process has SciPy loaded
    root = Path(__file__).resolve().parent.parent
    configs = {"demag": ("demag_sphere", "grid.h = 0.25\n"), "solve": ("solve_zeeman", ""),
               "shell-study": ("shell_sphere", "shell.eps_list = 0.2\n"),
               "oracle": ("default", "oracle.ball_cells = 8\n")}
    for cmd, (base, extra) in configs.items():
        (tmp_path / f"{cmd}.cfg").write_text((root / "configs" / f"{base}.cfg").read_text()
                                             + extra)
    src = str(Path(magnetovar.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert [report[cmd] for cmd in configs] == [EXIT_OK] * 4
    assert report["scipy_before_oracle"] == []
    assert report["oracle_loads_lu"]
