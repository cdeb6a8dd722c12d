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
from magnetovar.cli import COMMANDS, EXIT_CONFIG, EXIT_IO, EXIT_OK, RunConfig, main
from magnetovar.errors import ConfigError, GridError
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
    assert cfg.values["seed"] == 7  # parsed when the file is read
    assert cfg["seed"] == 7
    assert cfg["material.easy_axis"] == (0.0, 1.0, 0.0)
    assert cfg["shell.eps_list"] == (0.2, 0.1)
    assert cfg["dump.fields"] is False
    assert cfg["solver.tol"] == 1e-8  # the table's default
    assert cfg.get("output.dir", "fallback") == "fallback"
    with pytest.raises(KeyError):
        cfg["missing.key"]


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


def test_solve_runs_on_the_grid_sized_for_a_bound_a_rounding_error_past_a_cell(tmp_path):
    # the grid is sized and the geometry fitted to it with one slack
    root = Path(__file__).resolve().parent.parent
    body = ((root / "configs" / "solve_zeeman.cfg").read_text()
            .replace("geometry.a = 1.0", "geometry.a = 1.00000000002")
            .replace("grid.h = 0.16666666666666666", "grid.h = 0.125"))
    assert "geometry.a = 1.00000000002" in body and "grid.h = 0.125" in body
    cfg = write_cfg(tmp_path, "s.cfg", body)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert (out / "summary.csv").exists()


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
    # one cell across (spacing 2) puts no cell centre in the ball
    ("validate", "default", "validate.ball_cells = 1", "validate.ball_cells"),
    ("oracle", "default", "oracle.ball_cells = 1", "oracle.ball_cells"),
    ("shell-study", "shell_sphere", "shell.level = -1", "shell.level"),
    ("shell-study", "shell_sphere", "shell.surface = torus\nshell.n_major = 2", "shell.n_major"),
    ("shell-study", "shell_sphere", "shell.surface = torus\nshell.n_minor = 2", "shell.n_minor"),
    ("shell-study", "shell_sphere", "shell.radius = nan", "radius"),
    ("shell-study", "shell_sphere", "shell.radius = inf", "radius"),
    ("shell-study", "shell_sphere", "shell.surface = torus\nshell.r_major = nan", "r_major"),
    ("shell-study", "shell_sphere", "shell.surface = torus\nshell.r_minor = -0.5", "r_minor"),
    # 20 4^12 triangles; 2 * 10^5 * 10^5 = 2e10 triangles: neither mesh is built
    ("shell-study", "shell_sphere", "shell.level = 12", "icosphere level 12 gives more"),
    ("shell-study", "shell_sphere",
     "shell.surface = torus\nshell.n_major = 100000\nshell.n_minor = 100000",
     "torus n_major 100000, n_minor 100000 gives more"),
])
def test_non_finite_or_out_of_range_sizes_are_config_errors(tmp_path, capsys, command,
                                                            base, lines, quantity):
    # each used to end in a traceback (exit 1), in an all-NaN demag.csv (grid.h = inf)
    # or in a study of another mesh (shell.level = -1 built the level-0 icosahedron);
    # shell.r_minor = -0.5 was reported as a tubular-condition error
    root = Path(__file__).resolve().parent.parent
    body = (root / "configs" / f"{base}.cfg").read_text() + lines + "\n"
    cfg = write_cfg(tmp_path, "c.cfg", body)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert quantity in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("line, key", [
    ("dump.fields = maybe", "dump.fields"),
    ("shell.level = -1", "shell.level"),
    ("geometry.extents = 1 1", "geometry.extents"),
    ("minimize.max_iter = 1.5", "minimize.max_iter"),
    ("minimize.max_iter = -3", "minimize.max_iter"),
    ("solver.max_iter = 0", "solver.max_iter"),
    ("shell.n_minor = 2", "shell.n_minor"),
    ("shell.eps_list =", "shell.eps_list"),  # an empty list once checked nothing
    ("minimize.terms =", "minimize.terms"),
])
def test_bad_value_of_an_unread_key_exits_2_at_load(tmp_path, capsys, line, key):
    # oracle reads none of these keys, but every value is parsed with the file
    cfg = write_cfg(tmp_path, "o.cfg", BASE + "oracle.ball_cells = 8\n" + line + "\n")
    out = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"o.cfg:4: bad value for {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line, quantity", [
    ("minimize.step = -1", "step"),
    ("material.q = -3", "quality factor Q"),
    ("material.easy_axis = 0 0 2", "easy_axis"),
    ("geometry.a = 0", "semi-axes"),
    ("geometry.kind = box\ngeometry.a = 0", "semi-axes"),
    ("geometry.extents = 1 -1 1", "extents"),
    ("grid.h = -1", "grid spacing h"),
    ("grid.h = 1e-300", "grid spacing h"),
    ("grid.pad_ratio = inf", "pad_ratio"),
    ("validate.pad_ratio = nan", "pad_ratio"),
    ("shell.cells_per_thickness = 2", "cells_per_thickness"),
    # the box's bounding radius must not overflow (a RuntimeWarning) first
    ("geometry.kind = box\ngeometry.extents = 1e308 1 1", "cells along an axis"),
])
def test_bad_float_of_an_unread_key_exits_2_at_load(tmp_path, capsys, line, quantity):
    # oracle reads none of these keys; the objects built from them check their
    # ranges while the file is read, before the output directory is made
    cfg = write_cfg(tmp_path, "o.cfg", BASE + "oracle.ball_cells = 8\n" + line + "\n")
    out = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "o.cfg: " in err and quantity in err
    assert not out.exists()


@pytest.mark.parametrize("command, base, lines, quantity", [
    ("shell-study", "shell_sphere", "shell.radius = -1", "radius"),
    ("shell-study", "shell_sphere", "shell.surface = cube", "shell.surface"),
    ("shell-study", "shell_sphere", "shell.m0 = foo", "shell.m0"),
    ("shell-study", "shell_sphere", "shell.level = 40", "icosphere level 40"),
    ("shell-study", "shell_sphere", "shell.pad_ratio = -1", "pad_ratio"),
    ("shell-study", "shell_sphere", "shell.eps_list = 0.2 5", "tubular condition"),
    ("shell-study", "shell_sphere", "shell.eps_list = 0.2 0.9\nshell.delta = 0.8",
     "profile needs eps < delta"),
    ("solve", "solve_zeeman", "solve.init = foo", "solve.init"),
    ("solve", "solve_zeeman", "solve.init = uniform\nsolve.init_direction = 0 0 0",
     "solve.init_direction"),
], ids=["radius", "surface", "m0", "level", "pad_ratio", "eps", "eps_delta", "init",
        "init_direction"])
@pytest.mark.parametrize("runs", ["validate", "own"])
def test_bad_command_key_exits_2_at_load_under_every_command(tmp_path, capsys, monkeypatch,
                                                              command, base, lines,
                                                              quantity, runs):
    # each was checked only by the command that reads it, after the output
    # directory was made and without naming the file; validate exited 0 with
    # it, and shell-study ran the eps-0.2 3D solve before refusing eps 5
    root = Path(__file__).resolve().parent.parent
    body = (root / "configs" / f"{base}.cfg").read_text() + lines + "\n"
    cfg = write_cfg(tmp_path, "k.cfg", body)
    solves = []
    monkeypatch.setattr(sh, "solve_scalar_potential", lambda *args: solves.append(args))
    out = tmp_path / "out"
    assert main([command if runs == "own" else "validate", "--config", cfg,
                 "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "k.cfg: " in err and quantity in err
    assert not out.exists() and solves == []


def test_joint_method_without_stray_exits_2_at_load(tmp_path, capsys):
    # the joint scheme's potential is the stray term's variable
    root = Path(__file__).resolve().parent.parent
    body = ((root / "configs" / "solve_zeeman.cfg").read_text()
            + "minimize.method = joint_alternating\n")
    cfg = write_cfg(tmp_path, "j.cfg", body)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "j.cfg: minimize.method = joint_alternating needs 'stray'" in capsys.readouterr().err
    assert not out.exists()


def test_bad_seed_is_config_error(tmp_path, capsys):
    # read with the config, before the output directory is made
    cfg = write_cfg(tmp_path, "s.cfg", "config_version = 1\nseed = abc\n")
    out = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "'seed'" in capsys.readouterr().err
    assert not out.exists()


def test_entry_point_exits_2_without_traceback_on_unreadable_or_bad_configs(tmp_path):
    # each case once ended in a traceback with exit 1 (oracle.ball_cells = 1 in an
    # all-zero oracle.csv, and an empty list in a run that checks nothing, with
    # exit 0); none may leave an output directory
    root = Path(__file__).resolve().parent.parent
    default = (root / "configs" / "default.cfg").read_text()
    (tmp_path / "latin1.cfg").write_bytes(b"config_version = 1\n# caf\xe9\n")
    cases = [
        ("oracle", BASE + "oracle.ball_cells = 8\nseed = -4\n", [], "'seed'"),
        ("oracle", default + "oracle.ball_cells = 8\n", ["--seed", "-1"], "--seed"),
        ("oracle", None, ["--config", str(tmp_path)], str(tmp_path)),
        ("oracle", None, ["--config", str(tmp_path / "latin1.cfg")], "latin1.cfg"),
        ("validate", default + "validate.ball_cells = 1\n", [], "validate.ball_cells"),
        ("oracle", default + "oracle.ball_cells = 1\n", [], "oracle.ball_cells"),
        ("shell-study", default + "shell.eps_list =\n", [], "shell.eps_list"),
        ("solve", default + "minimize.terms =\n", [], "minimize.terms"),
    ]
    src = str(Path(magnetovar.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for i, (command, body, args, named) in enumerate(cases):
        if body is not None:
            args = ["--config", write_cfg(tmp_path, f"c{i}.cfg", body)] + args
        out = tmp_path / f"out{i}"
        proc = subprocess.run([sys.executable, "-m", "magnetovar.cli", command, *args,
                               "--out", str(out)], env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == EXIT_CONFIG, (i, proc.stderr)
        assert "Traceback" not in proc.stderr and named in proc.stderr, (i, proc.stderr)
        assert not out.exists(), i


def test_oracle_beyond_dense_cap_is_config_error(tmp_path, capsys):
    # 40 cells across the ball give a 104^3 = 1,124,864-cell grid
    root = Path(__file__).resolve().parent.parent
    body = (root / "configs" / "default.cfg").read_text() + "oracle.ball_cells = 40\n"
    cfg = write_cfg(tmp_path, "o.cfg", body)
    out = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "32768" in capsys.readouterr().err
    assert not (out / "oracle.csv").exists()


def test_oracle_refuses_the_dense_method(tmp_path, capsys):
    # the oracle's reference is the dense factorization: checked against
    # itself, its gap would be 0 by construction
    cfg = write_cfg(tmp_path, "d.cfg", BASE + "solver.method = dense\n")
    out = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "solver.method" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line, message", [
    ("solver.method = foo", "unknown solver method 'foo'"),
    ("minimize.method = nonsense", "unknown minimize.method 'nonsense'")])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_unknown_method_exits_2_at_load_under_every_command(tmp_path, capsys, command,
                                                           line, message):
    # each name is checked when the file is read, before the output directory
    # is made, and the message names the file and which method key is wrong
    cfg = write_cfg(tmp_path, "m.cfg", BASE + line + "\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert "m.cfg: " + message in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("method", ["projected_gradient", "joint_alternating"])
def test_solve_with_stray_term_is_deterministic(tmp_path, method):
    # two runs with the same seed write byte-identical CSVs
    cfg = write_cfg(tmp_path, "s.cfg", BASE + f"""
grid.h = 0.25
grid.pad_ratio = 0.5
material.q = 0.1
minimize.method = {method}
minimize.max_iter = 4
minimize.terms = exchange anisotropy stray
dump.fields = false
""")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    for name in ("trace.csv", "summary.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert len((out1 / "trace.csv").read_text().splitlines()) > 3


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


@pytest.mark.parametrize("delta", ["nan", "-1", "inf"])
def test_shell_study_bad_delta_is_named(tmp_path, capsys, delta):
    # nan passes every ordering check, so the range is checked first, by name
    cfg = write_cfg(tmp_path, "sh.cfg", BASE + "shell.surface = sphere\nshell.level = 1\n"
                    f"shell.eps_list = 0.2\nshell.delta = {delta}\n")
    out = tmp_path / "out"
    assert main(["shell-study", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert f"delta must be positive and finite, got {float(delta)}" in capsys.readouterr().err
    assert not out.exists()


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
    # delta beyond the tubular bound fails when the config is read, before
    # any solve or write and before the output directory is made
    out = tmp_path / "out"
    code = main(["shell-study", "--config", cfg, "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not out.exists()

    # a failed second write removes the table the first one wrote
    from magnetovar import cli
    calls = []

    def failing_second_write(path, header, rows):
        calls.append(path.name)
        if len(calls) == 2:
            raise OSError("disk full")
        write_csv(path, header, rows)

    monkeypatch.setattr(cli, "write_csv", failing_second_write)
    cfg = write_cfg(tmp_path, "ok.cfg", BASE + """
shell.surface = sphere
shell.level = 2
shell.eps_list = 0.2
""")
    out = tmp_path / "out2"
    assert main(["shell-study", "--config", cfg, "--out", str(out)]) == EXIT_IO
    assert calls == ["shell_study.csv", "recovery_bounds.csv"]
    assert not (out / "shell_study.csv").exists() and not out.exists()


def test_failed_run_removes_the_output_directory_it_made(tmp_path):
    # solver.tol is range-checked only when demag builds its solver config,
    # after the output directory is made
    root = Path(__file__).resolve().parent.parent
    body = (root / "configs" / "demag_sphere.cfg").read_text() + "solver.tol = 0.5\n"
    cfg = write_cfg(tmp_path, "d.cfg", body)
    out = tmp_path / "new" / "out"
    assert main(["demag", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    # a directory that existed before the run stays, with what was in it
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "notes.txt").write_text("x")
    assert main(["demag", "--config", cfg, "--out", str(kept)]) == EXIT_CONFIG
    assert sorted(p.name for p in kept.iterdir()) == ["notes.txt"]
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["demag", "--config", cfg, "--out", str(empty)]) == EXIT_CONFIG
    assert empty.is_dir()


def test_absurd_tolerance_is_clamped_with_warning(tmp_path, monkeypatch):
    from magnetovar import cli
    path = write_cfg(tmp_path, "t.cfg", BASE + "solver.tol = 1\nvalidate.ball_cells = 4\n")
    cfg = RunConfig.load(path)
    # without clamping the absurd value is a config error
    with pytest.raises(GridError, match="tol"):
        cli.build_solver_config(cfg)
    # validate clamps it to 1e-8 for every solve and reports the clamp first
    tols, solve = [], cli.solve_scalar_potential

    def spy(m, mask, solver):
        tols.append(solver.tol)
        return solve(m, mask, solver)

    monkeypatch.setattr(cli, "solve_scalar_potential", spy)
    rows = cli._validate_rows(cfg, 1)
    assert rows[0] == ["loose_tolerance", 1.0, 1e-6, "warn"]
    assert tols and set(tols) == {1e-8}


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    path = write_cfg(tmp_path, "typo.cfg", BASE + "solver.tolerance = 1e-6\n")
    with pytest.raises(ConfigError, match=r"typo\.cfg:3: unknown key 'solver\.tolerance'"):
        RunConfig.load(path)
    assert main(["oracle", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "solver.tolerance" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("line, command", [
    # the shell exchange integrates the thickness exactly; no node count is read
    ("shell.t_nodes = 4", "shell-study"),
    # solver.method replaced both
    ("solver.backend = iterative", "oracle"), ("solver.preconditioner = dst", "demag"),
    # the Armijo factor is the constant minimize.BACKTRACK
    ("minimize.backtrack = 0.5", "solve")])
def test_removed_key_is_unknown(tmp_path, capsys, line, command):
    path = write_cfg(tmp_path, "old.cfg", BASE + line + "\n")
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert f"unknown key '{line.split()[0]}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_known_keys_cover_configs_cli_and_readme():
    from magnetovar import cli
    root = Path(__file__).resolve().parent.parent
    for path in sorted((root / "configs").glob("*.cfg")):
        RunConfig.load(path)
    # every key is read somewhere, written literally as cfg["key"] or cfg.get("key", ...)
    source = Path(cli.__file__).read_text()
    assert set(re.findall(r'cfg(?:\[|\.get\()"([^"]+)"', source)) == set(cli.KEYS)

    # the README block lists the same keys in the same order, and its value for
    # each key, parsed by the key's parser, is the table's default
    readme = (root / "README.md").read_text()
    block = readme.split("### Config format", 1)[1].split("```")[1]
    readme_values, comments, key = {}, {}, None
    for line in block.splitlines():
        if line.lstrip().startswith("#") and key is not None:
            comments[key] += " " + line.split("#", 1)[1]
        elif "=" in line:
            key, rest = (part.strip() for part in line.split("=", 1))
            readme_values[key], _, comments[key] = (part.strip() for part in
                                                    rest.partition("#"))
    assert list(readme_values) == list(cli.KEYS)
    assert int(readme_values["config_version"]) == cli.CONFIG_VERSION
    for key, (parse, default) in cli.KEYS.items():
        if default is not None:  # None: mandatory (config_version) or computed
            assert parse(readme_values[key]) == default, key

    # "demag: <value>" in a key's comment is demag's own default, cfg.get(key, value)
    own = dict(re.findall(r'cfg\.get\("([^"]+)", ((?:[^()]|\([^()]*\))*)\)', source))
    assert set(own) == {k for k, c in comments.items() if "demag:" in c}
    for key, expr in own.items():
        note = re.search(r"\bdemag: (\S+)", comments[key]).group(1)
        try:
            default = ast.literal_eval(expr)
        except ValueError:  # computed: demag's grid.h is 2 min(a, b, c) / 24
            continue
        assert cli.KEYS[key][0](note) == default, key
    assert own["grid.pad_ratio"] == "1.5"


IMPORT_GUARD = """
import json, sys
from magnetovar.cli import main
work, report = sys.argv[1], {}
for cmd in ("demag", "solve", "shell-study", "oracle"):
    report[cmd] = main([cmd, "--config", f"{work}/{cmd}.cfg", "--out", f"{work}/{cmd}"])
report["scipy"] = sorted(m for m in sys.modules if m.startswith("scipy"))
print(json.dumps(report))
"""


def test_commands_run_without_scipy(tmp_path):
    # every command, the dense oracle included, runs on numpy alone; this runs
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
    assert report["scipy"] == []
