"""The scripts under scripts/: each parses its arguments, and the logic of each is checked on small inputs."""

import importlib.util
import os
import subprocess
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scripts")


@pytest.mark.parametrize("script", sorted(f for f in os.listdir(SCRIPTS) if f.endswith(".py")))
def test_script_help_exits_0(script):
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, script), "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout


def run_compare(a, b):
    return subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "compare_metrics.py"), str(a), str(b)],
        capture_output=True,
        text=True,
        timeout=60,
    )


def write_metrics(root, rel, rows):
    path = root / rel / "metrics.csv"
    path.parent.mkdir(parents=True)
    path.write_text("round,party,accuracy,digest_loss,revisit_loss,wall_ms\n" + "".join(r + "\n" for r in rows))


def test_compare_metrics_ignores_wall_ms(tmp_path):
    for tree, walls in (("a", ("12.5", "3.0")), ("b", ("99.1", "0.4"))):
        write_metrics(tmp_path / tree, "seed0", [f"baseline,0,0.5,,,{walls[0]}", f"1,0,0.6,0.2,0.1,{walls[1]}"])
    proc = run_compare(tmp_path / "a", tmp_path / "b")
    assert proc.returncode == 0, proc.stdout
    assert "1 metrics.csv files match" in proc.stdout


def test_compare_metrics_reports_first_differing_row(tmp_path):
    write_metrics(tmp_path / "a", "seed0", ["baseline,0,0.5,,,1.0", "1,0,0.6,0.2,0.1,1.0", "2,0,0.7,0.2,0.1,1.0"])
    write_metrics(tmp_path / "b", "seed0", ["baseline,0,0.5,,,1.0", "1,0,0.6,0.2,0.15,1.0", "2,0,0.8,0.2,0.1,1.0"])
    proc = run_compare(tmp_path / "a", tmp_path / "b")
    assert proc.returncode == 1
    assert "line 3 differs" in proc.stdout and "1,0,0.6,0.2,0.15" in proc.stdout
    write_metrics(tmp_path / "b", "seed1", ["baseline,0,0.5,,,1.0"])
    proc = run_compare(tmp_path / "a", tmp_path / "a")
    assert proc.returncode == 0
    proc = run_compare(tmp_path / "a", tmp_path / "b")
    assert proc.returncode == 1 and "seed1" in proc.stdout


def test_compare_metrics_compares_every_probe_csv(tmp_path):
    for tree, post in (("a", "0.5"), ("b", "0.5"), ("c", "0.5000000000000001")):
        write_metrics(tmp_path / tree, "seed0", ["baseline,0,0.5,,,1.0"])
        (tmp_path / tree / "seed0" / "probe.csv").write_text(f"party,pre_unseen,post_unseen\n0,0.25,{post}\n")
    proc = run_compare(tmp_path / "a", tmp_path / "b")
    assert proc.returncode == 0, proc.stdout
    assert "1 probe.csv files match" in proc.stdout
    proc = run_compare(tmp_path / "a", tmp_path / "c")
    assert proc.returncode == 1
    assert "seed0/probe.csv: line 2 differs" in proc.stdout and "0,0.25,0.5000000000000001" in proc.stdout
    (tmp_path / "c" / "seed0" / "probe.csv").unlink()
    proc = run_compare(tmp_path / "a", tmp_path / "c")
    assert proc.returncode == 1 and "seed0/probe.csv: only under" in proc.stdout


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RAISING = """\
def f(x):
    if x < 0:
        raise ValueError("negative")
    try:
        return 1 / x
    except ZeroDivisionError:
        return None


class C:
    def g(self):
        raise NotImplementedError
"""


def test_unreached_raises_lists_each_site_whose_line_never_ran():
    script = load_script("unreached_raises")
    assert [(s.line, s.probe, s.function, s.source) for s in script.sites(RAISING)] == [
        (3, 3, "f", 'raise ValueError("negative")'),
        (6, 7, "f", "except ZeroDivisionError:"),
        (12, 12, "C.g", "raise NotImplementedError"),
    ]
    # f(1) runs lines 1, 2, 4 and 5
    assert [s.line for s in script.unreached(RAISING, {1, 2, 4, 5})] == [3, 6, 12]
    # an except is reached by its body, not by its clause, which also runs when it does not match
    assert [s.line for s in script.unreached(RAISING, {1, 2, 3, 4, 5, 6})] == [6, 12]
    assert [s.line for s in script.unreached(RAISING, {3, 7, 12})] == []
