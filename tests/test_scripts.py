import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import beeloop
from beeloop.cli import default_config_path
from beeloop.landscape import serialize_map

from conftest import tiled_grid

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str, *args: str, flags: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    """Run ``scripts/<name>``; ``flags`` go to the interpreter, before the script."""
    package_root = str(Path(beeloop.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, str(SCRIPTS / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(Path(name).stem, SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_verify_map(map_path: Path) -> subprocess.CompletedProcess:
    return run_script("verify_map.py", str(map_path))


def test_verify_map_desk_agrees():
    result = run_verify_map(default_config_path().parent / "field_desk.map")
    assert result.returncode == 0, result.stderr
    assert "crop patches (union-find, 4-connected): 245\n" in result.stdout
    assert "crop patches (derive_patches): 245\n" in result.stdout


def test_verify_map_tiled_agrees(desk_grid, tmp_path):
    path = tmp_path / "tiled.map"
    path.write_text(serialize_map(tiled_grid(desk_grid)), encoding="utf-8")
    result = run_verify_map(path)
    assert result.returncode == 0, result.stderr
    assert "crop patches (union-find, 4-connected): 3920\n" in result.stdout
    assert "crop patches (derive_patches): 3920\n" in result.stdout


def test_verify_map_exits_1_on_mismatch(monkeypatch, capsys):
    module = load_script("verify_map.py")
    derive = module.derive_patches
    monkeypatch.setattr(module, "derive_patches", lambda grid: derive(grid)[1:])
    monkeypatch.setattr(sys, "argv", ["verify_map.py"])
    assert module.main() == 1
    assert capsys.readouterr().err == "mismatch: union-find 245 != derive_patches 244\n"


def test_bench_pair_stops_at_a_failed_run(monkeypatch, tmp_path):
    """A run that exits 1 with a failed output check ends the script, naming
    the workload, seed and side, and writes no medians."""
    module = load_script("bench_pair.py")
    ok = '{"correct": true, "failed": 0, "metrics": {"job_s_p50": {"value": 0.5}}}'
    bad = '{"correct": false, "failed": 1, "metrics": {"job_s_p50": {"value": 0.5}}}'

    def fake_run(cmd, cwd, **kwargs):
        failed = Path(cwd) == module.ROOT  # the working tree's side
        return subprocess.CompletedProcess(
            cmd, int(failed), stdout=(bad if failed else ok) + "\n",
            stderr="check failed: fi/paths.csv\n" if failed else "",
        )

    monkeypatch.setattr(module, "unpack", lambda rev, dest: "0" * 40)
    monkeypatch.setattr(module.subprocess, "run", fake_run)
    out = tmp_path / "pairs.json"
    monkeypatch.setattr(sys, "argv", [
        "bench_pair.py", "--base", "HEAD", "--workload", "desk_case",
        "--seeds", "11:12", "--seconds", "1", "--out", str(out),
    ])
    with pytest.raises(SystemExit) as stop:
        module.main()
    message = str(stop.value.code)
    assert "workload desk_case, seed 11, side change" in message
    assert "check failed: fi/paths.csv" in message
    assert not out.exists()


def test_bench_pair_verdicts(monkeypatch, tmp_path, capsys):
    """One metric per verdict, read against BENCHMARK.json's bounds."""
    module = load_script("bench_pair.py")
    runs = {  # metric -> side -> value at seeds 1..4
        "job_s_p50": {"base": [1.0] * 4, "change": [1.5] * 4},  # 50% slower
        # a wide base spread and a mixed change
        "setup_s": {"base": [0.5, 1.0, 1.5, 2.0], "change": [1.0, 1.2, 1.3, 1.4]},
        "seeds_per_min": {"base": [100.0] * 4, "change": [110.0] * 4},
        # a wide base spread, but every change run beats every base run
        "peak_rss_mb": {"base": [50.0, 60.0, 70.0, 80.0], "change": [40.0, 41.0, 42.0, 43.0]},
    }

    def fake_bench(root, workload, seed, seconds, side):
        values = {name: {"value": v[side][seed - 1]} for name, v in runs.items()}
        return {"correct": True, "failed": 0, "metrics": values}

    monkeypatch.setattr(module, "unpack", lambda rev, dest: "0" * 40)
    monkeypatch.setattr(module, "bench", fake_bench)
    out = tmp_path / "pairs.json"
    monkeypatch.setattr(sys, "argv", [
        "bench_pair.py", "--base", "HEAD", "--workload", "desk_case",
        "--seeds", "1:4", "--seconds", "1", "--out", str(out),
    ])
    assert module.main() == 0
    metrics = json.loads(out.read_text(encoding="utf-8"))["workloads"]["desk_case"]["metrics"]
    assert {name: m["verdict"] for name, m in metrics.items()} == {
        "job_s_p50": "worse", "setup_s": "unresolved",
        "seeds_per_min": "no_worse", "peak_rss_mb": "no_worse",
    }
    # per pair change/base: 1.5 each; 2, 1.2, 0.867, 0.7; 1.1 each; 0.8, 0.683, 0.6, 0.5375
    assert {name: m["pair_ratio_median"] for name, m in metrics.items()} == pytest.approx({
        "job_s_p50": 1.5, "setup_s": (1.2 + 1.3 / 1.5) / 2,
        "seeds_per_min": 1.1, "peak_rss_mb": (41.0 / 60.0 + 0.6) / 2,
    })
    flagged = [line for line in capsys.readouterr().err.splitlines() if "(median" in line]
    assert [line.split(":")[0] for line in flagged] == [
        "desk_case setup_s", "desk_case job_s_p50",
    ]


GOLDEN_DIGESTS = Path(__file__).resolve().parent / "golden" / "artifact_digests.txt"


def test_artifact_digests_repeat():
    """One run of the digest matrix at seed 1 repeats the golden digests of its cases."""
    result = run_script("artifact_digests.py", "--seeds", "1")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    # five desk variants at seed 1 plus the tiling at seed 42; each case writes
    # 5 baseline files, 13 fi files and report.csv
    assert len(lines) == 6 * 19
    assert {line.split("  ")[1].split("/")[0] for line in lines} == {
        "desk_seed1", "refit_seed1", "softmax_seed1", "cold_seed1", "empty_season_seed1",
        "tiled_seed42",
    }
    assert all(len(line.split("  ")[0]) == 64 for line in lines)
    golden = [
        line for line in GOLDEN_DIGESTS.read_text(encoding="utf-8").splitlines()
        if line.split("  ")[1].split("/")[0].endswith(("_seed1", "tiled_seed42"))
    ]
    assert lines == golden


def test_artifact_digests_match_golden():
    """Every artifact of the digest matrix keeps its bytes. A change that moves
    one edits tests/golden/artifact_digests.txt and says why."""
    result = run_script("artifact_digests.py")
    assert result.returncode == 0, result.stderr
    want = GOLDEN_DIGESTS.read_text(encoding="utf-8").splitlines()
    got = result.stdout.splitlines()
    assert len(got) == len(want) == 304
    for expected, line in zip(want, got):
        assert line == expected


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimized"])
def test_run_case_study_writes_comparison(tmp_path, flags):
    out = tmp_path / "case"
    result = run_script("run_case_study.py", str(out), "42", flags=flags)
    assert result.returncode == 0, result.stderr
    comparison = (out / "fi" / "comparison.csv").read_text(encoding="utf-8")
    assert result.stdout.endswith("\ncomparison.csv:\n" + comparison)
    assert (out / "fi" / "report.csv").is_file()
    assert (out / "baseline" / "season.csv").is_file()


def test_run_case_study_stops_at_failing_command(tmp_path):
    """Under -O too, the first failing command's exit code ends the script."""
    out = tmp_path / "case"
    result = run_script("run_case_study.py", str(out), "-1", flags=("-O",))
    assert result.returncode == 1
    assert result.stderr == "error: OutOfRangeValue\n"
    assert not out.exists()


def test_calibrate_baseline_one_seed():
    result = run_script("calibrate_baseline.py", "1")
    assert result.returncode == 0, result.stderr
    assert "seed   1: 9h cov " in result.stdout
    assert "mean 16h coverage " in result.stdout


def test_make_desk_map_reproduces_the_bundled_map():
    """The generator's text is the bundled map byte for byte; nothing is written."""
    text = load_script("make_desk_map.py").map_text()
    bundled = default_config_path().parent / "field_desk.map"
    assert text.encode("utf-8") == bundled.read_bytes()
