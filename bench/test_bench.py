"""Smoke test of the benchmark itself on a tiny scene.

Run from the repository root:  python3 -m pytest bench
"""

import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SMOKE = ["--workload", "smoke", "--seed", "3", "--seconds", "0.5"]


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace, group", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, group):
    proc = _bench(ROOT, *SMOKE, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    spec = _spec()[group]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]


def _drop_last_row(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")


def _nan_entry(path):
    with open(path) as fh:
        doc = json.load(fh)
    doc["re"][0][0] = float("nan")
    with open(path, "w") as fh:
        json.dump(doc, fh)


@pytest.mark.parametrize("writer, corrupt", [
    ("write_indicator_csv", _drop_last_row),
    ("write_ffm", _nan_entry),
])
def test_corrupted_output_counts_as_failed(monkeypatch, capsys, writer, corrupt):
    spec = importlib.util.spec_from_file_location("bench_run", os.path.join(BENCH, "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    original = getattr(run.io, writer)

    def corrupted(path, *args):
        original(path, *args)
        corrupt(path)

    monkeypatch.setattr(run.io, writer, corrupted)
    assert run.main([*SMOKE, "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not result["correct"]
    assert 1 <= result["failed"] <= result["attempted"]


def test_changed_output_counts_as_failed(monkeypatch, capsys):
    """fields.bin passes every content check; only the repeat check can see
    that a later round wrote different bytes."""
    spec = importlib.util.spec_from_file_location("bench_run", os.path.join(BENCH, "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    original = run.io.write_fields
    calls = []

    def drifting(path, *args):
        original(path, *args)
        calls.append(path)
        if len(calls) > 1:
            with open(path, "r+b") as fh:
                fh.seek(-1, os.SEEK_END)
                last = fh.read(1)
                fh.seek(-1, os.SEEK_END)
                fh.write(bytes([last[0] ^ 1]))

    monkeypatch.setattr(run.io, "write_fields", drifting)
    # a traced run always makes at least three rounds
    assert run.main([*SMOKE, "--trace", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    record, result = json.loads(out[-2])["record"], json.loads(out[-1])
    assert not result["correct"]
    assert any("fields.bin" in p for f in record["failures"] for p in f["problems"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(str(tmp_path), *SMOKE, "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
