"""bench_engine's provenance stamp: numbers measured on a dirty checkout
are stamped "uncommitted", never with the commit the edits started from."""

from __future__ import annotations

import importlib.util
import pathlib
import shutil
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.skipif(shutil.which("git") is None, reason="needs git")


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location(
        "bench_engine_under_test", ROOT / "benchmarks" / "bench_engine.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def git(root, *args):
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
        cwd=root,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()


@pytest.fixture
def checkout(tmp_path):
    git(tmp_path, "init", "-q")
    (tmp_path / "a.txt").write_text("one\n")
    git(tmp_path, "add", "a.txt")
    git(tmp_path, "commit", "-q", "-m", "one")
    return tmp_path


def test_clean_checkout_stamps_head(bench, checkout):
    assert bench.git_revision(checkout) == git(checkout, "rev-parse", "--short", "HEAD")


def test_modified_tracked_file_stamps_uncommitted(bench, checkout):
    (checkout / "a.txt").write_text("two\n")
    assert bench.git_revision(checkout) == "uncommitted"


def test_staged_change_stamps_uncommitted(bench, checkout):
    (checkout / "b.txt").write_text("new\n")
    git(checkout, "add", "b.txt")
    assert bench.git_revision(checkout) == "uncommitted"


def test_untracked_file_keeps_head(bench, checkout):
    (checkout / "notes.txt").write_text("not part of the build\n")
    assert bench.git_revision(checkout) == git(checkout, "rev-parse", "--short", "HEAD")


def test_not_a_checkout_stamps_none(bench, tmp_path):
    assert bench.git_revision(tmp_path) is None


def test_bench_meta_uses_the_stamp(bench, monkeypatch):
    monkeypatch.setattr(bench, "git_revision", lambda root=None: "uncommitted")
    assert bench.bench_meta()["git_revision"] == "uncommitted"
