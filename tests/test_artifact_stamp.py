"""scripts/artifact_stamp.py: an artifact's stamp follows every module of the
package that made it, not only the ones its numbers pass through first."""
import argparse
import os
import shutil
import sys
from pathlib import Path

import pytest

import cycleformer

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
if os.fspath(SCRIPTS) not in sys.path:
    sys.path.insert(0, os.fspath(SCRIPTS))  # the scripts import each other by name
import artifact_stamp  # noqa: E402

PACKAGE = Path(cycleformer.__file__).parent
ARGS = argparse.Namespace(seed=0, steps=10, out_dir="runs/x")


def stamp_of(package: Path, monkeypatch) -> str:
    """The stamp a run of the package at `package` would write."""
    with monkeypatch.context() as m:
        m.setattr(cycleformer, "__file__", os.fspath(package / "__init__.py"))
        return artifact_stamp.stamp(ARGS)


@pytest.fixture()
def copy(tmp_path):
    out = tmp_path / "cycleformer"
    shutil.copytree(PACKAGE, out, ignore=shutil.ignore_patterns("__pycache__"))
    return out


def test_a_copy_of_the_package_stamps_like_the_package(copy, monkeypatch):
    assert stamp_of(copy, monkeypatch) == artifact_stamp.stamp(ARGS)


@pytest.mark.parametrize("module", ["evaluate.py", "data.py", "optim.py", "config.py", "adaptive.py"])
def test_editing_a_module_outside_the_training_core_changes_the_stamp(copy, monkeypatch, module):
    before = stamp_of(copy, monkeypatch)
    with open(copy / module, "a") as fh:
        fh.write("\n# edited\n")
    assert stamp_of(copy, monkeypatch) != before


def test_adding_or_renaming_a_module_changes_the_stamp(copy, monkeypatch):
    before = stamp_of(copy, monkeypatch)
    (copy / "errors.py").rename(copy / "errors2.py")
    renamed = stamp_of(copy, monkeypatch)
    (copy / "extra.py").write_text("")
    assert len({before, renamed, stamp_of(copy, monkeypatch)}) == 3
