"""The in-tree build backend: metadata source, wheel contents, RECORD hashes."""

from __future__ import annotations

import base64
import csv
import hashlib
import importlib.util
import io
import tarfile
import zipfile
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def backend():
    path = REPO_ROOT / "build_backend" / "critnet_build.py"
    spec = importlib.util.spec_from_file_location("critnet_build", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fallback_reader_agrees_with_tomllib(backend):
    tomllib = pytest.importorskip("tomllib")
    text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert (
        backend._parse_toml_subset(text)["project"]
        == tomllib.loads(text)["project"]
    )


@pytest.mark.parametrize(
    "line",
    [
        'readme = {file = "README.md"}',
        "version = '0.1.0'",
        'version = "0.1.0"  # comment',
        'classifiers = ["a",',
        "dynamic = [1]",
    ],
)
def test_fallback_reader_refuses_what_it_cannot_read(backend, line):
    with pytest.raises(ValueError, match="without tomllib"):
        backend._parse_toml_subset(f'[project]\nname = "x"\n{line}\n')


def test_fallback_reader_skips_other_tables(backend):
    text = (
        '[tool.x]\nkey = 1.5\n[project]\nname = "x"\n[project.scripts]\nx = "m:f"\n'
        '[[tool.y]]\nname = "y"\n'
    )
    assert backend._parse_toml_subset(text) == {
        "project": {"name": "x", "scripts": {"x": "m:f"}}
    }


def test_wheel_record_matches_contents(backend, tmp_path):
    stem = f"critnet-{backend._project()['version']}"
    name = backend.build_wheel(str(tmp_path))
    assert name == f"{stem}-py3-none-any.whl"
    with zipfile.ZipFile(tmp_path / name) as wheel:
        files = {info.filename: wheel.read(info) for info in wheel.infolist()}
    dist_info = f"{stem}.dist-info"
    rows = list(csv.reader(io.StringIO(files[f"{dist_info}/RECORD"].decode())))
    assert {row[0] for row in rows} == set(files)
    for path, digest, size in rows:
        if path == f"{dist_info}/RECORD":
            assert (digest, size) == ("", "")
            continue
        data = files[path]
        expected = base64.urlsafe_b64encode(hashlib.sha256(data).digest())
        assert digest == "sha256=" + expected.rstrip(b"=").decode()
        assert int(size) == len(data)
    assert "critnet/cli.py" in files
    assert not any("__pycache__" in path for path in files)
    assert b"critnet = critnet.cli:main" in files[f"{dist_info}/entry_points.txt"]
    assert b"Root-Is-Purelib: true" in files[f"{dist_info}/WHEEL"]


def test_editable_wheel_holds_only_a_pth(backend, tmp_path):
    stem = f"critnet-{backend._project()['version']}"
    name = backend.build_editable(str(tmp_path))
    with zipfile.ZipFile(tmp_path / name) as wheel:
        payload = [
            path for path in wheel.namelist() if ".dist-info/" not in path
        ]
        assert payload == [f"__editable__.{stem}.pth"]
        assert wheel.read(payload[0]).decode().strip() == str(REPO_ROOT / "src")


def test_sdist_builds_the_same_wheel(backend, tmp_path):
    with tarfile.open(tmp_path / backend.build_sdist(str(tmp_path))) as sdist:
        # The "data" filter exists from 3.10.12 on; 3.12 and 3.13 warn without one.
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        sdist.extractall(tmp_path / "unpacked", **safe)
    (tree,) = (tmp_path / "unpacked").iterdir()
    assert (tree / "PKG-INFO").is_file()
    spec = importlib.util.spec_from_file_location(
        "critnet_build_sdist", tree / "build_backend" / "critnet_build.py"
    )
    rebuilt = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(rebuilt)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    name = backend.build_wheel(str(tmp_path / "a"))
    assert rebuilt.build_wheel(str(tmp_path / "b")) == name
    assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
