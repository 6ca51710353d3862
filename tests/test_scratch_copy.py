"""The LLM oracle's scratch copy: made once per evaluation, and reset to
the original repository between patches.

After any mix of creates, same-size overwrites, truncations, deletions,
mode changes, new and removed directories, and directories replaced by
symlinks, a reset copy has the source's names, types, modes and bytes,
and nothing a symlink points to is touched.
"""

from __future__ import annotations

import os
import shutil
import stat
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxdistill.oracle import _ScratchCopy

from fixtures import write_repo

NAMES = st.sampled_from(["a", "b", "c", "d"])
MODES = [0o000, 0o444, 0o500, 0o600, 0o700, 0o755]
# long before any copy, so the listing trusts these files' mtimes
AGED_NS = 1_000_000_000 * 10**9


def _tree(root: Path) -> dict[str, tuple]:
    """``root`` and each entry under it, without following symlinks: its
    mode (with the type) and a file's bytes or a symlink's target."""
    entries = {".": (os.lstat(root).st_mode, None)}
    for dirpath, dirnames, filenames in os.walk(root):
        for name in dirnames + filenames:
            path = os.path.join(dirpath, name)
            mode = os.lstat(path).st_mode
            if stat.S_ISREG(mode):
                content = Path(path).read_bytes()
            elif stat.S_ISLNK(mode):
                content = os.readlink(path)
            else:
                content = None
            entries[os.path.relpath(path, root)] = (mode, content)
    return entries


@st.composite
def source_trees(draw):
    """Files (path -> (bytes, mode)) and the modes of their directories."""
    paths = draw(st.lists(st.lists(NAMES, min_size=1, max_size=3).map("/".join), min_size=1, max_size=8))
    # a path that another path runs through is that path's directory
    paths = {p for p in paths if not any(q.startswith(p + "/") for q in paths)}
    files = {
        p: (draw(st.binary(max_size=16)), draw(st.sampled_from([0o644, 0o600, 0o755, 0o444])))
        for p in sorted(paths)
    }
    dirs = sorted({os.path.dirname(p) for p in paths} - {""})
    dir_modes = {d: draw(st.sampled_from([0o755, 0o750, 0o700])) for d in dirs}
    return files, dir_modes


def _build(source: Path, files, dir_modes, aged: bool) -> None:
    source.mkdir()
    for rel, (data, _) in files.items():
        (source / rel).parent.mkdir(parents=True, exist_ok=True)
        (source / rel).write_bytes(data)
    for rel, (_, mode) in files.items():
        os.chmod(source / rel, mode)
    for rel, mode in dir_modes.items():
        os.chmod(source / rel, mode)
    if aged:
        for rel in [*files, *dir_modes]:
            os.utime(source / rel, ns=(AGED_NS, AGED_NS))


OPS = st.tuples(
    st.sampled_from(["create", "overwrite", "truncate", "delete", "chmod", "mkdir", "rmdir", "symlink"]),
    st.integers(0, 63),
    NAMES,
    st.binary(max_size=16),
    st.sampled_from(MODES),
)


def _apply(root: Path, op, outside: Path) -> None:
    """Do ``op`` to an entry of the copy, picked by index; an operation
    the entry's state refuses is skipped."""
    kind, pick, name, data, mode = op
    entries = _tree(root)
    files = [r for r, (m, _) in sorted(entries.items()) if stat.S_ISREG(m)]
    dirs = [""] + [r for r, (m, _) in sorted(entries.items()) if stat.S_ISDIR(m) and r != "."]
    try:
        if kind in ("overwrite", "truncate", "delete"):
            if not files:
                return
            target = root / files[pick % len(files)]
            if kind == "overwrite":
                target.write_bytes(bytes(b ^ 0xFF for b in target.read_bytes()))
            elif kind == "truncate":
                os.truncate(target, target.stat().st_size // 2)
            else:
                target.unlink()
        elif kind == "chmod":
            targets = dirs + files
            os.chmod(root / targets[pick % len(targets)], mode)
        elif kind in ("create", "mkdir"):
            target = root / dirs[pick % len(dirs)] / name
            if os.path.lexists(target):
                return
            if kind == "create":
                target.write_bytes(data)
            else:
                target.mkdir()
        elif len(dirs) > 1:  # rmdir or symlink, never of the copy's root
            target = root / dirs[1 + pick % (len(dirs) - 1)]
            shutil.rmtree(target)
            if kind == "symlink":
                os.symlink(outside, target)
    except OSError:
        pass


@settings(max_examples=150, deadline=None)
@given(tree=source_trees(), rounds=st.lists(st.lists(OPS, max_size=10), min_size=1, max_size=3), aged=st.booleans())
def test_a_reset_copy_equals_its_source(tree, rounds, aged):
    files, dir_modes = tree
    with tempfile.TemporaryDirectory() as tmp:
        source, outside = Path(tmp) / "src", Path(tmp) / "outside"
        _build(source, files, dir_modes, aged)
        # the same names as the source, so a reset that followed the
        # symlink would find entries to remove there
        _build(outside, files, dir_modes, aged)
        want, outside_before = _tree(source), _tree(outside)
        with _ScratchCopy(source) as copy:
            root = copy.checkout()
            assert _tree(root) == want
            for ops in rounds:
                for op in ops:
                    _apply(root, op, outside)
                assert copy.checkout() == root
                assert _tree(root) == want
        assert _tree(outside) == outside_before


def test_a_file_not_older_than_the_copy_is_copied_again_at_every_reset(tmp_path):
    """On a coarse filesystem clock, a write in the same tick as the
    source file's own keeps its mtime, as this ``os.utime`` does.  The
    source's mtime here is a minute ahead: not older than the copy."""
    write_repo(tmp_path / "src", {"mod.py": "x = 1\n"})
    ahead = time.time_ns() + 60 * 10**9
    os.utime(tmp_path / "src" / "mod.py", ns=(ahead, ahead))
    with _ScratchCopy(tmp_path / "src") as copy:
        target = copy.checkout() / "mod.py"
        listed = target.stat()
        target.write_text("x = 2\n")
        os.utime(target, ns=(listed.st_atime_ns, listed.st_mtime_ns))
        assert target.stat().st_ino == listed.st_ino
        copy.checkout()
        assert target.read_text() == "x = 1\n"


DAMAGE = {
    "root removed": lambda root: shutil.rmtree(root),
    "root replaced by a file": lambda root: (shutil.rmtree(root), root.write_text("x")),
    "root locked": lambda root: os.chmod(root, 0o000),
    "file left beside the root": lambda root: (root.parent / "stray").write_text("x"),
}


@pytest.mark.parametrize("damage", DAMAGE.values(), ids=DAMAGE.keys())
def test_a_reset_restores_the_copy_root(tmp_path, damage):
    write_repo(tmp_path / "src", {"mod.py": "x = 1\n", "pkg/util.py": "y = 2\n"})
    with _ScratchCopy(tmp_path / "src") as copy:
        root = copy.checkout()
        damage(root)
        assert copy.checkout() == root
        assert _tree(root) == _tree(tmp_path / "src")
        assert os.listdir(root.parent) == ["repo"]


def test_the_copy_is_made_at_the_first_checkout_and_removed_on_exit(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    write_repo(tmp_path / "src", {"mod.py": "x = 1\n"})
    with _ScratchCopy(tmp_path / "src") as copy:
        assert list((tmp_path / "tmp").iterdir()) == []
        root = copy.checkout()
        assert root.parent.parent == tmp_path / "tmp"
        os.chmod(root, 0o000)
    assert list((tmp_path / "tmp").iterdir()) == []
