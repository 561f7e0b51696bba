"""repro.utils.files: the atomic commit every state file goes through."""

import os
import stat

import numpy as np
import pytest

from repro.io.artifacts import _write_npz
from repro.stream.log import write_json_atomic
from repro.utils.files import atomic_write, copy_file_atomic


def _umask_mode():
    mask = os.umask(0)
    os.umask(mask)
    return 0o666 & ~mask


def test_failed_write_keeps_the_target_and_leaves_no_temp(tmp_path):
    target = tmp_path / "state.json"
    target.write_bytes(b"committed")
    with pytest.raises(RuntimeError, match="mid-write"):
        with atomic_write(target) as handle:
            handle.write(b"half of the new bytes")
            raise RuntimeError("mid-write")
    assert target.read_bytes() == b"committed"
    assert os.listdir(tmp_path) == ["state.json"]


def test_committed_files_get_the_umask_mode(tmp_path):
    """Bundles, stats and JSON state files alike: no file is private to
    the writing user unless the umask says so."""
    written = [
        _write_npz(tmp_path / "model-v00001.npz", {"format": "x"},
                   {"a": np.arange(3)}),
        _write_npz(tmp_path / "stats.npz", {"format": "x"},
                   {"a": np.arange(3)}, compress=True, header_name="meta"),
        write_json_atomic(tmp_path / "stream.json", {"version": 1}),
    ]
    written.append(copy_file_atomic(written[0], tmp_path / "current.npz"))
    for path in written:
        assert stat.S_IMODE(path.stat().st_mode) == _umask_mode(), path.name
    assert sorted(os.listdir(tmp_path)) == sorted(p.name for p in written)
