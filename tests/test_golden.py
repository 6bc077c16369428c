"""Every output keeps the bits recorded in golden.json (see golden.py)."""

import golden
import pytest


def test_outputs_keep_their_golden_hashes():
    record = golden.load()
    if record["fingerprint"] != golden.fingerprint():
        pytest.skip(f"golden.json was written on a box with fingerprint {record['fingerprint']}, "
                    f"this one has {golden.fingerprint()}")
    hashes = golden.compute()
    assert sorted(hashes) == sorted(record["hashes"])
    moved = [name for name, h in hashes.items() if record["hashes"][name] != h]
    assert not moved, "outputs moved; if on purpose, regenerate with: PYTHONPATH=src python tests/golden.py --write"
