"""``tools/identity.py`` prints one fingerprint per benchmark unit and
compares each distinct unit once."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "identity.py"


def test_list_prints_one_sha1_per_catalog_unit():
    cmd = [sys.executable, str(TOOL), "--list", "--tree", str(ROOT),
           "--seed", "1", "--workload", "catalog_cli"]
    listing = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    rows = [line.split(" ") for line in listing.splitlines()]
    assert all(len(row) == 2 for row in rows)
    assert len({label for label, _ in rows}) == len(rows) == 20
    assert all(re.fullmatch("[0-9a-f]{40}", digest) for _, digest in rows)


def test_compare_lists_catalog_units_for_one_seed_only(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("identity_tool", TOOL)
    identity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(identity)
    units = {"catalog_cli": 20, "dense400": 2, "fd_ring50": 8}  # per seed
    listed = []

    def fingerprints(tree, seed, workloads):
        listed.append((tree.name, seed, tuple(workloads)))
        return {f"{w}/{i}": "0" * 40 for w in workloads for i in range(units[w])}

    monkeypatch.setattr(identity, "resolve", lambda rev: rev * 40)
    monkeypatch.setattr(identity, "export", lambda rev, dest: None)
    monkeypatch.setattr(identity, "fingerprints", fingerprints)
    assert identity.compare("a", "b") == 0
    assert capsys.readouterr().out.startswith("40/40 equal (a ")
    assert sorted(listed) == [
        ("a", 1, ("catalog_cli", "dense400", "fd_ring50")), ("a", 2, ("dense400", "fd_ring50")),
        ("b", 1, ("catalog_cli", "dense400", "fd_ring50")), ("b", 2, ("dense400", "fd_ring50")),
    ]
