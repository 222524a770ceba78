"""``tools/identity.py --list`` prints one fingerprint per benchmark unit."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_list_prints_one_sha1_per_catalog_unit():
    cmd = [sys.executable, str(ROOT / "tools" / "identity.py"), "--list", "--tree", str(ROOT),
           "--seed", "1", "--workload", "catalog_cli"]
    listing = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    rows = [line.split(" ") for line in listing.splitlines()]
    assert all(len(row) == 2 for row in rows)
    assert len({label for label, _ in rows}) == len(rows) == 20
    assert all(re.fullmatch("[0-9a-f]{40}", digest) for _, digest in rows)
