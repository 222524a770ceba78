"""Bit-identity check of two revisions on the benchmark's run units.

Usage, from anywhere inside a git checkout with both revisions present:

    python3 tools/identity.py REV_A REV_B

Each revision is exported, as committed, with ``git archive`` into a
temporary directory, which is removed at the end; nothing is registered in
the repository, and uncommitted changes are not seen.  For each exported
tree and for seeds 1 and 2, a subprocess of this script
(``--list --tree DIR --seed N --workload W ...``) imports that tree's
``src/`` and ``bench/workloads.py``, runs every unit of the listed workloads
once and prints ``label sha1`` per unit, the digest taken over the unit's
``Outcome.fingerprint`` (report and trace bytes for a CLI unit; status,
``x``, per-record x/rho/residuals and final multipliers for a library
unit).  ``catalog_cli`` is listed for seed 1 only: the seed merely shuffles
the order of its 20 units, so seed 2 would repeat them.  The script prints
the units that differ and ``k/40 equal``, and exits nonzero on any
difference.

Fingerprints depend on the machine (OpenBLAS picks its kernels by CPU), so
no golden file is kept: compare two revisions on the same machine.  Equal
fingerprints are evidence, not proof: every bench constraint gradient is
all ones and every rho a power of ten, so a reassociation inside
``alcore`` (for example folding rho into ``Ga`` before the rank-one
product ``Ga[rows] @ Ga.T``) rounds alike on these units and is not seen,
and so does any rank-one term with more than one active constraint, which
no unit has.  Such changes need a reference test with general data as well.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("catalog_cli", "dense400", "fd_ring50")
# (seed, workloads listed for it); catalog_cli's units do not depend on the seed.
PLAN = ((1, WORKLOADS), (2, ("dense400", "fd_ring50")))
# The benchmark's BLAS pinning: thread counts can change the rounding.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def list_fingerprints(tree: Path, seed: int, workloads: list[str]) -> None:
    """Print ``label sha1`` for every unit of ``workloads`` in ``tree``."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    import gnepalm
    import workloads as bench

    if not Path(gnepalm.__file__).resolve().is_relative_to(tree.resolve()):
        sys.exit(f"gnepalm was imported from {gnepalm.__file__}, not from {tree}")
    out = sys.stdout
    with tempfile.TemporaryDirectory() as workdir, contextlib.redirect_stdout(sys.stderr):
        for workload in workloads:
            units, _ = bench.build(workload, seed, Path(workdir))
            for unit in units:
                digest = hashlib.sha1(unit.collect(unit.call()).fingerprint).hexdigest()
                out.write(f"{unit.label} {digest}\n")


def export(rev: str, dest: Path) -> None:
    """Write the files of ``rev`` into the existing directory ``dest``."""
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev], stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    finally:
        archive.stdout.close()
        if archive.wait():
            raise SystemExit(f"git archive {rev} failed")


def fingerprints(tree: Path, seed: int, workloads: tuple[str, ...]) -> dict[str, str]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--list",
           "--tree", str(tree), "--seed", str(seed)]
    for workload in workloads:
        cmd += ["--workload", workload]
    listing = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    return dict(line.rsplit(" ", 1) for line in listing.splitlines())


def resolve(rev: str) -> str:
    """The full hash of the commit ``rev`` names."""
    return subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                          stdout=subprocess.PIPE, text=True, check=True).stdout.strip()


def compare(rev_a: str, rev_b: str) -> int:
    """Print the units whose fingerprints differ and ``k/total equal``; 1 if any differ."""
    commits = [resolve(rev) for rev in (rev_a, rev_b)]
    with tempfile.TemporaryDirectory(prefix="gnepalm-identity-") as tmp:
        trees = [Path(tmp) / name for name in ("a", "b")]
        for commit, tree in zip(commits, trees):
            tree.mkdir()
            export(commit, tree)
        equal = total = 0
        for seed, workloads in PLAN:
            a, b = (fingerprints(tree, seed, workloads) for tree in trees)
            for label in sorted(a.keys() | b.keys()):
                total += 1
                if label in a and a.get(label) == b.get(label):
                    equal += 1
                else:
                    print(f"differs: seed {seed} {label}")
    print(f"{equal}/{total} equal ({rev_a} {commits[0][:12]}, {rev_b} {commits[1][:12]})")
    return 0 if equal == total else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("revs", nargs="*", metavar="REV", help="the two revisions to compare")
    parser.add_argument("--list", action="store_true",
                        help="print the fingerprints of one tree instead of comparing")
    parser.add_argument("--tree", type=Path, help="checkout to list (with --list)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (with --list)")
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="list only this workload; repeatable (with --list)")
    args = parser.parse_args(argv)
    if args.list:
        if args.tree is None or args.revs:
            parser.error("--list takes --tree and no revisions")
        list_fingerprints(args.tree, args.seed, args.workload or list(WORKLOADS))
        return 0
    if len(args.revs) != 2:
        parser.error("give two revisions, REV_A and REV_B")
    return compare(*args.revs)


if __name__ == "__main__":
    sys.exit(main())
