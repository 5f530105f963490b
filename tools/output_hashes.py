"""Hash every file a fixed, small matrix of CLI runs writes, to check byte identity.

    python tools/output_hashes.py OUT [--compare REF]

The matrix runs every command for every kernel family (er, sbm, minmax and a
5 x 5 grid) at --format csv and json, at small sizes, plus edge cases: N = 1
and N = 2, a signed network given by --network-json, welfare tables with NaN
T_opt cells (N above --optimal-cap) and an all-failed welfare row, a
block-constant eigen table of several CSV blocks, and a bne-epsilon run whose
trials take four chunks. Each run writes into
OUT/<run>/, and OUT/<run>/console.txt holds its exit code and what it printed.
OUT/SHA256SUMS gets one "<sha256>  <path>" line per file under OUT, sorted.

With --compare REF, the files whose hashes differ from REF/SHA256SUMS, or that
only one side has, are printed, and the exit status is 1 if there is any.

The program is imported from src/ next to this script, so a checkout hashes
its own code. The bits depend on the CPU, numpy and its BLAS: compare two runs
on one machine, and commit no hashes. Every run is in this process, with OUT
as the working directory, so paths recorded in manifests are the same for any
OUT.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from graphon_games import cli  # noqa: E402

FAMILIES = {
    "er": ["--graphon", "er", "--p", "0.4"],
    "sbm": ["--graphon", "sbm", "--gin", "0.7", "--gout", "0.2", "--w", "0.6,0.4"],
    "minmax": ["--graphon", "minmax"],
    "grid": ["--graphon-json", "grid.json"],
}
GAME = ["--alpha", "0.5", "--beta", "1"]
COMMANDS = {  # N = 150 spans two of the link draw's 128-row blocks
    "sample": ["sample", "--N", "150"],
    "sample-simple": ["sample", "--N", "150", "--simple"],
    "eigen": ["eigen", "--M", "200", "--k", "3"],
    "solve-network": ["solve-network", "--N", "150", *GAME],
    "solve-network-simple": ["solve-network", "--N", "150", "--simple", *GAME],
    "solve-graphon": ["solve-graphon", "--M", "200", *GAME],
    "intervene": ["intervene", "--N", "150", "--alpha", "2", "--beta", "1"],
    "distance-exp": ["distance-exp", "--Ns", "5,150", "--trials", "2", "--M", "400", *GAME],
    "welfare-exp": ["welfare-exp", "--Ns", "10,150", "--trials", "2", "--optimal-cap", "10",
                    "--alpha", "2", "--beta", "1"],  # T_opt is NaN at N = 150
    "bne-epsilon": ["bne-epsilon", "--Ns", "2,150", "--trials", "300", "--M", "200", *GAME],
}
EDGES = {
    "sample-n1": ["sample", "--graphon", "minmax", "--N", "1"],
    "solve-network-n1": ["solve-network", "--graphon", "minmax", "--N", "1", *GAME],
    "solve-network-n2-simple": ["solve-network", "--graphon", "minmax", "--N", "2", "--simple",
                                *GAME],
    "intervene-n1": ["intervene", "--graphon", "minmax", "--N", "1", "--alpha", "2", "--beta", "1"],
    "intervene-n2": ["intervene", "--er", "1", "--N", "2", "--alpha", "1.5", "--beta", "1"],
    "distance-exp-n2": ["distance-exp", "--graphon", "minmax", "--Ns", "2", "--trials", "2",
                        "--M", "40", *GAME],
    "signed-network": ["solve-network", "--network-json", "signed.json", "--alpha", "1.9",
                       "--beta", "1", "--format", "json"],
    "welfare-all-failed": ["welfare-exp", "--er", "0.9", "--Ns", "10", "--trials", "2",
                           "--alpha", "5", "--beta", "1", "--format", "json"],
    "eigen-blocks": ["eigen", "--graphon", "sbm", "--gin", "0.8", "--gout", "0.1",
                     "--w", "0.75,0.25", "--M", "20000", "--k", "2"],
    # four chunks of 82 trials at N = 400, so both uniforms buffers are used twice
    "bne-epsilon-chunks": ["bne-epsilon", "--graphon", "minmax", "--Ns", "400", "--trials", "300",
                           "--M", "200", *GAME],
}
GRID = [[0.9, 0.2, 0.4, 0.1, 0.3], [0.2, 0.7, 0.5, 0.2, 0.1], [0.4, 0.5, 0.6, 0.3, 0.2],
        [0.1, 0.2, 0.3, 0.8, 0.6], [0.3, 0.1, 0.2, 0.6, 0.5]]
SIGNED = {"types": [0.2, 0.5, 0.8], "matrix": [[0, 1, -1], [1, 0, 0], [-1, 0, 0]]}


def runs():
    for name, command in COMMANDS.items():
        for family, flags in FAMILIES.items():
            for fmt in ("csv", "json"):
                yield f"{name}-{family}-{fmt}", [*command, *flags, "--format", fmt]
    yield from EDGES.items()


def run_matrix() -> None:
    """Every run of the matrix, from the working directory; its console output to console.txt."""
    Path("grid.json").write_text(json.dumps({"kind": "grid", "values": GRID}))
    Path("signed.json").write_text(json.dumps(SIGNED))
    for name, argv in runs():
        console = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(console), \
                contextlib.redirect_stdout(console):
            warnings.simplefilter("always")  # each run prints its own warnings, with no path
            warnings.showwarning = lambda message, category, *_: print(
                f"{category.__name__}: {message}", file=sys.stderr)
            code = cli.main([*argv, "--out", name])
        Path(name).mkdir(exist_ok=True)
        Path(name, "console.txt").write_text(f"exit {code}\n{console.getvalue()}")


def hashes(root: Path) -> dict:
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file() and path.name != "SHA256SUMS"}


def read_sums(path: Path) -> dict:
    return dict(reversed(line.split("  ", 1)) for line in path.read_text().splitlines())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="directory for the runs and SHA256SUMS")
    parser.add_argument("--compare", type=Path, default=None,
                        help="directory of an earlier run whose SHA256SUMS to compare against")
    args = parser.parse_args(argv)
    out = args.out.resolve()
    ref = None if args.compare is None else read_sums(args.compare.resolve() / "SHA256SUMS")
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    run_matrix()
    sums = hashes(out)
    (out / "SHA256SUMS").write_text("".join(f"{h}  {p}\n" for p, h in sums.items()))
    print(f"{len(sums)} files hashed into {out / 'SHA256SUMS'}")
    if ref is None:
        return 0
    differ = sorted(p for p in sums.keys() & ref.keys() if sums[p] != ref[p])
    for label, paths in (("differs", differ), ("only here", sorted(sums.keys() - ref.keys())),
                         ("only in reference", sorted(ref.keys() - sums.keys()))):
        for path in paths:
            print(f"{label}: {path}")
    bad = len(differ) + len(sums.keys() ^ ref.keys())
    print(f"{len(sums.keys() & ref.keys()) - len(differ)} identical, {bad} not")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
