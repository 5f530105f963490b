"""Regenerate the reference outputs under perfbench/reference/.

Run from the root of a checkout:

    python3 perfbench/make_reference.py

For every workload and scale it runs one pass at the workload's reference
(acceptance-suite) seed and stores the outputs: each file's digest, header,
row count and at most REFERENCE_ROWS evenly strided rows. For the eigen
outputs it also records which eigenfunctions are compared: those whose
eigenvalue is separated from both neighbours in the full discretized
spectrum by more than SEPARATION * lambda_1; the rest are basis choices
inside a degenerate eigenspace and are skipped. The stored files were
produced by graphon_games 0.1.0; regenerate them only together with a change
that is meant to alter the program's outputs, and say so with that change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import numpy as np  # noqa: E402

import graphon_games as gg  # noqa: E402
import workloads  # noqa: E402

SEPARATION = 1e-6


def eigen_columns(wl) -> dict:
    M, k = wl.size["M"], wl.size["k"]
    columns = {}
    for name, spec in (("minmax", gg.minmax()), ("sbm", gg.sbm(wl.sbm_Q, wl.sbm_w))):
        ev = np.linalg.eigvalsh(gg.discretize(spec, M).matrix())[::-1]
        rules = {}
        for i in range(k):
            gap = min(abs(ev[i] - ev[j]) for j in (i - 1, i + 1) if 0 <= j < M)
            rules[f"psi{i + 1}"] = "sign" if gap > SEPARATION * ev[0] else "skip"
        columns[f"eigen_{name}/eigenfunctions.csv"] = rules
    return columns


def main() -> None:
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    for scale in ("full", "tiny"):
        for name, cls in workloads.WORKLOADS.items():
            work = Path(tempfile.mkdtemp(prefix="reference-", dir=out_dir))
            try:
                wl = cls(cls.default_seed, scale, work)
                wl.reset()
                wl.run()
                out = wl.outputs()
            finally:
                shutil.rmtree(work, ignore_errors=True)
            problems, _ = wl.check(out)
            if problems:
                raise SystemExit(f"{name} ({scale}) fails its own checks: {problems}")
            doc = {
                "workload": name,
                "scale": scale,
                "seed": cls.default_seed,
                "produced_by": {"graphon_games": gg.__version__, "numpy": np.__version__},
                "columns": eigen_columns(wl) if name == "spectrum" else {},
                "files": workloads.snapshot(out, workloads.REFERENCE_ROWS),
            }
            path = workloads.reference_path(name, scale)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(doc, indent=1) + "\n")
            print(f"wrote {path.relative_to(BENCH_DIR.parent)}")


if __name__ == "__main__":
    main()
