"""Every CLI table agrees with the JSON of the same run, and the parser stays pinned.

Cells are compared textually: a float cell must be ``repr(float(v))`` of the
value in the JSON document, NaN or None must be an empty cell, and every
table is LF-terminated.
"""

import argparse
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphon_games import cli
from graphon_games.spectral import midpoints


def run(tmp_path, name, args):
    out = tmp_path / name
    assert cli.main(args + ["--out", str(out)]) == 0
    return out


def read_table(path):
    raw = path.read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")
    lines = raw.decode().split("\n")[:-1]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def cell(v):
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return ""
    return repr(float(v))


def load(path):
    return json.loads(path.read_text())


def test_experiment_summaries_match_their_json(tmp_path):
    minmax = ["--graphon", "minmax", "--beta", "1", "--format", "json", "--jobs", "1"]
    out = run(tmp_path, "dist", ["distance-exp", *minmax, "--alpha", "0.5", "--Ns", "10,20",
                                 "--trials", "3", "--M", "40", "--seed", "7"])
    header, rows = read_table(out / "summary.csv")
    assert header == ["N", "kind", "p0", "p25", "p50", "p75", "p95", "bound_weighted",
                      "bound_simple", "failures"]
    docs = load(out / "summary.json")
    assert len(rows) == len(docs) == 4
    for row, st in zip(rows, docs):
        pcts = [cell(st["percentiles"][f"p{p}"]) for p in (0, 25, 50, 75, 95)]
        assert row == [str(st["N"]), st["kind"], *pcts, cell(st["bound_weighted"]),
                       cell(st["bound_simple"]), str(st["failures"])]
    header, rows = read_table(out / "distances.csv")
    assert header == ["N", "trial", "kind", "distance", "bound", "d_N_event"]
    assert len(rows) == 12

    out = run(tmp_path, "welf", ["welfare-exp", *minmax, "--alpha", "5", "--Ns", "10,20,30",
                                 "--trials", "2", "--optimal-cap", "20", "--seed", "1"])
    header, rows = read_table(out / "summary.csv")
    assert header == ["N", "mean_T", "mean_T_hom", "mean_T_nh", "mean_T_gh", "mean_T_opt",
                      "gap_p50", "ratio_p50", "failures"]
    docs = load(out / "summary.json")
    assert len(rows) == len(docs) == 3
    for row, st in zip(rows, docs):
        means = [cell(st[k]) for k in ("mean_T", "mean_T_hom", "mean_T_nh", "mean_T_gh",
                                       "mean_T_opt")]
        assert row == [str(st["N"]), *means, cell(st["gap_percentiles"].get("p50")),
                       cell(st["ratio_percentiles"].get("p50")), str(st["failures"])]
    # every N=10 trial fails; N=30 is above the optimal-solver cap
    assert rows[0][1:] == [""] * 7 + ["2"] and rows[1][5] != "" and rows[2][5] == ""
    header, rows = read_table(out / "welfare.csv")
    assert header == ["N", "trial", "T", "T_hom", "T_nh", "T_gh", "T_opt", "gap"]
    assert [r[6] == "" for r in rows] == [False, True, True]

    out = run(tmp_path, "bne", ["bne-epsilon", "--graphon", "minmax", "--alpha", "3", "--beta",
                                "1", "--Ns", "20,40", "--trials", "30", "--M", "100",
                                "--seed", "2", "--format", "json"])
    header, rows = read_table(out / "epsilon.csv")
    assert header == ["N", "epsilon_hat", "stderr"]
    docs = load(out / "epsilon.json")
    assert rows == [[str(d["N"]), cell(d["epsilon_hat"]), cell(d["stderr"])] for d in docs]


def test_profiles_match_equilibrium_json(tmp_path):
    out = run(tmp_path, "net", ["solve-network", "--graphon", "minmax", "--N", "15", "--seed",
                                "4", "--alpha", "0.5", "--beta", "1"])
    header, rows = read_table(out / "profile.csv")
    assert header == ["index", "value"]
    profile = load(out / "equilibrium.json")["profile"]
    assert rows == [[str(i), cell(v)] for i, v in enumerate(profile)]

    out = run(tmp_path, "gra", ["solve-graphon", "--graphon", "minmax", "--M", "30",
                                "--alpha", "-0.5", "--beta", "1"])
    header, rows = read_table(out / "profile.csv")
    assert header == ["midpoint", "value"]
    profile = load(out / "equilibrium.json")["profile"]
    assert rows == [[cell(x), cell(v)] for x, v in zip(midpoints(30), profile)]


def test_intervention_tables_match_their_json(tmp_path):
    out = run(tmp_path, "int", ["intervene", "--graphon", "minmax", "--N", "12", "--alpha", "5",
                                "--beta", "1", "--c-per-agent", "0.01", "--seed", "5"])
    results = load(out / "interventions.json")
    header, rows = read_table(out / "interventions.csv")
    assert header == ["policy", "welfare", "budget_used"]
    assert rows == [[r["policy"], cell(r["welfare"]), cell(r["budget_used"])] for r in results]
    header, rows = read_table(out / "allocations.csv")
    assert header == ["index"] + [r["policy"] for r in results]
    assert rows == [[str(i)] + [cell(r["beta_hat"][i]) for r in results] for i in range(12)]


def test_eigen_csv_matches_eigen_json(tmp_path):
    args = ["eigen", "--graphon", "sbm", "--gin", "0.8", "--gout", "0.1", "--w", "0.75,0.25",
            "--M", "20", "--k", "2"]
    csv_out = run(tmp_path, "csv", args)
    doc = load(run(tmp_path, "json", args + ["--format", "json"]) / "eigen.json")
    header, rows = read_table(csv_out / "eigenvalues.csv")
    assert header == ["rank", "value"]
    assert rows == [[str(i), cell(v)] for i, v in enumerate(doc["values"], start=1)]
    header, rows = read_table(csv_out / "eigenfunctions.csv")
    assert header == ["midpoint", "psi1", "psi2"]
    assert rows == [[cell(x)] + [cell(f[i]) for f in doc["functions"]]
                    for i, x in enumerate(midpoints(20))]


# --- parser pin ----------------------------------------------------------------------

_G = ("er", "sbm", "minmax", "grid")
COMMON = {
    "out": (["--out"], ".", None, None, "output directory"),
    "seed": (["--seed"], 0, "int", None, "root RNG seed"),
    "format": (["--format"], "csv", None, ("csv", "json"), None),
    "config": (["--config"], None, None, None, "JSON config file; flags override it"),
    "graphon": (["--graphon"], None, None, _G, None),
    "er": (["--er"], None, "float", None, "shorthand: constant kernel with this p"),
    "p": (["--p"], None, "float", None, "edge probability for --graphon er"),
    "gin": (["--gin"], None, "float", None, "within-community probability"),
    "gout": (["--gout"], None, "float", None, "across-community probability"),
    "w": (["--w"], None, None, None, "comma-separated community masses"),
    "Q": (["--Q"], None, None, None, "JSON K x K community matrix (overrides gin/gout)"),
    "graphon_json": (["--graphon-json"], None, None, None, "file with a serialized graphon"),
}
ALPHA_BETA = {"alpha": (["--alpha"], None, "float", None, None),
              "beta": (["--beta"], None, "float", None, None)}


def _int(flag, default, help=None):
    return ([flag], default, "int", None, help)


JOBS_HELP = "ignored, kept for compatibility: every trial runs in this process"
PINNED = {
    "sample": (("N",), {"N": _int("--N", None),
                        "simple": (["--simple"], False, None, None, "draw the 0-1 network")}),
    "eigen": (None, {"M": _int("--M", 2000), "k": _int("--k", 1)}),
    "solve-network": (("alpha", "beta"), {
        **ALPHA_BETA, "N": _int("--N", None), "simple": (["--simple"], False, None, None, None),
        "network_json": (["--network-json"], None, None, None,
                         "load the network instead of sampling")}),
    "solve-graphon": (("alpha", "beta"), {**ALPHA_BETA, "M": _int("--M", 2000)}),
    "intervene": (("N", "alpha", "beta"), {
        **ALPHA_BETA, "N": _int("--N", None),
        "C": (["--C"], None, "float", None, "total budget"),
        "c_per_agent": (["--c-per-agent"], 0.01, "float", None, "per-agent budget, C = c N"),
        "policy": (["--policy"], "all", None,
                   ("optimal", "network", "graphon", "homogeneous", "all"), None)}),
    "distance-exp": (("alpha", "beta", "Ns"), {
        **ALPHA_BETA, "Ns": (["--Ns"], None, None, None, "comma-separated population sizes"),
        "trials": _int("--trials", 50), "delta": (["--delta"], 0.05, "float", None, None),
        "M": _int("--M", 2000),
        "jobs": _int("--jobs", 0, JOBS_HELP)}),
    "welfare-exp": (("alpha", "beta", "Ns"), {
        **ALPHA_BETA, "c_per_agent": (["--c-per-agent"], 0.01, "float", None, None),
        "Ns": (["--Ns"], None, None, None, None), "trials": _int("--trials", 20),
        "optimal_cap": _int("--optimal-cap", 150),
        "jobs": _int("--jobs", 0, JOBS_HELP)}),
    "bne-epsilon": (("alpha", "beta", "Ns"), {
        **ALPHA_BETA, "Ns": (["--Ns"], None, None, None, None), "trials": _int("--trials", 2000),
        "M": _int("--M", 1000), "L_U": (["--L-U"], None, "float", None, None)}),
}


def _subparsers():
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_parser_options_are_pinned():
    subs = _subparsers()
    assert list(subs) == list(PINNED)
    for name, sp in subs.items():
        required, extra = PINNED[name]
        options = {a.dest: (a.option_strings, a.default, getattr(a.type, "__name__", None),
                            a.choices, a.help)
                   for a in sp._actions if a.dest != "help"}
        assert options == {**COMMON, **extra}, name
        assert sp.get_default("required_params") == required, name


def test_write_csv_formats_cells(tmp_path):
    from graphon_games.experiments import _write_csv

    path = tmp_path / "t.csv"
    _write_csv(path, "a,b,c,d,e", [(1, np.int64(2)), (np.float64(0.1), 1e-20),
                                   np.array([math.nan, 3.0]), (None, 7), ("w", "s")])
    assert path.read_bytes() == b"a,b,c,d,e\n1,0.1,,,w\n2,1e-20,3.0,7,s\n"


def _fmt(value) -> str:
    """The per-cell rule the CSV writer keeps, as it read when it ran once per cell."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


@pytest.mark.parametrize("extra", [-1, 0, 1, "2 blocks + 1"])
def test_write_csv_keeps_the_per_cell_bytes_across_blocks(tmp_path, extra):
    # Cells are formatted a column block at a time; the bytes are those of the
    # per-cell rule, row by row, at and around each block boundary.
    from graphon_games.experiments import _CSV_BLOCK, _write_csv

    n = 2 * _CSV_BLOCK + 1 if extra == "2 blocks + 1" else _CSV_BLOCK + extra
    specials = [math.nan, -0.0, 1e-5, 1e16, 1e-300, 0.1, -2.5, math.inf]
    floats = np.array([specials[i % len(specials)] * (1 + i % 3) for i in range(n)])
    mixed = [[None, 3, np.int64(-4), True, np.bool_(False), "lq", np.float64(1e-5),
              math.nan, np.float64(math.nan), -0.0, 7.25][i % 11] for i in range(n)]
    # Float columns are formatted once per run of equal bits: runs of 1000 that
    # cross every block boundary, a NaN run across the first boundary, and runs
    # of 0.0 next to runs of -0.0.
    runs = np.array([specials[1:][(i // 1000) % 7] for i in range(n)])
    nan_run = np.where(abs(np.arange(n) - _CSV_BLOCK) < 700, math.nan, 2.5)
    zeros = np.where(np.arange(n) // 3 % 2 == 0, 0.0, -0.0)
    columns = [range(n), floats, mixed, np.arange(n) - 5, floats[::-1] * 1e-300,
               np.arange(n) % 2 == 0, runs, nan_run, zeros]
    path = tmp_path / "t.csv"
    _write_csv(path, "i,f,m,k,g,b,r,n,z", columns)
    want = "i,f,m,k,g,b,r,n,z\n" + "".join(",".join(_fmt(v) for v in row) + "\n"
                                           for row in zip(*columns))
    assert path.read_bytes() == want.encode()
    assert len(path.read_bytes().split(b"\n")) == n + 2


def test_write_csv_writes_only_the_header_of_an_empty_table(tmp_path):
    from graphon_games.experiments import _write_csv, write_distance_csv

    _write_csv(tmp_path / "a.csv", "x,y", [np.array([]), []])
    write_distance_csv([], tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == b"x,y\n"
    assert (tmp_path / "b.csv").read_bytes() == b"N,trial,kind,distance,bound,d_N_event\n"


_json_floats = st.floats(allow_subnormal=True) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan])
_json_float_runs = st.lists(st.tuples(_json_floats, st.integers(1, 4))).map(
    lambda runs: [v for v, k in runs for _ in range(k)])
_json_docs = st.recursive(
    _json_floats | _json_float_runs | st.integers(-2**70, 2**70) | st.booleans() | st.none()
    | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=6) | st.lists(inner, max_size=6).map(tuple)
                   | st.dictionaries(st.text(max_size=5) | st.integers(-3, 3), inner, max_size=5)),
    max_leaves=40)


@given(doc=_json_docs)
@settings(max_examples=300, deadline=None)
def test_write_json_writes_the_bytes_of_json_dump(tmp_path_factory, doc):
    # Lists of floats are formatted once per run of equal bits, a block at a
    # time; the file is json.dump(doc, indent=2) and a newline all the same.
    # An integer key, which json turns into a string, sends its dict to json.
    out = tmp_path_factory.mktemp("json")
    cli._write_json(out, "doc.json", doc)
    assert (out / "doc.json").read_text() == json.dumps(doc, indent=2) + "\n"


@given(rows=st.integers(0, 5), cols=st.integers(0, 5), data=st.data())
@settings(max_examples=100, deadline=None)
def test_write_json_writes_a_float_array_as_its_tolist(tmp_path_factory, rows, cols, data):
    # A float64 array of any dimension is written a row at a time, with the bytes
    # its nested lists would have: the empty array and its empty rows included.
    a = np.array(data.draw(st.lists(_json_floats, min_size=rows * cols,
                                    max_size=rows * cols)), dtype=float).reshape(rows, cols)
    out = tmp_path_factory.mktemp("json")
    for doc in (a, a.reshape(-1), {"m": a, "t": a[:, :1], "3d": a[None]}):
        cli._write_json(out, "doc.json", doc)
        want = json.dumps(doc.tolist() if isinstance(doc, np.ndarray)
                          else {k: v.tolist() for k, v in doc.items()}, indent=2)
        assert (out / "doc.json").read_text() == want + "\n"


def test_write_json_keeps_the_bytes_of_float_runs_across_blocks(tmp_path):
    from graphon_games.experiments import _CSV_BLOCK

    n = 2 * _CSV_BLOCK + 1
    values = [0.1, math.nan, -0.0, 0.0, math.inf, -math.inf, 5e-324]
    runs = [values[(i // 1000) % 7] for i in range(n)]
    doc = {"runs": runs, "rows": [runs[:_CSV_BLOCK + 1], [1.5] * n], "mixed": runs + [1]}
    cli._write_json(tmp_path, "doc.json", doc)
    assert (tmp_path / "doc.json").read_text() == json.dumps(doc, indent=2) + "\n"
