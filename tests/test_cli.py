import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphon_games
from graphon_games import cli, interventions, kernels
from graphon_games.errors import IterationLimitError


def run(args):
    return cli.main(args)


# --- eigen ---------------------------------------------------------------------

def test_eigen_minmax_top3(tmp_path):
    code = run(["eigen", "--graphon", "minmax", "--M", "2000", "--k", "3",
                "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "eigenvalues.csv").read_text().splitlines()
    assert lines[0] == "rank,value"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    expected = [1.0 / (np.pi**2 * h**2) for h in (1, 2, 3)]
    assert values == pytest.approx(expected, abs=1e-3)
    # eigenfunction table has one midpoint column plus k psi columns
    header = (tmp_path / "eigenfunctions.csv").read_text().splitlines()[0]
    assert header == "midpoint,psi1,psi2,psi3"
    assert (tmp_path / "manifest.json").exists()


# --- solve-network / solve-graphon ------------------------------------------------

def test_solve_network_empty_er(tmp_path):
    code = run(["solve-network", "--er", "0", "--N", "5", "--alpha", "0.5",
                "--beta", "1", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "equilibrium.json").read_text())
    assert doc["profile"] == [1.0] * 5
    profile = (tmp_path / "profile.csv").read_text().splitlines()
    assert profile[0] == "index,value"
    assert profile[1] == "0,1.0"


def test_solve_graphon_er_closed_form(tmp_path):
    code = run(["solve-graphon", "--er", "0.5", "--M", "50", "--alpha", "0.5",
                "--beta", "1", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "equilibrium.json").read_text())
    assert doc["profile"][0] == pytest.approx(1.0 / 0.75, abs=1e-10)


def test_solve_network_from_file(tmp_path):
    net = {"types": [0.2, 0.8], "matrix": [[0.0, 1.0], [1.0, 0.0]]}
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps(net))
    code = run(["solve-network", "--network-json", str(net_path), "--alpha", "-0.5",
                "--beta", "1", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "equilibrium.json").read_text())
    assert doc["profile"] == pytest.approx([0.8, 0.8], abs=1e-10)


def test_solve_network_on_a_signed_network_writes_an_equilibrium(tmp_path):
    # The clipped linear response (5.26, 4.35, 0) is no equilibrium: agent 3
    # plays 0 and the pair 1/(1 - alpha/3), by best-response iteration.
    matrix = [[0.0, 1.0, -1.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]
    net_path = tmp_path / "signed.json"
    net_path.write_text(json.dumps({"types": [0.2, 0.5, 0.8], "matrix": matrix}))
    code = run(["solve-network", "--network-json", str(net_path), "--alpha", "1.9",
                "--beta", "1", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "equilibrium.json").read_text())
    pair = 1.0 / (1.0 - 1.9 / 3.0)
    assert doc["method"] == "br-iteration" and doc["residual"] <= 1e-10
    assert doc["profile"] == pytest.approx([pair, pair, 0.0], abs=1e-9)


@pytest.mark.parametrize("graphon, spec", [
    (["--graphon", "minmax"], kernels.minmax()),
    (["--graphon", "sbm", "--gin", "0.8", "--gout", "0.1", "--w", "0.75,0.25"],
     kernels.sbm([[0.8, 0.1], [0.1, 0.8]], [0.75, 0.25]))], ids=["minmax", "sbm"])
@pytest.mark.parametrize("alpha", [0.5, -0.5])
def test_weighted_solve_network_runs_on_the_operator_at_the_types(tmp_path, monkeypatch,
                                                                  graphon, spec, alpha):
    # The weighted network's P/N is applied at the sampled types without P. It
    # sums in another order than P @ s, so the profile and lambda_max match the
    # dense solve to round-off, stated as 1e-12 relative.
    from graphon_games import sampling
    from graphon_games.equilibrium import LqPayoff, solve_network

    N, seed = 300, 4
    ref = solve_network(sampling.weighted_network(spec, sampling.sample_types(N, seed)).P,
                        LqPayoff(alpha, 1.0))
    monkeypatch.setattr(cli, "weighted_network", None)  # no dense P is built
    assert run(["solve-network", *graphon, "--N", str(N), "--seed", str(seed), "--alpha",
                str(alpha), "--beta", "1", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "equilibrium.json").read_text())
    assert doc["method"] == ref.method
    assert doc["profile"] == pytest.approx(ref.profile_array().tolist(), rel=1e-12, abs=0)
    assert doc["lambda_max"] == pytest.approx(ref.lambda_max, rel=1e-12, abs=0)
    assert doc["contraction_factor"] == pytest.approx(ref.contraction_factor, rel=1e-12, abs=0)


# --- sample -------------------------------------------------------------------------

def test_sample_writes_network(tmp_path):
    code = run(["sample", "--graphon", "sbm", "--gin", "0.8", "--gout", "0.1",
                "--w", "0.75,0.25", "--N", "12", "--seed", "3", "--simple",
                "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "network.json").read_text())
    A = np.asarray(doc["matrix"])
    assert A.shape == (12, 12)
    assert set(np.unique(A)) <= {0.0, 1.0}
    assert (tmp_path / "edges.csv").exists()


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("graphon", ["minmax", "sbm"])
def test_sample_simple_is_the_simple_network_of_the_weighted_one(tmp_path, graphon, seed):
    # --simple draws from the kernel at the types, with no P: the same A, JSON
    # and edge list as simple_network on the weighted network, byte for byte.
    from graphon_games import experiments, sampling
    code = run(["sample", "--graphon", graphon, "--gin", "0.8", "--gout", "0.1",
                "--w", "0.75,0.25", "--N", "300", "--seed", str(seed), "--simple",
                "--out", str(tmp_path / "cli")])
    assert code == 0
    spec = kernels.minmax() if graphon == "minmax" else kernels.sbm([[0.8, 0.1], [0.1, 0.8]],
                                                                    [0.75, 0.25])
    types = sampling.sample_types(300, seed)
    A = sampling.simple_network(sampling.weighted_network(spec, types),
                                experiments.subseed(seed, 1)).A
    (tmp_path / "ref").mkdir()
    cli._write_json(tmp_path / "ref", "network.json", sampling.network_to_json(A, types))
    sampling.write_edge_csv(A, tmp_path / "ref" / "edges.csv")
    for name in ("network.json", "edges.csv"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()


@pytest.mark.parametrize("N", [1, 40])
@pytest.mark.parametrize("simple", [False, True])
def test_sample_writes_network_json_of_network_to_json(tmp_path, N, simple):
    # The command writes the matrix from the array, a row at a time, with the
    # bytes of network_to_json's nested lists under json.dump(indent=2).
    from graphon_games import sampling
    args = ["sample", "--graphon", "minmax", "--N", str(N), "--seed", "4", "--out", str(tmp_path)]
    assert run(args + ["--simple"] * simple) == 0
    types = sampling.sample_types(N, 4)
    matrix = (cli._sample(kernels.minmax(), N, 4, simple)[0] if simple
              else sampling.weighted_network(kernels.minmax(), types).P)
    want = json.dumps(sampling.network_to_json(matrix, types), indent=2) + "\n"
    assert (tmp_path / "network.json").read_text() == want


def test_sample_holds_no_nested_lists_of_the_matrix(tmp_path):
    # At N = 600 the 0-1 matrix takes 2.9 MB and the command peaks near 3.5 MB;
    # written through nested Python lists of the matrix it peaked at 14.6 MB.
    import tracemalloc
    N = 600
    args = ["sample", "--graphon", "minmax", "--N", str(N), "--simple", "--format", "json",
            "--out", str(tmp_path)]
    assert run(args) == 0
    tracemalloc.start()
    try:
        assert run(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * N * N + N * N + 1_000_000


@pytest.mark.parametrize("alpha", [0.5, -0.5])
@pytest.mark.parametrize("graphon", ["minmax", "sbm"])
def test_simple_solve_network_is_solve_network_of_the_simple_network(tmp_path, graphon, alpha):
    # --simple --N solves the A/N the draw wrote, with no copy and no checks:
    # the same profile and report as solve_network on simple_network's A.
    from graphon_games import experiments, sampling
    from graphon_games.equilibrium import LqPayoff, report_to_json, solve_network
    N, seed = 300, 3
    code = run(["solve-network", "--graphon", graphon, "--gin", "0.8", "--gout", "0.1",
                "--w", "0.75,0.25", "--N", str(N), "--seed", str(seed), "--simple",
                "--alpha", str(alpha), "--beta", "1", "--out", str(tmp_path / "cli")])
    assert code == 0
    spec = kernels.minmax() if graphon == "minmax" else kernels.sbm([[0.8, 0.1], [0.1, 0.8]],
                                                                    [0.75, 0.25])
    types = sampling.sample_types(N, seed)
    A = sampling.simple_network(sampling.weighted_network(spec, types),
                                experiments.subseed(seed, 1)).A
    report = solve_network(A, LqPayoff(alpha, 1.0))
    (tmp_path / "ref").mkdir()
    cli._write_json(tmp_path / "ref", "equilibrium.json", report_to_json(report))
    profile = report.profile_array()
    cli._write_csv(tmp_path / "ref" / "profile.csv", "index,value",
                   [range(len(profile)), profile])
    for name in ("equilibrium.json", "profile.csv"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()


# --- intervene -------------------------------------------------------------------------

def test_intervene_all_policies(tmp_path):
    code = run(["intervene", "--graphon", "minmax", "--N", "25", "--alpha", "2",
                "--beta", "1", "--c-per-agent", "0.01", "--seed", "5",
                "--out", str(tmp_path)])
    assert code == 0
    results = json.loads((tmp_path / "interventions.json").read_text())
    by_policy = {r["policy"]: r for r in results}
    assert set(by_policy) == {"none", "homogeneous", "network-heuristic",
                              "graphon-heuristic", "optimal"}
    best = by_policy["optimal"]["welfare"]
    for name in ("homogeneous", "network-heuristic", "graphon-heuristic"):
        assert best >= by_policy[name]["welfare"] - 1e-9
    assert by_policy["homogeneous"]["welfare"] / by_policy["none"]["welfare"] == pytest.approx(
        1.21, abs=1e-9)


@pytest.mark.parametrize("graphon", ["minmax", "sbm"])
def test_intervene_solves_the_simple_network_of_the_weighted_one(tmp_path, graphon):
    # intervene hands the policies the A/N its draw wrote: the same tables and
    # JSON as _policies on simple_network's A of the weighted network, over N.
    from graphon_games import experiments, sampling
    N, seed, alpha = 300, 3, 1.0
    assert run(["intervene", "--graphon", graphon, "--gin", "0.8", "--gout", "0.1",
                "--w", "0.75,0.25", "--N", str(N), "--seed", str(seed), "--alpha", str(alpha),
                "--beta", "1", "--out", str(tmp_path / "cli")]) == 0
    spec = kernels.minmax() if graphon == "minmax" else kernels.sbm([[0.8, 0.1], [0.1, 0.8]],
                                                                    [0.75, 0.25])
    types = sampling.sample_types(N, seed)
    A = sampling.simple_network(sampling.weighted_network(spec, types),
                                experiments.subseed(seed, 1)).A
    results = list(interventions._policies(A / N, spec, types, alpha, 1.0, 0.01 * N,
                                           interventions.POLICIES[1:]).values())
    ref = tmp_path / "ref"
    ref.mkdir()
    cli._write_json(ref, "interventions.json", [interventions.result_to_json(r) for r in results])
    cli._write_csv(ref / "interventions.csv", "policy,welfare,budget_used",
                   [[r.policy for r in results], [r.welfare for r in results],
                    [r.budget_used for r in results]])
    cli._write_csv(ref / "allocations.csv", "index," + ",".join(r.policy for r in results),
                   [range(N), *(r.beta_hat for r in results)])
    for name in ("interventions.json", "interventions.csv", "allocations.csv"):
        assert (tmp_path / "cli" / name).read_bytes() == (ref / name).read_bytes()


def test_intervene_holds_one_n_by_n_matrix(tmp_path):
    # The command keeps the A/N its draw wrote (8 N^2 bytes) and the draw's link
    # mask (N^2), plus vectors: dividing a drawn A into a second matrix would
    # take another 8 N^2 bytes (5.1 MB at N = 800).
    import tracemalloc
    N = 800
    args = ["intervene", "--graphon", "minmax", "--N", str(N), "--alpha", "5", "--beta", "1",
            "--seed", "3", "--out", str(tmp_path)]
    assert run(args) == 0
    tracemalloc.start()
    try:
        assert run(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * N * N + N * N + 1_000_000


_MINMAX_60 = ["intervene", "--graphon", "minmax", "--N", "60", "--beta", "1", "--seed", "3"]


@pytest.mark.parametrize("alpha", ["-1", "nan"])
@pytest.mark.parametrize("policy", ["homogeneous", "network", "graphon", "optimal", "all"])
def test_every_policy_requires_complements(tmp_path, capsys, policy, alpha):
    # At alpha <= 0 the linear response is no equilibrium: none of its welfares is written.
    assert run([*_MINMAX_60, "--alpha", alpha, "--policy", policy, "--out", str(tmp_path)]) == 1
    assert "require strategic complements" in capsys.readouterr().err
    assert not (tmp_path / "interventions.csv").exists()


def test_a_negative_beta_exits_1(tmp_path, capsys):
    # At beta = -1 the linear response is negative at every node: the
    # equilibrium is s = 0, and no policy's welfare is written.
    args = ["intervene", "--graphon", "minmax", "--N", "50", "--alpha", "5", "--beta", "-1",
            "--C", "0.5", "--out", str(tmp_path)]
    assert run(args) == 1
    assert "beta must be finite and nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "interventions.csv").exists()


def _columns(path):
    rows = [line.split(",") for line in path.read_text().splitlines()]
    return {col[0]: col for col in zip(*rows)}


@pytest.mark.parametrize("policy, label", [
    ("homogeneous", "homogeneous"), ("network", "network-heuristic"),
    ("graphon", "graphon-heuristic"), ("optimal", "optimal")])
def test_a_single_policy_writes_the_rows_of_all_policies(tmp_path, policy, label):
    # One routine composes the policies: a single policy's none and own rows,
    # columns and JSON entries are those of the --policy all run, byte for byte.
    outs = {}
    for name in (policy, "all"):
        outs[name] = tmp_path / name
        assert run([*_MINMAX_60, "--alpha", "5", "--policy", name,
                    "--out", str(outs[name])]) == 0
    rows = {name: {line.split(",")[0]: line for line in
                   (out / "interventions.csv").read_text().splitlines()}
            for name, out in outs.items()}
    assert rows[policy] == {k: rows["all"][k] for k in ("policy", "none", label)}
    columns = {name: _columns(out / "allocations.csv") for name, out in outs.items()}
    assert columns[policy] == {k: columns["all"][k] for k in ("index", "none", label)}
    docs = {name: {d["policy"]: json.dumps(d) for d in
                   json.loads((out / "interventions.json").read_text())}
            for name, out in outs.items()}
    assert docs[policy] == {k: docs["all"][k] for k in ("none", label)}


# --- experiments ----------------------------------------------------------------------

def test_distance_exp_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    args = ["distance-exp", "--graphon", "minmax", "--alpha", "0.5", "--beta", "1",
            "--Ns", "20,40", "--trials", "3", "--M", "80", "--seed", "7"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert (out1 / "distances.csv").read_bytes() == (out2 / "distances.csv").read_bytes()
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
    header = (out1 / "distances.csv").read_text().splitlines()[0]
    assert header == "N,trial,kind,distance,bound,d_N_event"


def test_welfare_exp_summary(tmp_path):
    code = run(["welfare-exp", "--graphon", "minmax", "--alpha", "5", "--beta", "1",
                "--c-per-agent", "0.01", "--Ns", "20", "--trials", "2",
                "--optimal-cap", "25", "--seed", "1", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert lines[0].startswith("N,mean_T,mean_T_hom,mean_T_nh,mean_T_gh,mean_T_opt")
    assert (tmp_path / "welfare.csv").exists()


def test_bne_epsilon_rows(tmp_path):
    code = run(["bne-epsilon", "--graphon", "minmax", "--alpha", "3", "--beta", "1",
                "--Ns", "50,100", "--trials", "50", "--M", "200", "--seed", "2",
                "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "epsilon.csv").read_text().splitlines()
    assert lines[0] == "N,epsilon_hat,stderr"
    assert len(lines) == 3


# --- config file and error mapping ------------------------------------------------------

def test_config_file_with_flag_override(tmp_path):
    config = {"alpha": 0.5, "beta": 1.0, "M": 50}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = run(["solve-graphon", "--er", "0.5", "--alpha", "0.25",
                "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    # alpha came from the flag, M from the config
    doc = json.loads((tmp_path / "equilibrium.json").read_text())
    assert len(doc["profile"]) == 50
    assert doc["profile"][0] == pytest.approx(1.0 / (1.0 - 0.25 * 0.5), abs=1e-10)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["params"]["alpha"] == 0.25
    assert manifest["params"]["M"] == 50


def test_unknown_flag_exits_1(capsys):
    assert run(["eigen", "--graphon", "minmax", "--bogus", "1"]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_graphon_exits_1(tmp_path):
    assert run(["eigen", "--M", "10", "--out", str(tmp_path)]) == 1


def test_contraction_violation_exits_1(tmp_path):
    assert run(["solve-graphon", "--er", "1", "--M", "20", "--alpha", "2",
                "--beta", "1", "--out", str(tmp_path)]) == 1


def test_numerical_failure_exits_2(tmp_path, monkeypatch):
    def boom(args, outdir):
        raise IterationLimitError("did not converge")

    monkeypatch.setattr(cli, "_cmd_eigen", boom)
    assert run(["eigen", "--graphon", "minmax", "--out", str(tmp_path)]) == 2


def test_an_array_too_large_for_memory_exits_1_naming_its_size(tmp_path, capsys, monkeypatch):
    # What numpy raises for a grid kernel's M x M matrix at M = 200 000.
    def too_large(spec, M):
        raise MemoryError(f"Unable to allocate 298. GiB for an array with shape ({M}, {M})")

    monkeypatch.setattr(cli, "discretize", too_large)
    assert run(["eigen", "--graphon", "minmax", "--M", "200000", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "298. GiB" in err


def test_help_exits_0():
    assert run(["--help"]) == 0


def test_bad_graphon_json_exits_1(tmp_path):
    for i, doc in enumerate([{"kind": "er"}, {"kind": "minmax", "p": 0.5}]):
        path = tmp_path / f"g{i}.json"
        path.write_text(json.dumps(doc))
        assert run(["eigen", "--graphon-json", str(path), "--M", "10",
                    "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("flag", ["--config", "--graphon-json", "--network-json"])
def test_missing_input_file_exits_1(tmp_path, flag):
    assert run(["solve-network", "--er", "0.5", "--N", "5", "--alpha", "0.5", "--beta", "1",
                flag, str(tmp_path / "absent.json"), "--out", str(tmp_path)]) == 1


def test_unknown_config_key_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpah": 0.5, "beta": 1.0}))
    assert run(["solve-graphon", "--er", "0.5", "--M", "20", "--alpha", "0.5",
                "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "alpah" in capsys.readouterr().err


def test_config_accepts_a_list_of_population_sizes(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"Ns": [50, 100], "trials": 5, "M": 100}))
    assert run(["bne-epsilon", "--graphon", "minmax", "--alpha", "3", "--beta", "1",
                "--config", str(cfg), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "epsilon.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["50", "100"]


def _matrix(out):
    return np.array(json.loads((out / "network.json").read_text())["matrix"])


def _profile(out):
    return json.loads((out / "equilibrium.json").read_text())["profile"]


# argv, config, exit code, check on the output directory. Config values go through
# the same parsing as flags: type conversion, choices, store_true, and flags win.
_CONFIG_CASES = {
    "string for an int": (["solve-graphon", "--er", "0.5", "--alpha", "0.5", "--beta", "1"],
                          {"M": "50"}, 0, lambda out: len(_profile(out)) == 50),
    "float for an int": (["sample", "--er", "0.5"], {"N": 5.7}, 1, None),
    "list of masses": (["sample", "--graphon", "sbm", "--gin", "0.9", "--gout", "0.1", "--N", "8"],
                       {"w": [0.75, 0.25]}, 0, lambda out: _matrix(out).shape == (8, 8)),
    "JSON matrix": (["sample", "--graphon", "sbm", "--w", "0.5,0.5", "--N", "8"],
                    {"Q": [[0.8, 0.1], [0.1, 0.8]]}, 0, lambda out: _matrix(out).shape == (8, 8)),
    "value outside the choices": (["eigen", "--graphon", "minmax", "--M", "10"],
                                  {"format": "xml"}, 1, None),
    "string for a switch": (["sample", "--er", "0.5", "--N", "8"], {"simple": "false"}, 1, None),
    "switch on": (["sample", "--er", "0.5", "--N", "8"], {"simple": True}, 0,
                  lambda out: set(np.unique(_matrix(out))) <= {0.0, 1.0}),
    "switch off and null": (["sample", "--er", "0.5", "--N", "8"],
                            {"simple": False, "graphon_json": None}, 0,
                            lambda out: np.all(_matrix(out) == 0.5 * (1 - np.eye(8)))),
    "underscored key": (["intervene", "--graphon", "minmax", "--N", "10", "--alpha", "1",
                         "--beta", "1", "--policy", "homogeneous"],
                        {"c_per_agent": 0.5}, 0,
                        lambda out: json.loads((out / "interventions.json").read_text())[1]
                        ["budget_used"] == pytest.approx(5.0)),
    "abbreviated flag wins": (["solve-graphon", "--er", "0.5", "--M", "20", "--beta", "1",
                               "--alph", "0.2"], {"alpha": 0.9}, 0,
                              lambda out: _profile(out)[0] == pytest.approx(1 / 0.9, abs=1e-10)),
}


@pytest.mark.parametrize("case", sorted(_CONFIG_CASES))
def test_config_values_are_parsed_like_flags(tmp_path, case):
    argv, config, code, check = _CONFIG_CASES[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run([*argv, "--config", str(cfg), "--out", str(out)]) == code
    if check is not None:
        assert check(out)


def test_config_must_hold_an_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(["alpha", 0.5]))
    assert run(["solve-graphon", "--er", "0.5", "--alpha", "0.5", "--beta", "1",
                "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "JSON object" in capsys.readouterr().err


def test_manifest_is_written_when_the_run_fails(tmp_path):
    assert run(["distance-exp", "--graphon", "minmax", "--alpha", "0.5", "--beta", "1",
                "--Ns", "10", "--trials", "0", "--M", "40", "--out", str(tmp_path)]) == 1
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "distance-exp"
    assert manifest["params"]["trials"] == 0


def test_repeated_population_size_exits_1(tmp_path, capsys):
    assert run(["distance-exp", "--graphon", "minmax", "--alpha", "0.5", "--beta", "1",
                "--Ns", "20,20", "--trials", "2", "--M", "60", "--out", str(tmp_path)]) == 1
    assert "distinct" in capsys.readouterr().err
    assert not (tmp_path / "distances.csv").exists()


def _run_module(args):
    env = dict(os.environ, PYTHONPATH=str(Path(graphon_games.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "graphon_games.cli", *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_module_invocation_exits_with_the_command_code(tmp_path):
    bad = _run_module(["eigen", "--graphon", "minmax", "--M", "10", "--k", "11",
                       "--out", str(tmp_path / "bad")])
    assert bad.returncode == 1
    assert "k must lie in" in bad.stderr
    good = _run_module(["eigen", "--er", "0.5", "--M", "4", "--k", "1",
                        "--out", str(tmp_path / "good")])
    assert good.returncode == 0, good.stderr
    lines = (tmp_path / "good" / "eigenvalues.csv").read_text().splitlines()
    assert lines[0] == "rank,value"
    assert float(lines[1].split(",")[1]) == pytest.approx(0.5, abs=1e-12)
    assert (tmp_path / "good" / "eigenfunctions.csv").exists()


_EXPERIMENT_OUTPUTS = {"distance-exp": ("distances.csv", "summary.csv"),
                       "welfare-exp": ("welfare.csv", "summary.csv")}


@pytest.mark.parametrize("args", [
    ["distance-exp", "--graphon", "minmax", "--alpha", "0.5", "--Ns", "30,60", "--trials", "4",
     "--M", "150"],
    ["distance-exp", "--graphon", "minmax", "--alpha", "-0.5", "--Ns", "30,60", "--trials", "4",
     "--M", "150"],
    # At N = 100 and 120 the optimum comes from the Lanczos projection, well short of k = N.
    ["welfare-exp", "--graphon", "minmax", "--alpha", "5", "--Ns", "100,120", "--trials", "2",
     "--optimal-cap", "120"],
    ["welfare-exp", "--graphon", "sbm", "--gin", "0.7", "--gout", "0.1", "--w", "0.6,0.4",
     "--alpha", "2", "--Ns", "20,40", "--trials", "3", "--optimal-cap", "40"],
], ids=["distance-exp-complements", "distance-exp-substitutes", "welfare-exp-minmax",
        "welfare-exp-sbm"])
def test_experiment_csvs_do_not_depend_on_jobs_and_no_pool_is_loaded(tmp_path, args):
    # --jobs is accepted and ignored: every trial runs in the calling process, so
    # the default (0) and --jobs 1 and 2 write the same bytes, and a default run
    # loads no process-pool machinery at all.
    args = [*args, "--beta", "1", "--seed", "3"]
    names = _EXPERIMENT_OUTPUTS[args[0]]
    outs = []
    for jobs in ("1", "2"):
        assert run([*args, "--jobs", jobs, "--out", str(tmp_path / jobs)]) == 0
        outs.append([(tmp_path / jobs / name).read_bytes() for name in names])
    code = ("import sys; from graphon_games.cli import main; code = main(sys.argv[1:]); "
            "print(*(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules)); "
            "sys.exit(code)")
    env = dict(os.environ, PYTHONPATH=str(Path(graphon_games.__file__).parents[1]))
    default = subprocess.run([sys.executable, "-c", code, *args, "--out", str(tmp_path / "0")],
                             env=env, capture_output=True, text=True, timeout=120)
    assert default.returncode == 0, default.stderr
    assert default.stdout.strip() == ""
    outs.append([(tmp_path / "0" / name).read_bytes() for name in names])
    assert outs[0] == outs[1] == outs[2]
    if args[0] == "welfare-exp":
        assert b",," not in outs[0][0]  # every trial has its T_opt


# --- NaN parameters, usage errors and the --graphon er path ------------------------

def test_solve_network_with_a_nan_alpha_exits_1_at_once(tmp_path, capsys):
    assert run(["solve-network", "--er", "0.5", "--N", "10", "--alpha", "nan", "--beta", "1",
                "--out", str(tmp_path)]) == 1
    assert "finite alpha" in capsys.readouterr().err
    assert not (tmp_path / "equilibrium.json").exists()


def test_distance_exp_with_a_nan_beta_writes_no_rows(tmp_path):
    assert run(["distance-exp", "--graphon", "minmax", "--alpha", "0.5", "--beta", "nan",
                "--Ns", "10", "--trials", "2", "--M", "40", "--out", str(tmp_path)]) == 1
    assert not (tmp_path / "distances.csv").exists()


def test_bne_epsilon_with_a_nan_L_U_exits_1(tmp_path):
    assert run(["bne-epsilon", "--graphon", "minmax", "--alpha", "0.5", "--beta", "1",
                "--Ns", "10", "--trials", "5", "--M", "40", "--L-U", "nan",
                "--out", str(tmp_path)]) == 1
    assert not (tmp_path / "epsilon.csv").exists()


def test_eigen_with_nan_community_masses_exits_1(tmp_path, capsys):
    assert run(["eigen", "--graphon", "sbm", "--gin", "0.5", "--gout", "0.1", "--w", "nan,nan",
                "--out", str(tmp_path)]) == 1
    assert "finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "eigenvalues.csv").exists()


def test_intervene_with_a_nan_budget_exits_1(tmp_path, capsys):
    assert run(["intervene", "--graphon", "minmax", "--N", "20", "--alpha", "0.5", "--beta", "1",
                "--C", "nan", "--out", str(tmp_path)]) == 1
    assert "budget must be nonnegative" in capsys.readouterr().err


def test_welfare_exp_with_a_negative_optimal_cap_exits_1(tmp_path, capsys):
    # checked where it enters: a negative cap would silently skip every optimum
    assert run(["welfare-exp", "--graphon", "minmax", "--alpha", "5", "--beta", "1", "--Ns", "20",
                "--trials", "1", "--optimal-cap", "-3", "--out", str(tmp_path)]) == 1
    assert "optimal_cap must be an integer of at least 0, got -3" in capsys.readouterr().err
    assert not (tmp_path / "welfare.csv").exists()


@pytest.mark.parametrize("args, message", [
    (["eigen", "--graphon", "er"], "--graphon er requires --p"),
    (["eigen", "--graphon", "sbm", "--gin", "0.5", "--gout", "0.1"], "--graphon sbm requires --w"),
    (["eigen", "--graphon", "sbm", "--w", "0.5,0.5", "--gin", "0.5"],
     "--graphon sbm requires --Q or both --gin and --gout"),
    (["eigen", "--graphon", "grid"], "--graphon grid requires --graphon-json"),
    (["solve-network", "--er", "0.5", "--alpha", "0.5", "--beta", "1"],
     "either --N (to sample) or --network-json is required"),
    (["solve-graphon", "--er", "0.5", "--alpha", "0.5"], "missing required parameters: beta"),
], ids=["er-without-p", "sbm-without-w", "sbm-without-Q", "grid-without-json",
        "solve-network-without-N", "missing-parameter"])
def test_usage_errors_exit_1_with_their_message(tmp_path, capsys, args, message):
    assert run([*args, "--out", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err


def test_intervene_gates_the_game_once_for_all_policies(tmp_path, monkeypatch):
    # One Lanczos run from 1 gates the game, in _check_contraction, and serves every policy.
    calls = []
    gate = interventions._check_contraction

    def counting_gate(*args):
        calls.append(args)
        return gate(*args)

    monkeypatch.setattr(interventions, "_check_contraction", counting_gate)
    assert run(["intervene", "--graphon", "minmax", "--N", "100", "--alpha", "5", "--beta", "1",
                "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("args", [
    ["distance-exp", "--alpha", "0.5", "--Ns", "10", "--trials", "2", "--M", "40", "--jobs", "-2"],
    ["welfare-exp", "--alpha", "2", "--Ns", "10", "--trials", "2", "--jobs", "-1"],
], ids=["distance-exp", "welfare-exp"])
def test_a_negative_jobs_count_exits_1_naming_jobs(tmp_path, capsys, args):
    assert run([*args, "--graphon", "minmax", "--beta", "1", "--out", str(tmp_path)]) == 1
    assert "--jobs" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", [
    ["intervene", "--N", "20"], ["welfare-exp", "--Ns", "20", "--trials", "1", "--jobs", "1"]])
def test_the_welfare_commands_take_no_resolution(tmp_path, capsys, command):
    assert run([*command, "--graphon", "minmax", "--alpha", "2", "--beta", "1", "--M", "5",
                "--out", str(tmp_path)]) == 1
    assert "unrecognized arguments: --M 5" in capsys.readouterr().err


def test_welfare_exp_on_a_grid_kernel_matches_its_blocks(tmp_path):
    # The same three blocks as a grid kernel and as an sbm sample the same
    # networks; only the graphon heuristic is computed differently.
    Q = [[0.8, 0.1, 0.3], [0.1, 0.6, 0.2], [0.3, 0.2, 0.5]]
    tables = []
    for name, spec in (("grid", kernels.grid_kernel(Q)), ("sbm", kernels.sbm(Q, [1 / 3] * 3))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(kernels.to_json(spec)))
        assert run(["welfare-exp", "--graphon-json", str(path), "--alpha", "2", "--beta", "1",
                    "--Ns", "30,60", "--trials", "2", "--optimal-cap", "60", "--seed", "5",
                    "--jobs", "1", "--out", str(tmp_path / name)]) == 0
        lines = (tmp_path / name / "welfare.csv").read_text().splitlines()[1:]
        tables.append(np.array([[float(x) for x in line.split(",")] for line in lines]))
    grid, block = tables
    assert grid.shape == (4, 8)
    assert np.array_equal(np.delete(grid, [5, 7], axis=1), np.delete(block, [5, 7], axis=1))
    assert np.allclose(grid[:, 5], block[:, 5], rtol=1e-12, atol=0.0)


def test_graphon_er_with_p_is_the_er_shorthand(tmp_path):
    outs = []
    for name, flags in (("long", ["--graphon", "er", "--p", "0.3"]), ("short", ["--er", "0.3"])):
        assert run(["eigen", *flags, "--M", "20", "--k", "2", "--out", str(tmp_path / name)]) == 0
        outs.append([(tmp_path / name / f).read_bytes()
                     for f in ("eigenvalues.csv", "eigenfunctions.csv")])
    assert outs[0] == outs[1]


def test_intervene_spends_the_budget_exactly_near_the_hard_case(tmp_path):
    assert run(["intervene", "--er", "0.3", "--N", "150", "--alpha", "2", "--beta", "1e-10",
                "--C", "1", "--out", str(tmp_path)]) == 0
    results = json.loads((tmp_path / "interventions.json").read_text())
    optimal = next(r for r in results if r["policy"] == "optimal")
    assert optimal["budget_used"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("args", [
    ["intervene", "--graphon", "minmax", "--N", "20", "--alpha", "0.5", "--beta", "inf",
     "--C", "1", "--policy", "homogeneous"],
    ["welfare-exp", "--graphon", "minmax", "--alpha", "0.5", "--beta", "nan",
     "--c-per-agent", "0.01", "--Ns", "20", "--trials", "2", "--jobs", "1"],
], ids=["intervene-inf", "welfare-exp-nan"])
def test_a_non_finite_beta_exits_1_naming_beta(tmp_path, capsys, args):
    assert run([*args, "--out", str(tmp_path)]) == 1
    assert "beta must be finite" in capsys.readouterr().err
