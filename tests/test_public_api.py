"""The public surface of graphon_games 0.1.0 keeps importing.

Names are the package's re-exports and each module's ``__all__`` as of 0.1.0;
removing one is an API break and must be deliberate.
"""

import importlib

import pytest

import graphon_games

PACKAGE_NAMES = """
ContractionError DiscretizedOperator DistanceStats EigenPair EpsilonEstimate EquilibriumReport
GenericPayoff GraphonSpec GridFunction InterventionResult IterationLimitError LqPayoff
SimpleNetwork TypeVector WeightedNetwork WelfareStats apply bound_rho br_lq
comparative_statics_bound contraction_factor discretize distance_experiment dominant_eigenpair
erdos_renyi estimate_epsilon evaluate evaluate_policy expected_aggregate graphon_heuristic
grid_kernel homogeneous_policy intervention_experiment l2_distance lipschitz_metadata
local_aggregate lq_as_generic lq_s_max midpoints minmax minmax_eigen_analytic network_heuristic
no_intervention operator_distance optimal_intervention rate_fit sample_types sbm
sbm_eigen_analytic simple_network solve_graphon solve_graphon_generic solve_graphon_lq
solve_network solve_network_generic solve_network_lq step_function_embed
step_graphon_from_matrix top_k_eigen weighted_network welfare welfare_gap __version__
""".split()

MODULE_ALL = {
    "kernels": "GraphonSpec erdos_renyi sbm minmax grid_kernel step_graphon_from_matrix evaluate "
               "lipschitz_metadata to_json from_json",
    "spectral": "GridFunction DiscretizedOperator EigenPair midpoints discretize apply power_method "
                "dominant_eigenpair top_k_eigen sbm_eigen_analytic minmax_eigen_analytic "
                "operator_distance",
    "sampling": "TypeVector WeightedNetwork SimpleNetwork sample_types weighted_network "
                "simple_network network_to_json network_from_json write_edge_csv",
    "equilibrium": "LqPayoff GenericPayoff EquilibriumReport local_aggregate br_lq "
                   "contraction_factor solve_network_lq solve_network_generic solve_graphon_lq "
                   "solve_graphon_generic solve_network solve_graphon step_function_embed "
                   "l2_distance bound_rho comparative_statics_bound lq_s_max lq_as_generic "
                   "matrix_dominant_eigenvalue report_to_json",
    "interventions": "InterventionResult welfare no_intervention homogeneous_policy "
                     "network_heuristic graphon_heuristic optimal_intervention welfare_gap "
                     "evaluate_policy result_to_json",
    "bayes": "EpsilonEstimate expected_aggregate estimate_epsilon",
    "experiments": "DistanceStats WelfareStats distance_experiment intervention_experiment "
                   "rate_fit write_distance_csv write_welfare_csv DISTANCE_CSV_HEADER "
                   "WELFARE_CSV_HEADER",
    "cli": "main entrypoint build_parser",
}


def test_package_names_still_exported():
    missing = [name for name in PACKAGE_NAMES if not hasattr(graphon_games, name)]
    assert not missing


@pytest.mark.parametrize("module", sorted(MODULE_ALL))
def test_module_all_still_importable(module):
    mod = importlib.import_module(f"graphon_games.{module}")
    for name in MODULE_ALL[module].split():
        assert name in mod.__all__, f"{module}.{name} left __all__"
        assert hasattr(mod, name), f"{module}.{name} no longer imports"


def test_payoff_specific_solvers_alias_the_entry_points():
    eq = graphon_games.equilibrium
    assert eq.solve_network_lq is eq.solve_network_generic is eq.solve_network
    assert eq.solve_graphon_lq is eq.solve_graphon_generic is eq.solve_graphon
