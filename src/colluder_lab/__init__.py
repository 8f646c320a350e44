"""Identifiability and maximum likelihood estimation for categorical colluder models.

Missing-data graphs with colluder structures (a variable and its response
indicator both causing another response indicator) are non-identifiable in
general, but categorical state spaces can restore full-law identifiability
through a linear system whose rank decides the question.  This package
represents such graphs, decides identifiability, solves the identifying
systems, and estimates the full law by maximum likelihood on the
marginalized observed-data likelihood.
"""

from .errors import (ColluderLabError, ConditionalIndependenceError, DataError,
                     FitError, GraphFormatError, GraphQueryError, LawError,
                     PositivityError, RankDeficiencyError)
from .estimate import (Dataset, FitConfig, FitResult, LikelihoodModel,
                       completion_set, fit, grad_log_likelihood, log_likelihood,
                       population_dataset)
from .fixtures import ccm_graph, cross_censoring_graph, example_graph, example_graphs
from .identify import (BinaryColluderQuantities, ColluderSystem,
                       IdentifiabilityVerdict, binary_closed_form,
                       build_colluder_system, colluder_mechanism, decide_full_law,
                       enumerate_strata, or_factorization_check,
                       quantities_from_observed, rank_test, solve_colluder)
from .lawtable import (Axis, CategoricalLaw, ObservedLawTable, ProbabilityTable,
                       SimConstraints, conditional, joint_probability,
                       observable_axes, observed_law, random_law)
from .mdgraph import (CONTINUOUS, Colluder, MissingDataGraph, Vertex, VertexRole,
                      find_colluders, find_self_censoring, m_separated)
from .oracles import (APPENDIX_C_OBSERVED, ConstructionPair, appendix_a_law,
                      appendix_b_pair, appendix_c_pair, parameter_count)
from .simstudy import SimReport, SimScenario, run_scenario, sample_dataset

__version__ = "0.1.0"
