"""Causal identification with proxy variables for a discrete hidden confounder.

Exact, distribution-level machinery: spectral factorization of proxy joints,
two-stage identification pipelines, latent relabeling, rank-invariance
bounds, graphical design checks, and a structural-model oracle.
"""

from .bounds import BoundsReport, bounds_auxiliary_proxy, bounds_outcome_proxy
from .graphs import (FIGURES, PROPOSITIONS, CiQuery, Dag, check_proposition,
                     classify_designs, counterfactual_d_separated, d_separated,
                     twin_network)
from .pipelines import (EstimandReport, LatentOutcomeModel, estimands,
                        identify_auxiliary_proxy, identify_cond_treatment_proxy,
                        identify_outcome_proxy, identify_treatment_proxy,
                        potential_joint)
from .prob import MarkovKernel, ProbTensor, VarSpace, marginalize, restrict
from .relabel import (LabeledLatentModel, RelabelRule, compute_alpha,
                      confounder_effects, relabel_monotone, relabel_unbiased)
from .scm import (NodeSpec, Npsem, arm_label, check_conclusion, counterfactual_joint,
                  effects, observable_joint, observed_joint)
from .spectral import HsFactors, HsOptions, hs_decompose

__version__ = "0.1.0"
