"""Causal identification with proxy variables for a discrete hidden confounder.

Exact, distribution-level machinery: spectral factorization of proxy joints,
two-stage identification pipelines, latent relabeling, rank-invariance
bounds, graphical design checks, and a structural-model oracle.  Each
module is imported on its own, as ``triproxy.<module>``: importing the
package loads no module of it.
"""

__version__ = "0.1.0"
