"""Every numerical threshold that decides a refusal or shapes an answer.

A refusal is the numerical form of an assumption (completeness, distinct
columns, positivity), so these values are part of every result.  Each is
defined here once, every module imports it from here, and every CLI
report lists them all under ``tolerances``.
"""

MASS_TOL = 1e-10              # mass of a law may be off by this; less counts as none
INPUT_NEG_TOL = 1e-12         # most negative input-law entry clipped to zero
RANK_TOL = 1e-7               # least singular-value ratio of the (z, v) margin at rank k
EIGEN_GAP_TOL = 1e-6          # least gap between transfer-matrix eigenvalues
MAX_RETRIES = 8               # random reweightings tried before refusing
COLUMN_MASS_TOL = 1e-12       # least |mass| of a recovered proxy column
KERNEL_NEG_TOL = 1e-6         # most negative entry clipped from a recovered kernel
COND_GUARD = 1e8              # largest condition number of the shared f(z | w)
PROJECTION_TOL = 1e-4         # most negative entry of a deconvolved latent joint
ASSEMBLY_MASS_TOL = 1e-8      # mass of the assembled f(y, x) may be off by this
QUANTILE_TOL = 1e-12          # a CDF value this close below tau reaches the tau-quantile
ATOM_TOL = 1e-12              # stratum effects closer than this are one atom
LABEL_TOL = 1e-9              # least separation of two latent-state labels
POINT_IDENTIFIED_TOL = 1e-7   # widest bounds interval reported as a point
ENUMERATION_GUARD = 10 ** 7   # most cells of any oracle joint, kernel or noise sum
ROLE_ASSIGNMENT_GUARD = 8000  # most assignments of 3 proxy roles that classify tries
CANONICAL_DIGITS = 12         # decimals of f(z | w) that fix the canonical latent order
CI_TOL = 1e-10                # largest cell gap of an exact counterfactual independence
GOLDEN_TOL = 1e-9             # largest gap of an end-to-end report to its golden
