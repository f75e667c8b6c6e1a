"""Random-matrix-theory oracles: limiting laws, edges, thresholds, spike maps."""

from .autocov import (
    AutocovLaw,
    FactorLimit,
    FactorSignature,
    autocov_factor_limit,
    autocov_identifiable_count,
    autocov_lsd_density,
    autocov_t1,
    autocov_t_edge_limit,
    autocov_t_transform,
)
from .fisher import FisherLaw, fisher_lsd_density
from .marchenko_pastur import MpLaw, mp_cdf, mp_density, mp_quantile, spike_identifiable_count

__all__ = [
    "AutocovLaw",
    "FactorLimit",
    "FactorSignature",
    "FisherLaw",
    "MpLaw",
    "autocov_factor_limit",
    "autocov_identifiable_count",
    "autocov_lsd_density",
    "autocov_t1",
    "autocov_t_edge_limit",
    "autocov_t_transform",
    "fisher_lsd_density",
    "mp_cdf",
    "mp_density",
    "mp_quantile",
    "spike_identifiable_count",
]
