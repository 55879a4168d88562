"""Tail diagnostics: Hill curves, uniform QQ data, exp/log data transforms."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import pmml_cdf
from .errors import ValidationError, _array


@dataclass(frozen=True)
class DataSeries:
    """A labeled vector of strictly positive finite observations."""

    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        v = _array(self.values, "values", interval="(0, inf)").reshape(-1)
        object.__setattr__(self, "values", v)
        if v.size == 0:
            raise ValidationError("values must be nonempty")


def _values(data) -> np.ndarray:
    """The observations of data, checked even when data is a DataSeries:
    exp_transform's output may hold zeros."""
    return DataSeries(data.values if isinstance(data, DataSeries)
                      else data).values


def hill_curve(data) -> np.ndarray:
    """Hill estimates H_k for k = 1..n-1, returned as an (n-1, 2) array.

    H_k = (1/k) sum_{i=1..k} log X_(n-i+1) - log X_(n-k). Ties in the top
    order statistics give H_k = 0, emitted rather than raised. The curve is
    exactly invariant under multiplicative rescaling of the data.
    """
    x = _values(data)
    n = x.size
    if n < 3:
        raise ValidationError("need at least 3 observations")
    ls = np.sort(x)
    np.log(ls, out=ls)
    out = np.empty((n - 1, 2))
    out[:, 0] = np.arange(1, n)
    # cumulative sums of the top k log order statistics, then H_k in place
    hk = np.cumsum(ls[: 0: -1], out=out[:, 1])
    hk /= out[:, 0]
    hk -= ls[-2::-1]
    return out


def exp_transform(data) -> DataSeries:
    """Elementwise y = exp(x) - 1, moving light-tailed data into the Pareto domain.

    Inputs must be nonnegative and at most 700; x = 0 maps to y = 0, which is
    kept in the output even though zeros are not valid observations elsewhere.
    """
    label = data.label if isinstance(data, DataSeries) else ""
    x = _array(data.values if isinstance(data, DataSeries) else data,
               "values", interval="[0, inf)").reshape(-1)
    if x.size == 0:
        raise ValidationError("values must be nonempty")
    bad = np.nonzero(x > 700.0)[0]
    if bad.size:
        shown = bad[:20].tolist()
        more = f" and {bad.size - 20} more" if bad.size > 20 else ""
        raise ValidationError(
            f"exp transform overflows at indices {shown}{more}"
        )
    # boundary zeros are legal transform output; bypass the strict container
    out = DataSeries.__new__(DataSeries)
    object.__setattr__(out, "values", np.expm1(x))
    object.__setattr__(out, "label", label)
    return out


def log_back_transform(data) -> DataSeries:
    """Elementwise x = log(1 + y); inverse of exp_transform to 1e-12."""
    label = data.label if isinstance(data, DataSeries) else ""
    y = _values(data)
    return DataSeries(np.log1p(y), label)


def qq_uniform(model, data) -> np.ndarray:
    """Uniform QQ pairs (i/(n+1), F(x_(i))) for a fitted model.

    A perfect fit lies on the diagonal. Data is sorted internally.
    """
    x = np.sort(_values(data))
    n = x.size
    theo = np.arange(1, n + 1) / (n + 1.0)
    emp = np.atleast_1d(pmml_cdf(model, x))
    return np.column_stack((theo, emp))
