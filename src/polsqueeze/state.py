"""Single-mode polarization-squeezed light: parametrization and macroscopic moments.

The model state is a coherent beam in the horizontal polarization combined
with a squeezed thermal beam in the vertical polarization, both in one
spatial mode.  Everything downstream is a function of the three mean photon
numbers ``(nc, ns, nth)``: coherent, squeezed-vacuum and thermal.

Conventions fixed here and used throughout the package:

* the coherent amplitude is real and non-negative, ``alpha = sqrt(nc)``;
* the squeezing parameter is real and negative, so the ``p`` quadrature of
  the vertical mode and the ``S_z`` Stokes component carry the reduced noise;
* with that choice the anomalous moment ``<a_V^2>`` is real and positive
  (only relative phases are observable, so this is a pure convention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonPurifiable

__all__ = [
    "StateParams",
    "StokesSummary",
    "QuadratureSummary",
    "stokes_summary",
    "quadratures",
    "squeezing_db",
    "purify",
    "apply_loss",
]


@dataclass(frozen=True, slots=True)
class StateParams:
    """Mean photon numbers of the coherent (H) and squeezed-thermal (V) beams."""

    nc: float
    ns: float
    nth: float = 0.0

    def __post_init__(self):
        for name in ("nc", "ns", "nth"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {v!r}")

    @property
    def alpha(self) -> float:
        """Real coherent amplitude of the H mode."""
        return math.sqrt(self.nc)

    @property
    def vmode_mean(self) -> float:
        """Mean photon number of the V mode, ns + nth + 2*ns*nth."""
        return self.ns + self.nth + 2.0 * self.ns * self.nth

    @property
    def anomalous_moment(self) -> float:
        """<a_V^2> = sqrt(ns*(ns+1)) * (1 + 2*nth), real positive by convention."""
        return math.sqrt(self.ns * (self.ns + 1.0)) * (1.0 + 2.0 * self.nth)

    @property
    def anomalous_excess(self) -> float:
        """<a_V^2>^2 - <a_V^dag a_V>^2 = ns + 2*ns*nth - nth**2; > 0 iff pure after loss."""
        return self.ns + 2.0 * self.ns * self.nth - self.nth**2

    @property
    def antisqueeze_ratio(self) -> float:
        """sqrt(ns) + sqrt(ns+1); the x-quadrature noise is scaled by its square."""
        return math.sqrt(self.ns) + math.sqrt(self.ns + 1.0)

    @property
    def thermal_scale(self) -> float:
        """1 + 2*nth; both quadrature variances are scaled by this factor."""
        return 1.0 + 2.0 * self.nth

    def wineland_squeezed(self) -> bool:
        """Metrological squeezing condition, ns > nth**2 / (2*nth + 1).

        Strict inequality on floats; boundary states are treated as not
        squeezed.
        """
        return self.ns > self.nth**2 / (2.0 * self.nth + 1.0)


@dataclass(frozen=True)
class StokesSummary:
    s0: float
    sx: float
    var_sz: float
    wineland_squeezed: bool
    squeezing_db: float


@dataclass(frozen=True)
class QuadratureSummary:
    var_x: float
    var_p: float


def stokes_summary(params: StateParams) -> StokesSummary:
    """Closed-form macroscopic polarization moments.

    2*S0 = nc + ns + nth + 2*ns*nth, 2*Sx = nc - (ns + nth + 2*ns*nth) and
    4*var(Sz) = nc*(1 + 2*ns - 2*sqrt(ns*(ns+1)))*(1 + 2*nth); the Sz variance
    keeps only the term proportional to nc (the V-mode self-noise term of
    order ns + nth is dropped, as it is negligible for macroscopic beams).
    """
    nbar = params.vmode_mean
    s0 = 0.5 * (params.nc + nbar)
    sx = 0.5 * (params.nc - nbar)
    a2 = params.antisqueeze_ratio**2
    # 1 + 2*ns - 2*sqrt(ns*(ns+1)) == 1/a2, written directly for stability
    var_sz = 0.25 * params.nc * params.thermal_scale / a2
    return StokesSummary(
        s0=s0,
        sx=sx,
        var_sz=var_sz,
        wineland_squeezed=params.wineland_squeezed(),
        squeezing_db=squeezing_db(params),
    )


def quadratures(params: StateParams) -> QuadratureSummary:
    """Variances of x = (a+a^dag)/2 and p = i(a^dag-a)/2 for the V mode.

    var(x) = T^2 A^2 / 4 and var(p) = T^2 / (4 A^2) with A = sqrt(ns)+sqrt(ns+1)
    and T^2 = 1+2*nth, so var(x)*var(p) = T^4/16 >= 1/16 with equality only for
    nth = 0.
    """
    a2 = params.antisqueeze_ratio**2
    t2 = params.thermal_scale
    return QuadratureSummary(var_x=0.25 * t2 * a2, var_p=0.25 * t2 / a2)


def squeezing_db(params: StateParams) -> float:
    """Noise reduction of var(p) below the vacuum level 1/4, in decibels.

    Positive values mean squeezing; 10*log10(A^2/T^2).
    """
    a2 = params.antisqueeze_ratio**2
    return 10.0 * math.log10(a2 / params.thermal_scale)


def purify(params: StateParams) -> tuple[StateParams, float]:
    """Pure-state parameters and the transmission that reproduces ``params``.

    Any mixed squeezed state with ns + 2*ns*nth - nth**2 > 0 equals a pure
    squeezed state (nth = 0) sent through a polarization-independent loss
    channel of transmission eta = (ns + 2*ns*nth - nth^2)/(ns + 2*ns*nth + nth).
    Normalized coincidence observables are invariant under that loss, so the
    purified parameters are interchangeable with the original ones wherever a
    thermal-free model is needed.

    Raises
    ------
    NonPurifiable
        If the state is too thermal to arise from a pure state under loss.
    """
    num = params.anomalous_excess
    if params.nth == 0.0:
        return params, 1.0
    if num <= 0.0:
        raise NonPurifiable(
            f"ns + 2*ns*nth - nth^2 = {num:g} <= 0; no pure-state preimage under loss"
        )
    den = params.ns + 2.0 * params.ns * params.nth + params.nth
    eta = num / den
    pure = StateParams(nc=params.nc / eta, ns=den / eta, nth=0.0)
    return pure, eta


def apply_loss(params: StateParams, eta: float) -> StateParams:
    """Parameters after a beam-splitter loss of transmission ``eta``.

    nc -> eta*nc and each quadrature variance v -> eta*v + (1-eta)/4; the
    transformed variance pair is inverted back to (ns, nth) analytically via
    A'^2 = sqrt(var_x'/var_p'), T'^2 = 4*sqrt(var_x'*var_p').  Gaussian states
    are closed under loss, so the inversion always succeeds.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta!r}")
    if eta == 1.0:
        return params
    q = quadratures(params)
    vx = eta * q.var_x + (1.0 - eta) / 4.0
    vp = eta * q.var_p + (1.0 - eta) / 4.0
    a2 = math.sqrt(vx / vp)
    t2 = 4.0 * math.sqrt(vx * vp)
    a = math.sqrt(a2)
    ns = max(0.0, (0.5 * (a - 1.0 / a)) ** 2)
    nth = max(0.0, 0.5 * (t2 - 1.0))
    return StateParams(nc=eta * params.nc, ns=ns, nth=nth)
