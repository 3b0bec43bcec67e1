"""Skew budgets and sensor-sensitivity tuning.

Sec. 2: "By acting on such a threshold voltage (Vth) and/or on the delay of
the sensing circuit blocks, it is possible to set a suitable tolerance
interval."  This module derives what *suitable* means for a synchronous
machine and tunes the sensor to it:

* :func:`skew_budget` - the classic setup/hold window on the skew between
  a launch flop's clock and a capture flop's clock::

      setup:  t_skew >= clk_to_q + comb_max + setup - period
      hold:   t_skew <= clk_to_q + comb_min - hold

  (``t_skew = t_capture - t_launch``; a skew inside the window is harmless
  by construction, one outside it can break the machine);

* :func:`recommend_sensitivity` - the largest ``tau_min`` that still
  catches every dangerous skew, with a safety margin;

* :func:`tune_threshold` - the interpretation threshold ``Vth`` that
  realises a requested ``tau_min`` on a given sensor (the paper's first
  knob).  ``tau_min`` is where ``Vmin(tau)`` crosses ``Vth``, so that
  threshold is ``Vmin`` at the requested skew: one probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analog.engine import TransientOptions
from repro.core.sensing import SensorSizing
from repro.core.sensitivity import vmin_for_skew
from repro.devices.process import ProcessParams
from repro.units import ns


@dataclass(frozen=True)
class SkewBudget:
    """Allowed skew window ``[min_skew, max_skew]`` for one timing path."""

    min_skew: float   # most negative tolerable skew (setup side)
    max_skew: float   # most positive tolerable skew (hold side)

    def __post_init__(self) -> None:
        if self.min_skew > self.max_skew:
            raise ValueError(
                "infeasible timing: setup bound exceeds hold bound "
                f"({self.min_skew} > {self.max_skew})"
            )

    @property
    def symmetric_tolerance(self) -> float:
        """Largest ``t`` such that any skew in ``[-t, t]`` is safe."""
        return max(0.0, min(-self.min_skew, self.max_skew))

    def contains(self, skew: float) -> bool:
        """Whether ``skew`` is harmless for this path."""
        return self.min_skew <= skew <= self.max_skew


def skew_budget(
    period: float,
    comb_min: float,
    comb_max: float,
    clk_to_q: float = 200e-12,
    setup: float = 100e-12,
    hold: float = 50e-12,
) -> SkewBudget:
    """Setup/hold skew window for a launch->capture path.

    Parameters mirror :class:`~repro.logicsim.flipflop.DFlipFlop`;
    ``comb_min`` / ``comb_max`` bound the combinational delay between the
    two flops.
    """
    if comb_min > comb_max:
        raise ValueError("comb_min exceeds comb_max")
    lower = clk_to_q + comb_max + setup - period
    upper = clk_to_q + comb_min - hold
    return SkewBudget(min_skew=lower, max_skew=upper)


def recommend_sensitivity(budget: SkewBudget, margin: float = 0.8) -> float:
    """The ``tau_min`` a monitoring sensor should be tuned to.

    The sensor must flag every skew the machine cannot tolerate, so its
    sensitivity must sit *inside* the budget; ``margin`` < 1 keeps a guard
    band for the sensor's own variability (Tab. 1's ``p_loose``).
    """
    if not 0.0 < margin <= 1.0:
        raise ValueError("margin must be in (0, 1]")
    tolerance = budget.symmetric_tolerance
    if tolerance <= 0.0:
        raise ValueError(
            "path has no symmetric skew tolerance; fix the timing first"
        )
    return tolerance * margin


def tune_threshold(
    target_tau_min: float,
    load: float,
    sizing: Optional[SensorSizing] = None,
    process: Optional[ProcessParams] = None,
    vth_lo: float = 1.2,
    vth_hi: float = 4.2,
    options: Optional[TransientOptions] = None,
) -> float:
    """Interpretation threshold realising ``target_tau_min``.

    :func:`~repro.core.sensitivity.extract_tau_min` at threshold ``Vth``
    finds the skew where ``Vmin(tau) = Vth``, and ``Vmin`` rises
    monotonically with ``tau``, so the threshold whose ``tau_min`` is
    the target is ``Vmin(target_tau_min)``: one
    :func:`~repro.core.sensitivity.vmin_for_skew` probe at
    ``extract_tau_min``'s default 0.2 ns slew.  By the same
    monotonicity, the targets reachable with a threshold in
    ``[vth_lo, vth_hi]`` are exactly those whose ``Vmin`` lies in it;
    any other target raises ``ValueError``.
    """
    vth = vmin_for_skew(
        target_tau_min, load, ns(0.2), sizing=sizing, process=process,
        options=options,
    )
    if not vth_lo <= vth <= vth_hi:
        raise ValueError(
            f"target tau_min {target_tau_min:.3e} s needs Vth = {vth:.3f} V, "
            f"outside the achievable range [{vth_lo}, {vth_hi}] V for this "
            "sensor"
        )
    return vth
