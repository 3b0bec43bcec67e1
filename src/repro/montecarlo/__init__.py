"""Monte Carlo analysis of the sensor (Fig. 5 and Tab. 1).

The paper perturbs every circuit parameter and the load capacitance with a
uniform +/-15 % relative variation, draws the two clock slews independently
from U[0.1 ns, 0.4 ns], sweeps the skew, and reports the scatter of
``Vmin`` vs ``tau`` plus the probabilities of losing a true error
(``p_loose``) and raising a false one (``p_false``).
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".sampling": ("MonteCarloSample", "sample_population"),
    ".analysis": ("ScatterPoint", "scatter_analysis", "ErrorProbabilities",
                  "error_probabilities"),
})
