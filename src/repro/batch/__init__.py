"""Batched vectorized simulation engine: lockstep many-circuit transients.

Every headline figure of the paper (Fig. 4's ``Vmin`` vs skew sweeps,
Fig. 5's Monte Carlo scatter) re-simulates thousands of *structurally
identical* 10-transistor sensors that differ only in parameters, loads,
slews and skew.  This package turns that shape into vectorized math:

* :mod:`repro.batch.compile` - :func:`compile_batch` stacks N parameter
  variants of one netlist topology into batched MNA tensors (the
  :class:`~repro.analog.compile.CompiledCircuit` arrays with a leading
  batch axis, per-sample model cards, shared connectivity);
* :mod:`repro.batch.engine` - :func:`batch_transient` integrates the
  whole stack in lockstep: every sample on its own adaptive time axis
  (own step, breakpoints and stop, so each row reproduces its scalar
  run bit for bit), one vectorized Newton over the stack with
  per-sample convergence masks, and mask-out semantics for samples that
  exhaust the in-batch ladder;
* :mod:`repro.batch.response` - :func:`evaluate_jobs_batch` evaluates a
  stack of :class:`~repro.runtime.SensorJob` descriptions and reports
  which samples need the scalar engine (the *fallback contract*: a
  masked-out sample is re-dispatched to :mod:`repro.analog.engine`, so
  PR 2's escalation ladder and failure diagnostics are preserved, never
  silently degraded);
* :mod:`repro.batch.dispatch` - campaign integration: grouping of
  compatible jobs into batches, stack sizing (an explicit ``chunksize``
  or a fan-out auto-tune), process sharding of whole stacks over
  ``batch_workers`` workers through the executor's windowed dispatcher
  (crash isolation, bounded redispatch and the cancel poll included),
  and the outcome protocol the :func:`repro.runtime.run_campaign`
  executor consumes via ``backend="batch"``.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".compile": ("BatchCompiledCircuit", "BatchTopologyError",
                 "compile_batch"),
    ".dispatch": ("dispatch_batches", "group_batches", "resolve_batch_plan",
                  "resolve_batch_workers"),
    ".engine": ("BatchTransientResult", "batch_transient"),
    ".response": ("BatchEvaluation", "batch_signature",
                  "evaluate_jobs_batch"),
})
