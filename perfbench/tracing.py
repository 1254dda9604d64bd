"""Spans and counters around viscolab's public functions, from outside.

``install`` replaces each traced function where its *caller* looks it up:
``pde_solver`` imports ``piola_stress`` by name, so the span sits on
``pde_solver.piola_stress``, not on ``constitutive.piola_stress``.  The
package under ``src/`` is never edited.  ``gradient_field`` and
``stress_divergence`` stay unwrapped: they run about 90k times on the 1D
study and a wrapper per call would swamp what it measures.

Spans live in memory as ``[name, start, end, parent]`` and are written out
when the traced process ends; ``summarize`` turns them into the per-layer
metrics.  Counter hooks run after the callee's span has closed, so their
cost lands in the caller's self time and in ``trace.overhead_s``.
"""

import functools
import math
import os
import time

import numpy as np

LAYERS = ('constitutive', 'wellposedness', 'pde_solver', 'diagnostics',
          'cli_harness')

# (module, attribute to replace, span name); the module is the caller's
_WRAPPED = (
    ('pde_solver', 'piola_stress', 'constitutive.piola_stress'),
    ('pde_solver', 'viscous_stress', 'constitutive.viscous_stress'),
    ('pde_solver', 'viscous_tangent_field', 'constitutive.viscous_tangent_field'),
    ('wellposedness', 'viscous_tangent_q', 'constitutive.viscous_tangent_q'),
    ('constitutive', 'viscous_tangent_q', 'constitutive.viscous_tangent_q'),
    ('diagnostics', 'energy', 'constitutive.energy'),
    ('diagnostics', 'dissipation_density', 'constitutive.dissipation_density'),
    ('pde_solver', 'init_state', 'pde_solver.init_state'),
    ('pde_solver', 'run', 'pde_solver.run'),
    ('pde_solver', 'manufactured_run', 'pde_solver.manufactured_run'),
    ('diagnostics', 'energy_report', 'diagnostics.energy_report'),
    ('diagnostics', 'min_det_series', 'diagnostics.min_det_series'),
    ('wellposedness', 'check_initial_data', 'wellposedness.check_initial_data'),
    ('wellposedness', 'rank_one_min', 'wellposedness.rank_one_min'),
    ('wellposedness', 'sector_scan', 'wellposedness.sector_scan'),
    ('wellposedness', 'closed_form_gamma', 'wellposedness.closed_form_gamma'),
    ('cli_harness', 'write_diagnostics_csv', 'cli_harness.write_csv'),
)

# every per-layer metric the traced run reports, with its unit
PER_LAYER = (
    [(f'{layer}.self_s', 's') for layer in LAYERS]
    + [
        ('constitutive.piola_stress.s', 's'),
        ('constitutive.piola_stress.calls', 'count'),
        ('constitutive.viscous_tangent_field.s', 's'),
        ('constitutive.viscous_tangent_field.calls', 'count'),
        ('constitutive.viscous_stress.s', 's'),
        ('constitutive.viscous_stress.calls', 'count'),
        ('pde_solver.assembly.s', 's'),
        ('pde_solver.assembly.calls', 'count'),
        ('pde_solver.assembly.nnz', 'count'),
        ('pde_solver.krylov.s', 's'),
        ('pde_solver.krylov.calls', 'count'),
        ('pde_solver.krylov.iters_sum', 'count'),
        ('pde_solver.krylov.iters_p50', 'count'),
        ('pde_solver.krylov.iters_p90', 'count'),
        ('pde_solver.krylov.nonconverged', 'count'),
        ('pde_solver.solve_shifted.self_s', 's'),
        ('pde_solver.picard.solves_per_step', 'count'),
        ('pde_solver.picard.unconverged_steps', 'count'),
        ('pde_solver.picard.converged_ratio', 'ratio'),
        ('pde_solver.step.self_s', 's'),
        ('pde_solver.step.ms_p50', 'ms'),
        ('pde_solver.step.ms_p90', 'ms'),
        ('pde_solver.run.s', 's'),
        ('pde_solver.forcing.s', 's'),
        ('diagnostics.energy_report.s', 's'),
        ('diagnostics.min_det_series.s', 's'),
        ('cli_harness.write_vtk.s', 's'),
        ('cli_harness.write_vtk.calls', 'count'),
        ('cli_harness.write_vtk.bytes', 'bytes'),
        ('cli_harness.write_csv.s', 's'),
        ('wellposedness.check_initial_data.s', 's'),
        ('wellposedness.rank_one_min.s', 's'),
        ('wellposedness.rank_one_min.calls', 'count'),
        ('wellposedness.sector_scan.s', 's'),
        ('wellposedness.closed_form_gamma.s', 's'),
        ('err_l2', '1'),
        ('energy_residual_max', '1'),
        ('trace.wall_s', 's'),
        ('trace.overhead_s', 's'),
    ])

# metrics that are counts of work and must repeat exactly between runs
EXACT = tuple(name for name, unit in PER_LAYER
              if unit in ('count', 'bytes', 'ratio'))


class Tracer:
    """In-memory spans plus the solver counters no span can carry."""

    def __init__(self):
        self.spans = []             # [name, start, end, parent index or -1]
        self._stack = []
        self.assembly_nnz = 0
        self.vtk_bytes = 0
        self.krylov = []            # (iterations, info) per Krylov call
        self.picard = []            # (solves, final increment, tol) per step
        self._incs = None           # increments of the step in progress

    def wrap(self, name, fn, on_return=None):
        """fn inside a span; on_return(args, kwargs, result) runs after it."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result
        return traced

    def _on_assembly(self, args, kwargs, matrix):
        self.assembly_nnz += int(matrix.nnz)

    def _on_vtk(self, args, kwargs, result):
        self.vtk_bytes += os.path.getsize(args[0])

    def _on_solve(self, args, kwargs, v_new):
        # the Picard increment exactly as semi_implicit_step computes it
        x0 = kwargs.get('x0_nodal', args[4] if len(args) > 4 else None)
        if self._incs is not None and x0 is not None:
            self._incs.append(float(np.max(np.abs(v_new - x0))))

    def _step(self, timed_step):
        def step(state, model, grid, cfg, forcing=None):
            self._incs = []
            try:
                return timed_step(state, model, grid, cfg, forcing)
            finally:
                incs, self._incs = self._incs, None
                self.picard.append((len(incs), incs[-1] if incs else math.inf,
                                    cfg.picard_tol))
        return step

    def _forcing(self, make_forcing):
        def manufactured_forcing(*args, **kwargs):
            return self.wrap('pde_solver.forcing', make_forcing(*args, **kwargs))
        return manufactured_forcing

    def to_json(self):
        return {'spans': self.spans, 'assembly_nnz': self.assembly_nnz,
                'vtk_bytes': self.vtk_bytes, 'krylov': self.krylov,
                'picard': self.picard}


class KrylovStandIn:
    """Takes the place of ``scipy.sparse.linalg`` inside ``pde_solver``.

    ``cg`` and ``bicgstab`` go to scipy with an iteration-counting callback
    and their ``info`` recorded; every other name is scipy's own.
    """

    def __init__(self, real, tracer):
        self._real = real
        self._tracer = tracer
        self.cg = tracer.wrap('pde_solver.krylov', self._counted(real.cg))
        self.bicgstab = tracer.wrap('pde_solver.krylov',
                                    self._counted(real.bicgstab))

    def __getattr__(self, name):
        return getattr(self._real, name)

    def _counted(self, solver):
        def solve(a, b, **kwargs):
            iters = 0

            def count(xk):
                nonlocal iters
                iters += 1
            x, info = solver(a, b, callback=count, **kwargs)
            self._tracer.krylov.append((iters, int(info)))
            return x, info
        return solve


def install(tracer):
    """Route viscolab's public calls through ``tracer`` for this process."""
    from viscolab import (cli_harness, constitutive, diagnostics, pde_solver,
                          wellposedness)
    modules = {'cli_harness': cli_harness, 'constitutive': constitutive,
               'diagnostics': diagnostics, 'pde_solver': pde_solver,
               'wellposedness': wellposedness}
    for module, attr, name in _WRAPPED:
        mod = modules[module]
        setattr(mod, attr, tracer.wrap(name, getattr(mod, attr)))
    cli_harness.write_vtk_snapshot = tracer.wrap(
        'cli_harness.write_vtk', cli_harness.write_vtk_snapshot, tracer._on_vtk)
    op = pde_solver.ViscousOperator
    op.interior_matrix = tracer.wrap('pde_solver.assembly', op.interior_matrix,
                                     tracer._on_assembly)
    pde_solver.solve_shifted = tracer.wrap(
        'pde_solver.solve_shifted', pde_solver.solve_shifted, tracer._on_solve)
    pde_solver.semi_implicit_step = tracer._step(
        tracer.wrap('pde_solver.step', pde_solver.semi_implicit_step))
    pde_solver.manufactured_forcing = tracer._forcing(
        pde_solver.manufactured_forcing)
    pde_solver.spla = KrylovStandIn(pde_solver.spla, tracer)


def _nearest_rank(values, q):
    """Nearest-rank percentile, so a percentile of counts stays a count."""
    if not values:
        return 0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(trace):
    """Per-layer metrics of one traced process from its ``to_json`` record.

    A span's self time is its duration minus the time its child spans
    cover.  One thread runs every span, so children of a span never
    overlap and the covered time is the sum of their durations.
    """
    spans = trace['spans']
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    total, own, calls, step_ms = {}, {}, {}, []
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for (name, start, end, _), cov in zip(spans, covered):
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        own[name] = own.get(name, 0.0) + dur - cov
        calls[name] = calls.get(name, 0) + 1
        layer_self[name.split('.', 1)[0]] += dur - cov
        if name == 'pde_solver.step':
            step_ms.append(1e3 * dur)

    iters = [it for it, _ in trace['krylov']]
    picard = trace['picard']
    steps = len(picard)
    unconverged = sum(1 for _, inc, tol in picard if not inc <= tol)
    derived = {
        'pde_solver.assembly.nnz': trace['assembly_nnz'],
        'pde_solver.krylov.iters_sum': sum(iters),
        'pde_solver.krylov.iters_p50': _nearest_rank(iters, 0.5),
        'pde_solver.krylov.iters_p90': _nearest_rank(iters, 0.9),
        'pde_solver.krylov.nonconverged': sum(1 for _, info in trace['krylov']
                                              if info != 0),
        'pde_solver.picard.solves_per_step':
            sum(n for n, _, _ in picard) / steps if steps else 0.0,
        'pde_solver.picard.unconverged_steps': unconverged,
        'pde_solver.picard.converged_ratio':
            (steps - unconverged) / steps if steps else 0.0,
        'pde_solver.step.ms_p50': _nearest_rank(step_ms, 0.5),
        'pde_solver.step.ms_p90': _nearest_rank(step_ms, 0.9),
        'cli_harness.write_vtk.bytes': trace['vtk_bytes'],
    }
    out = {}
    for metric, _ in PER_LAYER:
        span, _, field = metric.rpartition('.')
        if metric in derived:
            out[metric] = derived[metric]
        elif span in layer_self and field == 'self_s':
            out[metric] = layer_self[span]
        elif field == 's':
            out[metric] = total.get(span, 0.0)
        elif field == 'self_s':
            out[metric] = own.get(span, 0.0)
        elif field == 'calls':
            out[metric] = calls.get(span, 0)
    return out
