"""The four fixed benchmark workloads and the configs they generate.

Each workload is one CLI command on a flat ``key = value`` config.  The
seed only draws the preset parameters listed in ``ranged`` from ranges on
which every output check passes; everything else is fixed, so a seed the
benchmark was never tuned on runs the same amount of work.
"""

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    fixed: dict
    ranged: dict          # key -> (low, high), drawn from the seed
    why: str

    def params(self, seed):
        """Full parameter set for a seed; the same seed gives the same values."""
        rng = random.Random(f"{self.name}:{seed}")
        values = dict(self.fixed)
        for key, (low, high) in sorted(self.ranged.items()):
            values[key] = round(rng.uniform(low, high), 6)
        return values

    def config_text(self, seed):
        lines = [f"command = {self.command}"]
        lines += [f"{key} = {val}" for key, val in self.params(seed).items()]
        return '\n'.join(lines) + '\n'


WORKLOADS = {w.name: w for w in (
    Workload(
        'sim2d-linear', 'simulate',
        dict(dim=2, cells=64, energy='w0', viscosity='z0doubleprime',
             preset='sinusoidal', dt=0.001, t_end=0.01, save_every=1,
             det_floor=0.001),
        dict(amplitude=(0.08, 0.12)),
        "2D 64^2 linear viscosity, a VTK snapshot every step: assembly, CG, "
        "writers and diagnostics dominate; constitutive work is negligible"),
    Workload(
        'sim2d-nonlinear', 'simulate',
        dict(dim=2, cells=32, energy='w1', energy_q=2.0, viscosity='zm',
             viscosity_m=1, preset='compression', dt=0.001, t_end=0.02,
             save_every=20, det_floor=0.001),
        dict(rate=(9.5, 10.5)),
        "2D 32^2 w1 + zm(1): finite-difference elastic stress, zm tangents "
        "and a real Picard loop dominate; writers are nearly idle"),
    Workload(
        'conv1d', 'convergence',
        dict(dim=1, energy='w0', viscosity='z0doubleprime', levels=3,
             conv_t_end=0.01, dt=0.005),
        dict(amplitude=(0.09, 0.11)),
        "1D manufactured convergence study, about 1500 tiny steps: overhead "
        "per step and the 1D Krylov solve dominate"),
    Workload(
        'check2d', 'check',
        dict(dim=2, cells=16, viscosity='zm', viscosity_m=1,
             preset='sinusoidal'),
        dict(amplitude=(0.45, 0.55)),
        "2D 16^2 node-wise gamma certification: only workload that runs "
        "wellposedness and never calls the solver"),
)}
