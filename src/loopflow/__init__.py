"""Mixed-regularity loop spaces: spectral frames, Hamiltonian actions, minimax flows."""

from .action import (CriticalClass, PhasePoint, action, classify_critical,
                     gradient, gradient_norm, hamilton_residual,
                     loop_energy, metric_pairing, pack_coefficients,
                     perturb, random_phase_point, straight_orbit,
                     unpack_coefficients)
from .flow import (FlowConfig, FlowTrajectory, PSReport, flow, flow_to_critical,
                   ps_diagnostics, representation_coefficients, speed_cutoff)
from .fourier import analyze, differentiate, synthesize
from .geometry import (LoopPath, ModelManifold, embedded_circle, flat_torus,
                       random_loop, straight_loop)
from .hamiltonian import (HamiltonianSpec, alpha_bound, chi, default_spec, phi,
                          r0_threshold, radial_H, smoothstep)
from .manifest import VERSION, RunManifest, read_csv, read_manifest, write_csv, write_json
from .minimax import (MinimaxRecord, SweepSummary, default_family, fiber_sup,
                      minimax_theta, orbit_sweep, refine_critical,
                      symplectic_action)
from .spectral import (EmbeddedMetric, FiberField, SpectralFrame, embedded_metric,
                       fit_spectrum_bounds, fractional_apply, frame_of,
                       inner_r, inner_r_emb, norm_r, norm_r_emb, project,
                       spectra_rows)

__version__ = VERSION

__all__ = [
    "CriticalClass", "EmbeddedMetric", "FiberField", "FlowConfig",
    "FlowTrajectory", "HamiltonianSpec", "LoopPath", "MinimaxRecord",
    "ModelManifold", "PSReport", "SpectralFrame", "PhasePoint", "RunManifest",
    "SweepSummary", "action", "alpha_bound", "analyze", "chi",
    "classify_critical", "default_family", "default_spec", "differentiate",
    "embedded_circle", "embedded_metric", "fiber_sup", "fit_spectrum_bounds",
    "flat_torus", "flow", "flow_to_critical", "fractional_apply", "frame_of",
    "gradient", "gradient_norm", "hamilton_residual", "inner_r", "inner_r_emb",
    "loop_energy", "metric_pairing", "minimax_theta", "norm_r", "norm_r_emb",
    "orbit_sweep", "pack_coefficients", "perturb", "phi", "project",
    "ps_diagnostics", "r0_threshold", "radial_H", "random_loop",
    "random_phase_point", "read_csv", "read_manifest", "refine_critical",
    "representation_coefficients", "smoothstep", "spectra_rows",
    "speed_cutoff", "straight_loop", "straight_orbit", "symplectic_action",
    "synthesize", "unpack_coefficients", "write_csv", "write_json",
]
