"""Planar strip-dipole design and analysis toolkit.

Sizing equations and design rules, microstrip feed-line synthesis, a
thin-wire method-of-moments solver with an ideal center feed, match and
bandwidth metrics, far-field patterns, parameter studies, and a CLI with
deterministic CSV output.
"""

from .design import (
    C_MM_PER_S,
    DipoleGeometry,
    Substrate,
    SynthesisResult,
    check_design_rules,
    eps_eff_average,
    eps_eff_microstrip,
    free_space_wavelength,
    guided_wavelength,
    half_wave_length,
    load_substrates,
    parse_catalog,
    stub_fed_length,
    synthesize_geometry,
    via_fed_length,
)
from .errors import (
    BracketError,
    ConfigError,
    DesignRuleError,
    DipolekitError,
    MeshError,
    NonPassiveError,
    NoResonanceError,
    SolverError,
)
from .farfield import PatternCut, h_plane_cut, pattern_from_current
from .metrics import (
    BandwidthResult,
    SweepResult,
    fractional_bandwidth,
    reflection_coefficient,
    resonant_frequency,
    return_loss_db,
    s11_minimum,
    vswr,
)
from .microstrip import FeedLineSpec, feed_spec_for, synth_width_for_z0, \
    z0_microstrip
from .mom import (
    CurrentDistribution,
    SegmentMesh,
    WireModel,
    build_mesh,
    default_segments,
    geometry_model,
    impedance_at,
    solve_at,
    solve_band,
    strip_to_wire,
    sweep,
)
from .studies import (
    OptimizeResult,
    StudyRow,
    length_study,
    optimize_for_max_rl,
    optimize_length,
    study_pattern,
    width_study,
)

__version__ = "0.1.0"
