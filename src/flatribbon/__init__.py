"""Flat (developable) ribbons along space curves.

Construction of the unique flat ribbon normal to a given field, the
rotation-angle initial value problems that realize any prescribed ruling
angle, and the finite- and infinitesimal-width bending energies, with
closed forms for a circular helix.
"""

from . import angleivp, curves, energy, frames, ribbon
from .curves import (
    ArcLengthCurve,
    CurveSpec,
    HelixParams,
    TorusKnotParams,
    arc_length_reparametrize,
    make_helix,
    make_torus_knot,
)
from .frames import (
    DarbouxScalars,
    PrincipalNormalField,
    RotatedNormalField,
    RotationMinimizingField,
    TorusNormalField,
    rotate,
)
from .ribbon import construct_ribbon, max_regular_width, ruling_angle, tessellate

__version__ = "0.1.0"
