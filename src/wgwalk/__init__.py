"""Continuous-time quantum walks of one and two photons in coupled waveguide arrays.

Submodules: ``geometry`` (layouts and fan-in trajectories), ``coupling``
(evanescent coupling matrices), ``propagation`` (spectral propagators,
amplitude traces and the z-ordered product), ``twophoton`` (correlation
matrices, HOM scans, fidelity), ``polarization`` (vectorial chip model and
Mueller tomography), ``config`` and ``cli`` (run configuration and
command-line surface).
"""

from .io import TOOL_VERSION as __version__  # noqa: F401

from . import (  # noqa: F401
    config,
    coupling,
    geometry,
    io,
    polarization,
    propagation,
    twophoton,
)
