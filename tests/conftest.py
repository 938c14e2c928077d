"""Shared fixtures; expensive simulation products are session-scoped."""

import numpy as np
import pytest

from defectscan import cli, farfield, media, solver


@pytest.fixture(scope="session")
def ex1_cfg():
    return cli.load_run_config("example1_circle")


@pytest.fixture(scope="session")
def ex1_data(ex1_cfg):
    """(F0, Fb, background fields) for the circular-void reference scene."""
    f0, _ = farfield.assemble_far_field_matrix(
        solver.assemble_system(ex1_cfg.grid, ex1_cfg.media), ex1_cfg.n_dirs
    )
    fb, fields = farfield.assemble_far_field_matrix(
        solver.assemble_system(ex1_cfg.grid, ex1_cfg.media.background()), ex1_cfg.n_dirs
    )
    return f0, fb, fields


@pytest.fixture(scope="session")
def ex1_operator(ex1_data):
    """(S^-1, unitarity defect) of the reference scene's background."""
    return farfield.scattering_operator(ex1_data[1])


@pytest.fixture(scope="session")
def tiny_cfg():
    """Small scene with real contrast: fast forward solves for plumbing tests."""
    host = media.HostRegion(
        media.Circle((0.0, 0.0), 1.0), media.SymTensor2(0.5, 0.0, 0.5), 2.0
    )
    defect = media.Defect(
        media.Circle((0.0, 0.0), 0.4), media.SymTensor2.identity(), 1.0 + 0j
    )
    return media.MediaConfig(host, (defect,), 1.0)


@pytest.fixture(scope="session")
def tiny_grid():
    return solver.GridSpec(1.5, 0.125, 8)


@pytest.fixture(scope="session")
def homogeneous_system():
    """Zero-contrast medium on a small grid (exact free space)."""
    host = media.HostRegion(
        media.Circle((0.0, 0.0), 1.0), media.SymTensor2.identity(), 1.0
    )
    cfg = media.MediaConfig(host, (), 1.0)
    spec = solver.GridSpec(3.0, 0.25, 12)
    return solver.assemble_system(spec, cfg), cfg


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
