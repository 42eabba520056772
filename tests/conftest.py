import pytest

import optitomo.locpot
from optitomo.field import sample_coefficient
from optitomo.mesh import generate_disk_mesh, refine_uniform


@pytest.fixture(scope="session")
def mesh_small():
    """~252-element disk mesh shared by fast unit tests."""
    return generate_disk_mesh(254)


@pytest.fixture(scope="session")
def mesh_small_aligned():
    """~288-element mesh whose spokes align with 4- and 8-sector partitions."""
    return generate_disk_mesh(254, angular_multiplier=8)


@pytest.fixture(scope="session")
def mesh_medium():
    """~1014-element disk mesh (the inversion-scale mesh)."""
    return generate_disk_mesh(1016)


@pytest.fixture(scope="session")
def mesh_chain(mesh_small):
    """Three uniform refinement levels starting near 254 elements."""
    level1 = refine_uniform(mesh_small)
    level2 = refine_uniform(level1)
    return mesh_small, level1, level2


@pytest.fixture(scope="session")
def unit_coefficients(mesh_small):
    one = sample_coefficient(mesh_small, "one")
    return one, one


@pytest.fixture
def forward_solves(monkeypatch):
    """Column counts of the Neumann solves the certificates of ``optitomo.locpot`` make during the test.

    These are the condensed columns each certificate form is built from, and
    each single-current solve.
    """
    columns = []
    single = optitomo.locpot.solve_neumann
    form = optitomo.locpot.Condensation.certificate_form

    def counting_single(sys, g):
        columns.append(1)
        return single(sys, g)

    def counting_form(condensation, q, weights):
        b = form(condensation, q, weights)
        columns.append(b.shape[1])
        return b

    monkeypatch.setattr(optitomo.locpot, "solve_neumann", counting_single)
    monkeypatch.setattr(optitomo.locpot.Condensation, "certificate_form", counting_form)
    return columns
