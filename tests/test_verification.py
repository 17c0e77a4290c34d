"""Manufactured-solution convergence cases."""

import pytest

from trifvm import verification
from trifvm.errors import UnknownCase
from trifvm.verification import run_case

from conftest import irregular_mesh

# frozen from the dense-oracle route; the production path must reproduce them
POISSON_LINF = {8: 7.628355e-03, 16: 2.198973e-03, 32: 5.736147e-04}


def test_poisson_case_matches_frozen_errors():
    rows = run_case("poisson_sine", [8, 16, 32])
    for row in rows:
        assert row.linf == pytest.approx(POISSON_LINF[row.n], rel=1e-5)
    assert rows[1].order_linf == pytest.approx(1.795, abs=0.01)
    assert rows[2].order_linf == pytest.approx(1.939, abs=0.01)
    assert rows[2].order_l2 > 1.9


def test_advection_error_decreases():
    rows = run_case("advect_gauss", [8, 16])
    assert rows[1].linf < rows[0].linf
    assert rows[1].order_linf > 0.4  # first-order upwind, preasymptotic


def test_diffusion_error_decreases():
    rows = run_case("diffuse_gauss", [8, 16])
    assert rows[1].linf < rows[0].linf
    assert rows[1].order_linf > 1.0


def test_unknown_case_raises():
    with pytest.raises(UnknownCase):
        run_case("navier_stokes", [8])


def test_first_row_has_no_order():
    rows = run_case("poisson_sine", [8])
    assert rows[0].order_linf is None and rows[0].order_l2 is None


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("case, order, bound",
                         [("poisson_sine", "order_l2", 1.9),
                          ("advect_gauss", "order_linf", 0.4),
                          ("diffuse_gauss", "order_linf", 1.0)])
def test_cases_converge_on_irregular_meshes(monkeypatch, case, order, bound,
                                            seed):
    # the structured bounds hold with every case on seeded irregular meshes
    monkeypatch.setattr(verification, "structured_triangulation",
                        lambda n: irregular_mesh(n, seed))
    rows = run_case(case, [16, 32])
    print(f"  measured: {case} seed={seed} {order} "
          f"{getattr(rows[1], order):.3f}")
    assert getattr(rows[1], order) > bound
