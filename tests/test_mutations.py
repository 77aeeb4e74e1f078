"""Mutation cases: a wrong library function must fail the check rows that
cover it.

Each case replaces one function at every attribute of a ``centralizer_lab``
module bound to it, names imported with ``from ... import`` included, and
runs ``run_all(4, 42, 10)``; the case passes when at least its named rows
fail.  The unmutated sweep fails no row, so each failure is the mutant's.
"""

import sys

import numpy as np
import pytest

from centralizer_lab import centralizer, invariants, lie_core, toda
from centralizer_lab.centralizer import ZPoint
from centralizer_lab.suites import run_all


def _failing_rows() -> set:
    return {row.name for row in run_all(4, 42, 10).checks if not row.passed}


def _replace_everywhere(monkeypatch, original, mutant):
    bound = [(module, name) for key, module in list(sys.modules.items())
             if key == "centralizer_lab" or key.startswith("centralizer_lab.")
             for name, value in vars(module).items() if value is original]
    assert bound
    for module, name in bound:
        monkeypatch.setattr(module, name, mutant)


def _moved_embed(embed):
    # the group part of every embedded point of a stack right-translated by
    # a short flow; the checks call embed on stacks only
    def mutant(chev, p):
        zp, errors = embed(chev, p)
        return ZPoint(g=centralizer.flow_step(chev, 1e-3, zp, 1).g, x=zp.x), errors
    return mutant


CASES = [
    pytest.param(centralizer.flow_step,
                 lambda f: lambda chev, t, p, i: f(chev, np.multiply(t, 1.001), p, i),
                 {"cent_cjl_factor_order", "toda_intertwine_flow"}, id="flow_step-time"),
    pytest.param(centralizer.symplectic_form, lambda f: lambda *args: 1.01 * f(*args),
                 {"cent_cjl_pullback", "cent_hamiltonian_duality_fd"}, id="symplectic_form-scaled"),
    pytest.param(invariants.invariant_gradients, lambda f: lambda chev, x: 2 * f(chev, x),
                 {"inv_gradient_fd", "cent_cjl_factor_order"}, id="invariant_gradients-doubled"),
    pytest.param(toda.embed, _moved_embed, {"toda_embed_roundtrip"}, id="embed-moved-group-part"),
    pytest.param(lie_core.pairing, lambda f: lambda x, y: f(x, np.swapaxes(y, -1, -2)),
                 {"lie_pairing_ad_invariance"}, id="pairing-transposed"),
    pytest.param(lie_core.traceless_part, lambda f: lambda m: np.asarray(m, dtype=complex),
                 {"lie_group_scalar_quotient", "kostant_section_decomposition_roundtrip",
                  "toda_intertwine_infinitesimal"}, id="traceless_part-identity"),
]


def test_unmutated_sweep_fails_no_row():
    assert _failing_rows() == set()


@pytest.mark.parametrize("original, mutate, rows", CASES)
def test_mutant_fails_its_rows(monkeypatch, original, mutate, rows):
    _replace_everywhere(monkeypatch, original, mutate(original))
    failing = _failing_rows()
    assert rows <= failing, sorted(rows - failing)
