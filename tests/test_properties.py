"""Property tests on small grids: linearity, idempotence, bit-exact containers.

Inputs are drawn by ``hypothesis`` on 16- and 32-sample grids with raw,
non-decaying samples, so no property leans on a smooth test field.  Few
examples each keep the module to a few seconds.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tensorray import (
    CartesianGrid,
    Sinogram,
    TensorField2D,
    forward,
    read_field,
    read_sinogram,
    solenoidal_project,
    write_field,
    write_sinogram,
)

FEW = settings(max_examples=12, deadline=None, database=None)

ranks = st.integers(min_value=0, max_value=3)
sizes = st.sampled_from([16, 32])
seeds = st.integers(min_value=0, max_value=2**32 - 1)
radii = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)
scalars = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)
# every finite double, signed zeros and subnormals included
finite = st.floats(allow_nan=False, allow_infinity=False)


def random_field(m, n, seed, radius=4.0):
    rng = np.random.default_rng(seed)
    grid = CartesianGrid(n=n, radius=radius)
    return TensorField2D(m=m, grid=grid, components=rng.standard_normal((m + 1, n, n)))


def same_bits(a, b):
    return np.asarray(a, dtype="<f8").tobytes() == np.asarray(b, dtype="<f8").tobytes()


@FEW
@given(m=ranks, n=sizes, seed_f=seeds, seed_g=seeds, a=scalars, b=scalars)
def test_forward_is_linear(m, n, seed_f, seed_g, a, b):
    f, g = random_field(m, n, seed_f), random_field(m, n, seed_g)
    combined = TensorField2D(m=m, grid=f.grid, components=a * f.components + b * g.components)
    kw = dict(num_p=n + 1, ntheta=16)
    psi_f, psi_g = forward(f, **kw).samples, forward(g, **kw).samples
    lhs = forward(combined, **kw).samples
    scale = abs(a) * np.abs(psi_f).max() + abs(b) * np.abs(psi_g).max()
    assert np.abs(lhs - (a * psi_f + b * psi_g)).max() <= 1e-12 * scale


@FEW
@given(m=ranks, n=sizes, seed=seeds)
def test_solenoidal_project_is_idempotent(m, n, seed):
    once = solenoidal_project(random_field(m, n, seed))
    twice = solenoidal_project(once)
    assert np.abs(twice.components - once.components).max() <= (
        1e-13 * np.abs(once.components).max()
    )


@st.composite
def fields(draw):
    m, n = draw(ranks), draw(sizes)
    components = draw(arrays(np.float64, (m + 1, n, n), elements=finite))
    return TensorField2D(m=m, grid=CartesianGrid(n=n, radius=draw(radii)), components=components)


@st.composite
def sinograms(draw):
    num_p = draw(st.integers(min_value=2, max_value=33))
    ntheta = 2 * draw(st.integers(min_value=1, max_value=16))
    samples = draw(arrays(np.float64, (num_p, ntheta), elements=finite))
    return Sinogram(m=draw(ranks), pmax=draw(radii), samples=samples)


@FEW
@given(f=fields())
def test_tf2d_round_trip_is_bit_exact(tmp_path_factory, f):
    path = tmp_path_factory.mktemp("prop") / "f.tf2d"
    write_field(path, f)
    back = read_field(path)
    assert (back.m, back.grid.n) == (f.m, f.grid.n)
    assert same_bits(back.grid.radius, f.grid.radius)
    assert same_bits(back.components, f.components)


@FEW
@given(psi=sinograms())
def test_sino2d_round_trip_is_bit_exact(tmp_path_factory, psi):
    path = tmp_path_factory.mktemp("prop") / "psi.sino2d"
    write_sinogram(path, psi)
    back = read_sinogram(path)
    assert (back.m, back.num_p, back.ntheta) == (psi.m, psi.num_p, psi.ntheta)
    assert same_bits(back.pmax, psi.pmax)
    assert same_bits(back.samples, psi.samples)
