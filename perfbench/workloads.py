"""Seeded inputs, the three workloads, and the checks run after every op.

Every workload draws its field mix from the seed and hands the program only
generated arrays and files.  Desk scale throughout: ``n = 256, R = 8,
np = 257, ntheta = 128, nq = 512``.  An op passes when it raised nothing,
every CLI call exited 0, and every accuracy check stayed below its pinned
tolerance; each check is recorded as ``residual / tolerance``.

Widths of fields that go through ``check_moment_conditions(rmax=4)`` are
drawn from 0.8-1.0: above that, ``p^4 psi`` no longer decays at
``pmax = R`` for some rank-3 fields and the check rejects the input
(exit 2) by design.  The ``project`` workload runs no moment check and
draws widths from 0.8-1.3.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tensorray as tr
from tensorray import cli as tr_cli
from tensorray.grids import CartesianGrid

N, RADIUS, NUM_P, NTHETA, NQ = 256, 8.0, 257, 128, 512
WIDTHS_PROJECT = (0.8, 1.3)
WIDTHS_MOMENTS = (0.8, 1.0)
CENTER_MAX = 0.5  # off-centre Gaussians sit in [-0.5, 0.5]^2

# Pinned tolerances: the acceptance suite's and the CLI defaults.
PARITY_TOL = 1e-8
ANCHOR_TOL = 1e-6  # rank-0 Gaussian sinogram, relative to its peak
KERNEL_TOL = 1e-3  # potential-field sinogram against the paired solenoidal one
SLICE_TOL = 1e-3
CONSTANT_TOL = 1e-2  # measured fst constant against sqrt(2 pi), relative
RATIO_TOL = 1e-2  # isometry ratio against 1
SPREAD_TOL = 5e-3  # sample std of the isometry ratios of one field
NORM_TOL = 1e-3  # Gaussian field norm^2 anchors, absolute
ROUNDTRIP_TOL = 2e-2
ROUTE_TOL = 1e-3
MOMENT_TOL = 1e-5

ISOMETRY_TRIPLES = (
    tr.SobolevParams(0.0, 0.0, 0.0),
    tr.SobolevParams(1.0, 0.0, 0.0),
    tr.SobolevParams(0.0, 1.0, 0.0),
    tr.SobolevParams(1.0, 0.5, -0.25),
)


@dataclass(frozen=True)
class FieldSpec:
    """One generated field: rank, kind, Gaussian width and kind parameters.

    Kinds: ``gaussian`` (rank 0, centred at ``center``), ``solenoidal``,
    ``potential`` and ``generic`` (``gaussian_test_field``), ``random``
    (``random_solenoidal_field`` with ``seed``).
    """

    m: int
    kind: str
    width: float
    center: tuple[float, float] = (0.0, 0.0)
    seed: int = 0

    @property
    def label(self) -> str:
        return f"m{self.m}-{self.kind}-w{self.width:.3f}"

    def build(self, grid: CartesianGrid) -> tr.TensorField2D:
        if self.kind == "gaussian":
            x, y = grid.mesh()
            cx, cy = self.center
            g = np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * self.width**2))
            return tr.TensorField2D(m=0, grid=grid, components=g[None])
        if self.kind == "random":
            return tr.random_solenoidal_field(self.m, grid, seed=self.seed, width=self.width)
        return tr.gaussian_test_field(self.m, self.kind, grid, width=self.width)


def _gaussian(rng: np.random.Generator, widths) -> FieldSpec:
    center = tuple(float(c) for c in rng.uniform(-CENTER_MAX, CENTER_MAX, size=2))
    return FieldSpec(0, "gaussian", float(rng.uniform(*widths)), center=center)


def _solenoidal(rng: np.random.Generator, widths) -> FieldSpec:
    m = int(rng.integers(1, 4))
    width = float(rng.uniform(*widths))
    if rng.random() < 0.5:
        return FieldSpec(m, "solenoidal", width)
    return FieldSpec(m, "random", width, seed=int(rng.integers(2**31)))


def gaussian_sinogram(spec: FieldSpec, psi: tr.Sinogram) -> np.ndarray:
    """Analytic transform of an off-centre Gaussian, ``sqrt(2 pi) w exp(-(p - p_c)^2 / 2w^2)``."""
    ps = psi.p_axis()[:, None]
    thetas = psi.theta_axis()[None, :]
    cx, cy = spec.center
    p_center = -cx * np.sin(thetas) + cy * np.cos(thetas)
    w = spec.width
    return np.sqrt(2.0 * np.pi) * w * np.exp(-((ps - p_center) ** 2) / (2.0 * w * w))


class Outcome:
    """Accuracy checks and problems of one op."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.ratios: dict[str, float] = {}
        self.problems: list[str] = []

    def check(self, name: str, residual: float, tol: float) -> None:
        self.ratios[name] = max(self.ratios.get(name, 0.0), float(residual) / tol)

    def require(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def cli(self, argv: list[str]) -> dict:
        """Run ``tensorray.cli.main`` in process and return its JSON report."""
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = tr_cli.main(argv)
        text = stdout.getvalue().strip()
        self.require(code == 0 and bool(text), f"`tensorray {' '.join(argv[:2])}` exited {code}")
        return json.loads(text) if text else {}

    @property
    def passed(self) -> bool:
        return not self.problems and all(r < 1.0 for r in self.ratios.values())


class Workload:
    """A seeded pool of inputs and the op run on them.

    Ops cycle through the pool; ``pass_len`` consecutive ops form a pass,
    and the timed loop only stops between passes, so every run covers the
    pool's mix in the same proportions.
    """

    name = ""
    pass_len = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = np.random.default_rng(seed % 2**64)  # any integer seed
        self.workdir = workdir
        self.grid = CartesianGrid(n=N, radius=RADIUS)

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, index: int) -> Outcome:
        raise NotImplementedError


class Project(Workload):
    """op = CLI ``forward`` on a tf2d file, then read back the sino2d it wrote."""

    name = "project"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        rng = self.rng

        def width() -> float:
            return float(rng.uniform(*WIDTHS_PROJECT))

        # Every seed holds every kind at every rank, so the pool's memory
        # high-water mark does not depend on which ranks were drawn; the
        # seed draws widths, centre, amplitudes and the order.  The Gaussian
        # goes first so that its anchor is checked in every run.
        groups = []
        for m in (1, 2, 3):
            w = width()
            # a potential field is checked against the sinogram of its
            # solenoidal partner, which therefore runs just before it
            groups.append([FieldSpec(m, "solenoidal", w), FieldSpec(m, "potential", w)])
            groups.append([FieldSpec(m, "generic", width())])
            groups.append([FieldSpec(m, "random", width(), seed=int(rng.integers(2**31)))])
        self.specs = [_gaussian(rng, WIDTHS_PROJECT)] + [
            spec for i in rng.permutation(len(groups)) for spec in groups[i]
        ]
        self.paths: list[Path] = []
        self.peaks: dict[tuple[int, float], float] = {}

    def setup(self) -> None:
        self.paths = []
        for i, spec in enumerate(self.specs):
            path = self.workdir / f"project-{i}.tf2d"
            tr.write_field(path, spec.build(self.grid))
            self.paths.append(path)

    def op(self, index: int) -> Outcome:
        i = index % len(self.specs)
        spec = self.specs[i]
        out = Outcome(spec.label)
        sino_path = self.workdir / "project-out.sino2d"
        report = out.cli(["forward", str(self.paths[i]), "--np", str(NUM_P),
                          "--ntheta", str(NTHETA), "-o", str(sino_path)])
        if out.problems:
            return out
        psi = tr.read_sinogram(sino_path)
        peak = float(np.abs(psi.samples).max())
        out.require(peak == report["max_abs"], "read-back sinogram differs from the written one")
        parity = tr.parity_residual(psi)
        if spec.kind == "potential":
            # the sinogram is numerically zero; measure its parity mismatch on
            # the scale of the paired solenoidal sinogram instead of its own
            scale = self.peaks[(spec.m, spec.width)]
            out.check("parity", parity * peak / scale, PARITY_TOL)
            out.check("kernel", peak / scale, KERNEL_TOL)
        else:
            out.check("parity", parity, PARITY_TOL)
        if spec.kind == "gaussian":
            anchor = gaussian_sinogram(spec, psi)
            out.check("gaussian_anchor",
                      np.abs(psi.samples - anchor).max() / np.abs(anchor).max(), ANCHOR_TOL)
        elif spec.kind == "solenoidal":
            self.peaks[(spec.m, spec.width)] = peak
        return out


class Analyze(Workload):
    """op = the acceptance pipeline on one (field, precomputed sinogram) pair."""

    name = "analyze"
    pass_len = 2

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.specs = [_gaussian(self.rng, WIDTHS_MOMENTS), _solenoidal(self.rng, WIDTHS_MOMENTS)]
        self.pairs: list[tuple[tr.TensorField2D, tr.Sinogram]] = []

    def setup(self) -> None:
        self.pairs = []
        for spec in self.specs:
            f = spec.build(self.grid)
            self.pairs.append((f, tr.forward(f, num_p=NUM_P, ntheta=NTHETA)))

    def op(self, index: int) -> Outcome:
        i = index % len(self.specs)
        spec = self.specs[i]
        f, psi = self.pairs[i]
        out = Outcome(spec.label)
        grid = self.grid
        common = {"ntheta": NTHETA, "nq": NQ, "qmax": RADIUS, "sinogram": psi}

        out.check("slice_solenoidal",
                  tr.fst_solenoidal_residual(f, "lemma", **common), SLICE_TOL)
        out.check("slice_coefficient",
                  tr.fst_coefficient_residual(f, "lemma", **common), SLICE_TOL)
        root_2pi = np.sqrt(2.0 * np.pi)
        constant = tr.measure_slice_constant(f, "fst", **common)
        out.check("slice_constant", abs(constant - root_2pi) / root_2pi, CONSTANT_TOL)
        if f.m == 0:
            out.check("slice_scalar", tr.fst_scalar_residual(f, **common), SLICE_TOL)

        ratios = np.array(tr.reshetnyak_ratios(f, list(ISOMETRY_TRIPLES), "lemma", **common))
        out.check("isometry_ratio", np.abs(ratios - 1.0).max(), RATIO_TOL)
        out.check("isometry_spread", np.std(ratios, ddof=1), SPREAD_TOL)

        if spec.kind == "gaussian":
            w2 = spec.width**2
            for params, exact in (((0, 0, 0), w2 / (4.0 * np.pi)),
                                  ((0, 1, 0), (w2 + 1.0) / (4.0 * np.pi))):
                norm = tr.field_norm(f, tr.SobolevParams(*params), nq=NQ, qmax=RADIUS,
                                     ntheta=NTHETA)
                out.check("norm_anchor", abs(norm**2 - exact), NORM_TOL)

        reconstructed = tr.invert(psi, grid, "lemma", check_range=False)
        out.check("roundtrip",
                  tr.relative_l2_error(reconstructed, tr.solenoidal_project(f)), ROUNDTRIP_TOL)
        via_coefficients = tr.invert_coefficient_route(psi, grid, "lemma")
        via_amplitude = reconstructed.component(f.m)
        out.check("route_gap",
                  np.abs(via_amplitude - via_coefficients).max() / np.abs(via_amplitude).max(),
                  ROUTE_TOL)

        moments = tr.check_moment_conditions(psi, rmax=4, tol=MOMENT_TOL)
        out.require(moments.passed, "moment conditions failed")
        out.check("moments", max(o.forbidden_fraction for o in moments.orders), MOMENT_TOL)
        return out


class CheckCli(Workload):
    """op = one README session on one solenoidal field via ``cli.main``."""

    name = "check-cli"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.spec = _solenoidal(self.rng, WIDTHS_MOMENTS)
        self.field_path = workdir / "session.tf2d"

    def setup(self) -> None:
        tr.write_field(self.field_path, self.spec.build(self.grid))

    def op(self, index: int) -> Outcome:
        out = Outcome(self.spec.label)
        field_path = str(self.field_path)
        sino_path = str(self.workdir / "session.sino2d")
        report = out.cli(["forward", field_path, "--np", str(NUM_P), "--ntheta", str(NTHETA),
                          "-o", sino_path])
        out.check("parity", report.get("parity_residual", np.inf), PARITY_TOL)

        report = out.cli(["check", "moments", sino_path, "--rmax", "4"])
        for entry in report.get("moments", []):
            out.check("moments", entry["forbidden_fraction"], MOMENT_TOL)

        report = out.cli(["check", "reshetnyak", field_path, "--convention", "lemma"])
        out.check("isometry_ratio", abs(report.get("reshetnyak_ratio", np.inf) - 1.0), RATIO_TOL)

        report = out.cli(["check", "slice", field_path])
        for key in ("solenoidal_residual", "coefficient_residual"):
            out.check(f"slice_{key.split('_')[0]}", report.get(key, np.inf), SLICE_TOL)

        report = out.cli(["check", "invert", field_path])
        out.check("roundtrip", report.get("roundtrip_l2_rel", np.inf), ROUNDTRIP_TOL)
        out.check("isometry_ratio", abs(report.get("reshetnyak_ratio", np.inf) - 1.0), RATIO_TOL)
        for entry in report.get("moments", []):
            out.check("moments", entry["forbidden_fraction"], MOMENT_TOL)
        return out


WORKLOADS = {cls.name: cls for cls in (Project, Analyze, CheckCli)}
