"""Tests for the finite-volume reference solver."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dgfilter import experiments, kernels
from dgfilter.fv import MAX_CELLS, FvConfig, cell_centers, solve_fv_burgers
from helpers import burgers_entropy_solution

SRC = Path(__file__).resolve().parents[1] / "src"


class TestFvConfig:
    def test_defaults(self):
        cfg = FvConfig()
        assert cfg.cells == 10000 and cfg.cfl == 0.9
        assert cfg.dx == pytest.approx(2e-4)

    @pytest.mark.parametrize("bad", [dict(cells=5), dict(cells=MAX_CELLS + 1),
                                     dict(cfl=0.0), dict(cfl=1.2), dict(t_final=0.0),
                                     dict(t_final=math.nan), dict(t_final=math.inf),
                                     dict(cells=10.5), dict(cells=True)])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            FvConfig(**bad)

    def test_an_integer_cell_count_is_a_plain_int(self):
        cfg = FvConfig(cells=np.int64(20))
        assert type(cfg.cells) is int and cfg.cells == 20

    def test_the_domain_is_fixed(self):
        # readable on every config, as the Burgers study's [0, 2], but not settable
        assert FvConfig.domain == FvConfig(cells=200).domain == (0.0, 2.0)
        assert FvConfig(cells=200).dx == 0.01
        with pytest.raises(TypeError):
            FvConfig(domain=(0.0, 1.0))


def test_first_step_beyond_the_step_cap_is_rejected_before_stepping(monkeypatch):
    # cfl 1e-9 at 10000 cells: about 4.5e12 steps of the LLF sweep
    def never_called(*args, **kwargs):
        raise AssertionError("the FV kernel ran on rejected input")

    monkeypatch.setattr(kernels, "fv_burgers", never_called)
    with pytest.raises(ValueError, match="step cap"):
        solve_fv_burgers(FvConfig(cfl=1e-9), lambda x: 0.2 * (1.0 + np.cos(np.pi * x)))


def test_work_beyond_the_cell_update_cap_is_rejected_before_stepping(monkeypatch):
    # MAX_CELLS = 2e5 cells: a first-step bound of 1e5 steps, 2e10 cell updates
    def never_called(*args, **kwargs):
        raise AssertionError("the FV kernel ran on rejected input")

    monkeypatch.setattr(kernels, "fv_burgers", never_called)
    with pytest.raises(ValueError, match="work cap"):
        solve_fv_burgers(FvConfig(cells=MAX_CELLS), lambda x: 0.2 * (1.0 + np.cos(np.pi * x)))


def test_the_caps_read_every_cell_of_the_initial_data(monkeypatch):
    # only the last cell moves, fast enough that the first step is beyond the step cap
    def never_called(*args, **kwargs):
        raise AssertionError("the FV kernel ran on rejected input")

    monkeypatch.setattr(kernels, "fv_burgers", never_called)
    cfg = FvConfig(cells=MAX_CELLS)
    last = cell_centers(cfg)[-1]
    with pytest.raises(ValueError, match="step cap"):
        solve_fv_burgers(cfg, lambda x: np.where(x == last, 1e9, 0.0))


def test_the_largest_study_grid_passes_both_caps(monkeypatch):
    # at cfl 0.95 the study's initial data runs on up to 145 296 cells: the
    # grid cap admits it, the work cap takes it and refuses one cell more
    ran = []

    def kernel(u0, dx, cfl, t_final):
        ran.append(u0.size)
        return u0, 0

    monkeypatch.setattr(kernels, "fv_burgers", kernel)
    experiments.run_fv_reference(FvConfig(cells=145296, cfl=0.95))
    assert ran == [145296]
    with pytest.raises(ValueError, match="work cap"):
        experiments.run_fv_reference(FvConfig(cells=145297, cfl=0.95))
    assert ran == [145296]


def test_a_rejected_grid_is_never_allocated(tmp_path):
    # 10^7 cells are past the grid cap, refused before the grid exists (the
    # grid and u0 alone would be 160 MB); 2e5 cells pass it and are refused
    # by the work cap (2e10 cell updates) after the one grid evaluation.
    # The child's own peak of traced allocations (numpy's included): its
    # ru_maxrss would start at the peak of this process, which a vfork
    # child inherits at exec
    script = ("import sys, tracemalloc\n"
              "tracemalloc.start()\n"
              "from dgfilter.cli import main\n"
              "code = main(['fv-reference', '--cells', sys.argv[2], '--out', sys.argv[1]])\n"
              "print(code, tracemalloc.get_traced_memory()[1])\n")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    for cells, message in (("10000000", "cells must lie in [10, 200000]"), ("200000", "work cap")):
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "f.csv"), cells],
                              env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                              text=True, timeout=120, check=True)
        code, peak = map(int, proc.stdout.split())
        assert code == 2 and message in proc.stderr, cells
        assert peak < 100 * 2**20, cells


def test_cell_centers_cover_domain():
    cfg = FvConfig(cells=10)
    x = cell_centers(cfg)
    assert x[0] == pytest.approx(0.1) and x[-1] == pytest.approx(1.9)


def test_constant_data_is_steady():
    cfg = FvConfig(cells=200, t_final=0.5)
    _, u, _ = solve_fv_burgers(cfg, lambda x: np.full_like(x, 0.3))
    assert np.allclose(u, 0.3, atol=1e-14)


def test_mass_conserved():
    cfg = FvConfig(cells=2000, t_final=1.0)
    x, u, _ = solve_fv_burgers(cfg, lambda x: 0.2 * (1.0 + np.cos(np.pi * x)))
    m0 = float(np.sum(0.2 * (1.0 + np.cos(np.pi * x))) * cfg.dx)
    m1 = float(np.sum(u) * cfg.dx)
    assert abs(m1 - m0) <= 1e-12 * abs(m0)


def test_presents_shock_by_final_time():
    # smooth hump steepens; final profile has a sharp descent
    cfg = FvConfig(cells=2000, t_final=2.25)
    x, u, _ = solve_fv_burgers(cfg, lambda x: 0.2 * (1.0 + np.cos(np.pi * x)))
    assert np.min(np.diff(u)) < -5.0 * np.max(np.diff(u))


def test_matches_smooth_characteristics_before_shock():
    """Pre-shock the exact solution follows characteristics x = x0 + t u0(x0)."""
    cfg = FvConfig(cells=4000, t_final=0.5)
    init = lambda x: 0.2 * (1.0 + np.cos(np.pi * x))
    x, u, _ = solve_fv_burgers(cfg, init)

    # evaluate the implicit characteristic solution by Newton iteration
    x0 = x.copy()
    for _ in range(50):
        f = x0 + cfg.t_final * init(x0) - x
        df = 1.0 + cfg.t_final * (-0.2 * np.pi * np.sin(np.pi * x0))
        x0 = x0 - f / df
    exact = init(x0)
    # first-order scheme on a fine grid: loose tolerance
    assert np.max(np.abs(u - exact)) <= 5e-3


class TestEntropyReference:
    """The FV reference against the exact entropy solution (Lax-Oleinik)."""

    def test_follows_the_characteristics_before_the_shock(self):
        # t = 0.5 is before the breaking time 1 / (0.2 pi): u = u0(x - t u)
        x = np.linspace(0.0, 2.0, 1001)
        u = burgers_entropy_solution(x, 0.5)
        assert np.max(np.abs(u - 0.2 * (1.0 + np.cos(np.pi * (x - 0.5 * u))))) <= 1e-14

    def test_the_shock_sits_at_its_symmetric_position(self):
        # the profile is symmetric about its mean 0.2, so the shock from the
        # inflection x = 0.5 moves at 0.2: at t = 2.25 it is at 0.95
        u = burgers_entropy_solution(np.array([0.95 - 1e-5, 0.95 + 1e-5]), 2.25)
        assert u[0] > 0.39 and u[1] < 0.01

    def test_fv_converges_at_first_order(self):
        errors = []
        for cells in (1000, 2000, 4000):
            cfg = FvConfig(cells=cells)
            x, u, _ = solve_fv_burgers(cfg, lambda x: 0.2 * (1.0 + np.cos(np.pi * x)))
            errors.append(float(np.sum(np.abs(u - burgers_entropy_solution(x, 2.25)))) * cfg.dx)
        # measured 7.0e-4, 3.5e-4, 1.7e-4
        assert errors[0] <= 8e-4
        assert all(1.8 <= a / b <= 2.2 for a, b in zip(errors, errors[1:]))
