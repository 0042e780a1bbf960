"""The complex transforms run over blocks of rows under sht._BLOCK_BYTES: any
split must give the bytes one block gives, and the peak memory must follow
the budget rather than the grid. The real path runs in one call; its cases
hold it to the same bytes under any budget."""

import numpy as np
import pytest

from ballwav import flag, sht

from _memory import peak_above_inputs


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _calls(L):
    """(name, thunk) for every blocked entry point at L = P, on complex and
    real input, at full and reduced band-limits, with and without a batch."""
    sch = flag.build_ball_scheme(L, L, tau=0.8)
    ang = sch.angular
    Lc, Pc = max(1, L // 3), max(1, L // 2)
    rng = np.random.default_rng(L)
    calls = []
    for batch in ((), (2,)):
        grid = (rng.standard_normal(batch + sch.grid_shape)
                + 1j * rng.standard_normal(batch + sch.grid_shape))
        for name, g in (("complex", grid), ("real", grid.real)):
            tag = "%s%s" % (name, batch)
            for bands in (None, (Lc, Pc)):
                calls.append(("flag_analysis %s %s" % (tag, bands),
                              lambda g=g, b=bands: flag.flag_analysis(sch, g, b)))
            for lc in (L, Lc):
                calls.append(("sht_forward %s %d" % (tag, lc),
                              lambda g=g, lc=lc: sht.sht_forward(ang, g, lc)))
        for lc, pc in ((L, L), (Lc, Pc)):
            f = np.stack([flag.random_coeffs(lc, pc, seed=s, real=True).values
                          for s in range(2)])
            f = f[0] if batch == () else f
            tag = "%s %d %d" % (batch, lc, pc)
            calls += [
                ("flag_synthesis complex " + tag, lambda f=f: flag.flag_synthesis(sch, f)),
                ("flag_synthesis real " + tag,
                 lambda f=f: flag.flag_synthesis(sch, f, real=True)),
                ("sht_inverse " + tag, lambda f=f: sht.sht_inverse(ang, f)),
                ("sht._inverse_real " + tag, lambda f=f: sht._inverse_real(ang, f)),
            ]
    return sch, calls


# budget in complex grid rows of 16 * L * (2L - 1) bytes; 0 means 1 byte, so
# that every block holds one row, one shell or one column. Three rows split
# L = 5 as 3 + 2, L = 16 as five blocks of 3 and one of 1, and L = 33 evenly.
@pytest.mark.parametrize("rows", [0, 1, 3])
@pytest.mark.parametrize("L", [5, 16, 33])
def test_blocks_match_one_block(monkeypatch, L, rows):
    sch, calls = _calls(L)
    row = 16 * sch.angular.n_theta * sch.angular.n_phi
    # the largest input here, a batch of two grids, is one block by default
    assert len(sht._blocks(2 * L, row)) == 1
    expect = [call() for _, call in calls]
    budget = max(1, rows * row)
    monkeypatch.setattr(sht, "_BLOCK_BYTES", budget)
    assert len(sht._blocks(L, row)) > 1
    for (name, call), want in zip(calls, expect):
        assert _same_bytes(call(), want), name


@pytest.mark.parametrize("direction", ["analysis", "synthesis"])
def test_peak_memory_follows_the_budget(monkeypatch, direction):
    L = P = 32
    sch = flag.build_ball_scheme(L, P)
    f = flag.random_coeffs(L, P, seed=3).values
    grid = flag.flag_synthesis(sch, f)
    budget = 4 * 16 * sch.angular.n_theta * sch.angular.n_phi  # four grid rows
    # raising=False: a tree without the budget must fail the bound below,
    # not this line
    monkeypatch.setattr(sht, "_BLOCK_BYTES", budget, raising=False)
    if direction == "analysis":
        peak, out = peak_above_inputs(lambda: flag.flag_analysis(sch, grid))
    else:
        peak, out = peak_above_inputs(lambda: flag.flag_synthesis(sch, f))
    # one grid is 1.0 MB and one coefficient array 0.5 MB; unblocked, the
    # temporaries alone take several of them
    assert peak <= out.nbytes + 4 * budget
