"""The complex transforms run over blocks of rows under sht._BLOCK_BYTES: any
split must give the bytes one block gives, and the peak memory must follow
the budget rather than the grid. The real path runs in one call; its cases
hold it to the same bytes under any budget.

The Legendre table is stored in blocks of orders that each fit the budget
when the scheme is built: a complex output over a table of several blocks
must have the bytes of the one-block table's, and a real one agree to
rounding."""

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
# that every block holds one row, one shell or one column. Blocks are sized
# by their scratch, one to two grid rows per row, so a budget of one or
# three grid rows gives blocks of one or two rows.
@pytest.mark.parametrize("rows", [0, 1, 3])
@pytest.mark.parametrize("L", [5, 16, 33])
def test_blocks_match_one_block(monkeypatch, L, rows):
    sch, calls = _calls(L)
    ang = sch.angular
    row = 16 * ang.n_theta * ang.n_phi
    # the reference runs under a budget that takes the largest input here, a
    # batch of two grids of L rows, in one block: three grid rows a row cover
    # the most scratch any transform sizes its blocks by
    monkeypatch.setattr(sht, "_BLOCK_BYTES", 2 * L * 3 * row)
    scratch = max(sht._row_scratch(ang, L, True),
                  16 * L * L + sht._row_scratch(ang, L, False))
    assert len(sht._blocks(2 * L, scratch)) == 1
    expect = [call() for _, call in calls]
    budget = max(1, rows * row)
    monkeypatch.setattr(sht, "_BLOCK_BYTES", budget)
    assert len(sht._blocks(L, row)) > 1
    for (name, call), want in zip(calls, expect):
        assert _same_bytes(call(), want), name


@pytest.fixture
def fresh_schemes():
    """Empty scheme caches before and after the test, so that a scheme built
    under a patched budget is seen by no other test."""

    def clear():
        flag.build_ball_scheme.cache_clear()
        sht.build_angular_scheme.cache_clear()

    clear()
    yield clear
    clear()


# the budget takes three orders of the first block: L = 16 splits into 4
# blocks, L = 33 into 8, the later ones of more orders
@pytest.mark.parametrize("L", [16, 33])
def test_table_blocks_match_one_table(monkeypatch, fresh_schemes, L):
    sch, calls = _calls(L)
    (_, one), = sch.angular._plm_blocks
    expect = [call() for _, call in calls]
    monkeypatch.setattr(sht, "_BLOCK_BYTES", 3 * 8 * L * L)
    fresh_schemes()
    blocked, calls = _calls(L)
    blocks = blocked.angular._plm_blocks
    assert len(blocks) == {16: 4, 33: 8}[L]
    assert blocked.angular._plm.nbytes < sch.angular._plm.nbytes
    # each block is the one table's rectangle of its orders over l >= m0,
    # which holds zeros alone below it
    for m0, blk in blocks:
        assert np.shares_memory(blk, blocked.angular._plm)
        assert _same_bytes(blk, one[m0:m0 + len(blk), m0:])
        assert not np.any(one[m0:m0 + len(blk), :m0])
    for (name, call), want in zip(calls, expect):
        got = call()
        if "real" in name:
            assert got.dtype == want.dtype and got.shape == want.shape, name
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.max(np.abs(want)),
                                       err_msg=name)
        else:
            assert _same_bytes(got, want), name


def _one_table(L):
    """The band-limit-L table as one block, from the nodes a scheme takes."""
    ct = -np.sort(-np.polynomial.legendre.leggauss(L)[0])
    (_, one), = sht._legendre_blocks(L, ct, np.sqrt(1.0 - ct * ct), [(0, L)])[1]
    return one


def _check_cells(ang):
    """Every band-limit Lc <= ang.L: the spectrum halves of the table blocks
    cover each packed index below Lc*Lc once, inside their half's einsum
    output, at the row and degree of its (l, m), with sign (-1)^m where
    m < 0 and none where m >= 0. Each row of a half holds one order: its
    table row is P_l|m| and its bin slice maps it to bin m mod n_phi, as in
    a real path's spectrum of bins 0..Lc-1 for m >= 0."""
    one = _one_table(ang.L)
    for Lc in range(1, ang.L + 1):
        ell, m = sht._lm_arrays(Lc)
        seen = np.zeros(Lc * Lc, dtype=int)
        for plm, bins, (i, r, l, sign) in sht._spectrum_halves(ang, Lc):
            m0 = Lc - plm.shape[1]  # the table rows run over degrees m0..Lc-1
            assert np.all((0 <= r) & (r < len(plm))), (Lc, m0)
            assert np.all((0 <= l) & (l < plm.shape[1])), (Lc, m0)
            np.testing.assert_array_equal(ell[i], l + m0)
            np.add.at(seen, i, 1)
            # every row holds cells, all of one order
            order = np.zeros(len(plm), dtype=int)
            order[r] = m[i]
            np.testing.assert_array_equal(np.unique(r), np.arange(len(plm)))
            np.testing.assert_array_equal(order[r], m[i])
            np.testing.assert_array_equal(plm, one[np.abs(order), m0:Lc])
            np.testing.assert_array_equal(np.arange(ang.n_phi)[bins], order % ang.n_phi)
            if sign is None:
                assert np.all(order >= 0), (Lc, m0)
                np.testing.assert_array_equal(np.arange(Lc)[bins], order)
            else:
                assert np.all(order < 0), (Lc, m0)
                assert _same_bytes(sign, (-1.0) ** m[i])
        assert np.all(seen == 1), Lc


# the second budget takes three orders of the first block, as in
# test_table_blocks_match_one_table
@pytest.mark.parametrize("orders", [None, 3])
def test_cells_cover_each_packed_index_once(monkeypatch, fresh_schemes, orders):
    for L in range(1, 34):
        if orders is not None:
            monkeypatch.setattr(sht, "_BLOCK_BYTES", orders * 8 * L * L)
            fresh_schemes()
        ang = sht.build_angular_scheme(L)
        if orders is not None and L > orders:
            assert len(ang._plm_blocks) > 1
        _check_cells(ang)


def test_cells_check_fails_on_an_off_by_one_bin(monkeypatch):
    halves = sht._spectrum_halves

    def shifted(scheme, Lc):
        # each m < 0 half one bin lower: order -k read from bin n - k - 1
        for plm, bins, cells in halves(scheme, Lc):
            if cells[3] is not None:
                bins = slice(bins.start - 1, bins.stop - 1, -1)
            yield plm, bins, cells

    monkeypatch.setattr(sht, "_spectrum_halves", shifted)
    with pytest.raises(AssertionError):
        _check_cells(sht.build_angular_scheme(5))


@pytest.mark.parametrize("L", range(1, 34))
def test_mirror_is_an_involution(L):
    i_z, i_n, sign, i_m = sht._mirror(L)
    ell, m = sht._lm_arrays(L)
    np.testing.assert_array_equal(i_z, np.flatnonzero(m == 0))
    np.testing.assert_array_equal(i_n, np.flatnonzero(m < 0))
    assert _same_bytes(sign, (-1.0) ** m[i_n])
    # (l, m) -> (l, -m) over every packed index, m = 0 fixed
    mirror = np.arange(L * L)
    mirror[i_n], mirror[i_m] = i_m, i_n
    np.testing.assert_array_equal(mirror[mirror], np.arange(L * L))
    np.testing.assert_array_equal(ell[mirror], ell)
    np.testing.assert_array_equal(m[mirror], -m)


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
    # temporaries alone take several of them. A block's scratch is one budget
    # and the radial matrix a small fraction of one; sizing blocks by their
    # input row instead held 2.17 budgets in analysis and 3.07 in synthesis.
    assert peak <= out.nbytes + 1.5 * budget


@pytest.mark.parametrize("direction", ["analysis", "synthesis"])
def test_peak_memory_at_the_default_budget(direction):
    # no patch: at L=P=128 the table is five blocks and the rows run in many
    L = P = 128
    sch = flag.build_ball_scheme(L, P)
    rng = np.random.default_rng(7)
    if direction == "analysis":
        grid = rng.standard_normal(sch.grid_shape) + 1j * rng.standard_normal(sch.grid_shape)
        peak, out = peak_above_inputs(lambda: flag.flag_analysis(sch, grid))
    else:
        f = flag.random_coeffs(L, P, seed=rng).values
        peak, out = peak_above_inputs(lambda: flag.flag_synthesis(sch, f))
    # the output takes 33.6 MB in analysis and 66.8 MB in synthesis; under an
    # 8 MiB budget the scratch above it read 8.7 and 8.8 MB, and synthesis
    # held one block's radial rows while it formed the next block's. Now it
    # reads 3.48 MB in analysis (3.74 MB with a complex copy of the radial
    # matrix) and 2.03 MB in synthesis (2.63 MB with a block's rows kept
    # alive while the next block's are formed); each bound lies between.
    bound = {"analysis": 7 << 19, "synthesis": 9 << 18}[direction]
    assert peak <= out.nbytes + bound
