import math

import numpy as np
import pytest
from reference import count_interior_zeros, shot_crossings

from spiralnls import radial
from spiralnls.radial import (
    _RMAX_SHOOT,
    _integrate,
    limit_levels,
    profile_identities,
    shoot_ground,
    shoot_nodal,
)


def test_ground_p4_energy_and_identities():
    profile = shoot_ground(4.0)
    assert abs(profile.energy - 5.850) / 5.850 < 0.005
    ids = profile_identities(profile)
    # dimension-2 Pohozaev: |u|_2^2 = (2/p) |u|_p^p -> here |u|_4^4 = 2 |u|_2^2
    assert abs(ids["lp"] - 2 * ids["mass"]) / ids["lp"] < 1e-3
    assert abs(ids["grad_sq"] - ids["mass"]) / ids["mass"] < 1e-3


@pytest.mark.parametrize("p", [3.0, 4.0, 6.0])
def test_nehari_identity_all_p(p):
    ids = profile_identities(shoot_ground(p))
    assert abs(ids["nehari"]) < 1e-3
    assert abs(ids["pohozaev"]) < 1e-3


@pytest.mark.parametrize("p", [3.0, 6.0])
def test_decay_verified_other_exponents(p):
    profile = shoot_ground(p)
    assert abs(profile.values[-1]) < 1e-10
    assert profile.kind == "ground"


def test_ground_positive_and_decreasing():
    profile = shoot_ground(4.0)
    assert np.all(profile.values > 0)
    assert np.all(np.diff(profile.values) <= 0)


def test_nodal_k1_energy_exceeds_doubling():
    ground = shoot_ground(4.0)
    nodal = shoot_nodal(4.0, 1)
    assert nodal.energy > 2 * ground.energy
    assert count_interior_zeros(nodal) == 1
    assert abs(nodal.values[-1]) < 1e-10


@pytest.mark.parametrize("p", [3.0, 4.0, 6.0])
def test_nodal_identities(p):
    ids = profile_identities(shoot_nodal(p, 1))
    assert abs(ids["nehari"]) < 1e-3
    assert abs(ids["pohozaev"]) < 1e-3


def test_limit_levels():
    for p in (3.0, 4.0, 6.0):
        c_inf, nodal_energy, eps_star = limit_levels(p)
        assert eps_star > 0
        assert nodal_energy > 2 * c_inf
    c_inf, _, _ = limit_levels(4.0)
    assert abs(c_inf - 5.850) / 5.850 < 0.005


def test_richardson_step_halving():
    e1 = shoot_ground(4.0, dr1d=0.02).energy
    e2 = shoot_ground(4.0, dr1d=0.01).energy
    assert abs(e1 - e2) / abs(e2) < 5e-4


def test_profile_interpolation_decays_outside():
    profile = shoot_ground(4.0)
    vals = profile(np.array([0.0, 1.0, 39.9, 45.0, 100.0]))
    assert vals[0] == pytest.approx(profile.amplitude, rel=1e-10)
    assert vals[-1] == 0.0
    assert vals[-2] == 0.0


def test_2d_cross_evaluation_of_nodal_profile():
    # re-evaluating the 1D profile through the 2D energy must agree to 0.5%
    from spiralnls.energy import energy
    from spiralnls.grid import Field, ModelParams, SectorKind, build_grid
    nodal = shoot_nodal(4.0, 1)
    grid = build_grid(30.0, 768, 16, SectorKind.full_disk())
    vals = nodal(grid.radii)[:, None] * np.ones((1, grid.ntheta))
    b = energy(Field(grid, vals), ModelParams(p=4.0, q=1, lam=1.0))
    assert abs(b.total - nodal.energy) / abs(nodal.energy) < 0.005


def test_invalid_arguments():
    with pytest.raises(ValueError):
        shoot_ground(2.0)
    with pytest.raises(ValueError):
        shoot_nodal(4.0, 0)
    # an infinite p makes every Dormand-Prince error estimate NaN, so the
    # shot would reject each step and shrink it forever
    for shoot in (shoot_ground, shoot_nodal):
        with pytest.raises(ValueError, match="finite"):
            shoot(math.inf)


def _profile(p, k):
    return shoot_ground(p) if k == 0 else shoot_nodal(p, k)


@pytest.mark.parametrize("k", [0, 1])
def test_early_stopped_shots_keep_their_class(k):
    # a counting shot stops at its (k+1)-th sign change; on both sides of the
    # k -> k+1 threshold it classifies like the full shot
    p, rtol = 4.0, 1e-9
    threshold = _profile(p, k).amplitude
    for rel in (-0.05, -1e-3, -1e-6, 1e-6, 1e-3, 0.05):
        a = threshold * (1.0 + rel)
        full = _integrate(a, p, rtol)[0]
        stopped = shot_crossings(a, p, rtol, k)
        assert (stopped <= k) == (full <= k) == (rel < 0)
        assert stopped == min(full, k + 1)


def _ulps_around(a, n):
    out, lo, hi = [a], a, a
    for _ in range(n):
        lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


# at p = 2.5, k = 1 the padded coarse band misses the tight threshold on the
# high side, so the tight stage doubles its upper amplitude and bisects anew
@pytest.mark.parametrize("p,k", [(4.0, 0), (4.0, 1), (4.0, 2), (2.5, 1), (6.0, 2)])
@pytest.mark.parametrize("rtol", [1e-12, 1e-9])
def test_energy_stop_keeps_the_class_at_the_threshold(p, k, rtol):
    # the energy stop ends a classifying shot early; at the threshold
    # amplitude, within a few ulps of it and at small relative offsets it
    # counts like the full-length shot (up to the (k+1)-th crossing)
    threshold = _profile(p, k).amplitude
    amplitudes = _ulps_around(threshold, 6)
    for rel in (1e-15, 1e-12, 1e-9, 1e-6, 1e-3):
        amplitudes += [threshold * (1.0 - rel), threshold * (1.0 + rel)]
    for a in amplitudes:
        full = _integrate(a, p, rtol)[0]
        assert shot_crossings(a, p, rtol, k) == min(full, k + 1), a.hex()
    if rtol == 1e-12:   # the rtol of the tight bisection that returned it
        # the bisection stops at a band of 1e-12 relative and returns its
        # lower end: that crosses at most k times, two band widths up more
        assert shot_crossings(threshold, p, rtol, k) <= k
        assert shot_crossings(threshold * (1.0 + 2.0 * radial._RTOL), p, rtol, k) > k


@pytest.mark.parametrize("p,k,amplitude", [
    (4.0, 0, "0x1.1a64ca390a794p+1"),
    (4.0, 1, "0x1.aa7e9fd14de0ap+1"),
    (2.5, 1, "0x1.e23f985142905p+1"),
    (6.0, 2, "0x1.f05f92cfef1b1p+1"),
])
def test_threshold_amplitudes_are_pinned(p, k, amplitude):
    assert _profile(p, k).amplitude.hex() == amplitude


def test_profile_energies_are_pinned():
    assert shoot_ground(4.0).energy.hex() == "0x1.766dbe5180977p+2"
    assert shoot_nodal(4.0, 1).energy.hex() == "0x1.34b106ce0fa35p+5"
    assert shoot_ground(4.0, dr1d=0.005).energy.hex() == "0x1.766dbe8b2f6fdp+2"


@pytest.mark.parametrize("k", [0, 1])
def test_below_threshold_shot_stops_on_negative_energy(k):
    # below the threshold a shot settles about u = +-1 and never diverges;
    # only the energy test ends it before the horizon
    p, rtol = 4.0, 1e-9
    a = _profile(p, k).amplitude * (1.0 - 1e-3)
    crossings, samples = _integrate(a, p, rtol, record=True, stop_at=k + 1)
    assert crossings == k
    r, u, v = samples[-1]
    assert r < 0.5 * _RMAX_SHOOT
    assert 0.5 * (v * v - u * u) + abs(u) ** p / p < 0.0
    assert _integrate(a, p, rtol, record=True)[1][-1][0] == _RMAX_SHOOT


def test_a_coarse_band_that_misses_restarts_the_tight_bisection(monkeypatch):
    # a coarse band above the threshold leaves a padded lower end that
    # already crosses k + 1 times; the tight stage then restarts from
    # [0.25, 1] and still finds the pinned amplitude
    p, k = 4.0, 1
    real, bands = radial._bisect_band, []

    def shifted_first_band(*args, **kwargs):
        lo, hi = real(*args, **kwargs)
        bands.append(args[2:4])
        return (1.5 * lo, 1.5 * hi) if len(bands) == 1 else (lo, hi)

    monkeypatch.setattr(radial, "_bisect_band", shifted_first_band)
    radial._shoot_amplitude.cache_clear()
    try:
        amplitude = radial._shoot_amplitude(p, k)
    finally:
        radial._shoot_amplitude.cache_clear()
    assert bands == [(0.25, 1.0), (0.25, 1.0)]
    pinned = float.fromhex("0x1.aa7e9fd14d5f4p+1")
    assert abs(amplitude - pinned) <= 1e-12 * pinned


@pytest.mark.parametrize("p", [2.5, 4.0, 6.0])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_the_stopped_profile_shot_builds_the_full_shots_profile(monkeypatch, p, k):
    # the profile shot ends on negative energy, past the graft point; the
    # steps it leaves out move no bit of the sampled profile
    a = radial._shoot_amplitude(p, k)
    shots = []

    def recorded(*args, **kwargs):
        shots.append((kwargs["stop_at"], _integrate(*args, **kwargs)))
        return shots[-1][1]

    for dr1d in (0.01, 0.005):
        shots.clear()
        with monkeypatch.context() as m:
            m.setattr(radial, "_integrate", recorded)
            stopped = radial._assemble_profile(a, p, k, dr1d)
            m.setattr(radial, "_integrate",
                      lambda a, p, rtol, record, stop_at: _integrate(a, p, rtol, record))
            full = radial._assemble_profile(a, p, k, dr1d)
        [(stop_at, (crossings, samples))] = shots
        assert stop_at == k + 1 and crossings == k and samples[-1][0] < _RMAX_SHOOT
        for name in ("energy", "mass", "amplitude"):
            assert getattr(stopped, name).hex() == getattr(full, name).hex(), name
        for name in ("radii", "values", "slopes"):
            assert getattr(stopped, name).tobytes() == getattr(full, name).tobytes(), name


@pytest.mark.parametrize("k", [0, 1])
def test_a_cold_amplitude_takes_a_fixed_number_of_shots(monkeypatch, k):
    # each search stops at its shots' rtol.  Coarse, at 1e-9: the check of
    # 0.25, the upper ends 1, 2 and 4, halvings of [2, 4] until two shots on
    # one side lie within 1e-2 of each other, then secant-aimed shots.
    # Tight, at 1e-12: the padded band's two ends, a halving, then secants
    rtols = []

    def counted(a, p, rtol, **kwargs):
        rtols.append(rtol)
        return _integrate(a, p, rtol, **kwargs)

    monkeypatch.setattr(radial, "_integrate", counted)
    radial._shoot_amplitude.cache_clear()
    try:
        radial._shoot_amplitude(4.0, k)
    finally:
        radial._shoot_amplitude.cache_clear()
    expected = {0: (16, 6, 22), 1: (17, 7, 24)}[k]
    assert (rtols.count(1e-9), rtols.count(radial._RTOL), len(rtols)) == expected


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_each_band_brackets_the_jump_at_its_rtol(monkeypatch, p, k):
    # the coarse and the tight band each end on a shot that crosses at most
    # k times and one that crosses more, within rtol * hi of each other; at
    # p = 3, k = 2 the count is not monotone at 1e-12, so this band, not a
    # single amplitude, is what the search pins down
    real, bands = radial._bisect_band, []

    def captured(*args):
        bands.append((args[4], real(*args)))
        return bands[-1][1]

    monkeypatch.setattr(radial, "_bisect_band", captured)
    radial._shoot_amplitude.cache_clear()
    try:
        amplitude = radial._shoot_amplitude(p, k)
    finally:
        radial._shoot_amplitude.cache_clear()
    assert [rtol for rtol, _ in bands] == [1e-9, radial._RTOL]
    assert amplitude == bands[-1][1][0]
    for rtol, (lo, hi) in bands:
        assert 0.0 < hi - lo <= rtol * hi
        assert shot_crossings(lo, p, rtol, k) <= k < shot_crossings(hi, p, rtol, k)


@pytest.mark.parametrize("k", [0, 1])
def test_stop_radii_that_say_nothing_cost_at_most_the_slack(monkeypatch, k):
    # with one stop radius for every shot no secant has a slope, and each
    # shot halves its band: the search is a bisection, which took 52 shots
    # before the secants.  Stop radii of a threshold 0.1% too low aim the
    # secants wrong; the radius about the midpoint then caps the loss at
    # _SLACK shots per band.  Both still close on the pinned amplitude
    pinned = float.fromhex(_profile(4.0, k).amplitude.hex())
    real = radial._integrate
    stops = {"constant": lambda a: 10.0,
             "misleading": lambda a: -0.5 * math.log(abs(a - 0.999 * pinned))}
    shots = {}
    for name, stop in stops.items():
        def stopped_at(a, p, rtol, stop_at):
            crossings, (_, steps) = real(a, p, rtol, stop_at=stop_at)
            return crossings, (stop(a), steps)

        monkeypatch.setattr(radial, "_integrate", stopped_at)
        radial._shoot_amplitude.cache_clear()
        try:
            amplitude = radial._shoot_amplitude(4.0, k)
        finally:
            radial._shoot_amplitude.cache_clear()
        shots[name] = amplitude.shots
        assert abs(amplitude - pinned) <= 1e-12 * pinned, name
    assert shots["constant"] <= 52
    assert shots["constant"] < shots["misleading"] <= shots["constant"] + 2 * radial._SLACK
