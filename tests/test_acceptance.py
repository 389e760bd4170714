"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line with the
measured quantities before asserting, so a red run still reports what
was actually computed.  Runtime budgets are asserted alongside the
numerical claims.  Criteria 1-6 run the checks of ``hypspec.verify``
(criterion 4 for its 9-point grid), the functions ``hypspec verify``
runs, each on a generator seeded 42.

Two criteria are known to fail as stated, and the failures are real
measurements rather than bugs:

* criterion 4 asks the wide-collar eigenvalue at (l, w) = (0.1, 12) to
  land inside (0.25, 0.251), but the rigorous lower bound
  1/4 + (pi/(2w))^2 = 0.26713... already exceeds the window's top at
  that width; the computed value 0.29534 agrees with the bound.  The
  window is reachable only far wider out (w ~ 100), which the
  companion test demonstrates.
* criterion 8(a) asks network_lambda1 * g^2 / L1 to stay within a
  single 1.2-band across g in {4, ..., 64}, but the measured spread is
  1.67x because g^2 over-normalizes the 2(g-1)-pants chain at small
  genus; the companion test shows the same data is flat to within
  1.04x under the pants-count normalization (2g-2)^2.
"""

import math
import time

import numpy as np
import pytest

from hypspec.cli import main
from hypspec.cuts import bers_upper_bound, min_separating_length
from hypspec.spectral import collar_dirichlet_lambda1, scaling_study
from hypspec.surfaces import (
    ChainFamilyParams,
    build_chain_family,
    build_from_description,
    surface_to_dict,
)
from hypspec.verify import (
    check_collar_identity,
    check_collar_ode,
    check_crossing_energy,
    check_cutoff_extension,
    check_epsilon_constants,
    check_interval_cut,
    check_shell_detour,
)


def _line(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")


def chain(genus, length=0.09):
    return build_chain_family(ChainFamilyParams(genus=genus, core_length=length))


def test_criterion_1_collar_identities():
    t0 = time.perf_counter()
    passed, total = check_collar_identity(np.random.default_rng(42))
    elapsed = time.perf_counter() - t0
    ok = passed == total and elapsed < 1.0
    _line(1, ok, f"identity and asymptotic checks {passed}/{total}, {elapsed:.2f}s")
    assert passed == total
    assert elapsed < 1.0


def test_criterion_2_thick_thin_constants():
    t0 = time.perf_counter()
    passed, total = check_epsilon_constants(np.random.default_rng(42))
    elapsed = time.perf_counter() - t0
    ok = passed == total and elapsed < 1.0
    _line(
        2,
        ok,
        f"eps=0.05 admissible, tube and shell limits within 1e-3: "
        f"{passed}/{total}, {elapsed:.2f}s",
    )
    assert passed == total
    assert elapsed < 1.0


def test_criterion_3_shell_detour():
    t0 = time.perf_counter()
    passed, total = check_shell_detour(np.random.default_rng(42))
    elapsed = time.perf_counter() - t0
    ok = total == 10_000 and passed == total and elapsed < 5.0
    _line(3, ok, f"{total} pairs, {total - passed} violations, {elapsed:.2f}s")
    assert total == 10_000
    assert passed == total
    assert elapsed < 5.0


def test_criterion_4_collar_dirichlet_grid_and_window():
    t0 = time.perf_counter()
    passed, total = check_collar_ode(np.random.default_rng(42))
    grid_ok = passed == total == 9
    wide = collar_dirichlet_lambda1(0.1, 12.0)
    window_ok = 0.25 < wide < 0.251
    elapsed = time.perf_counter() - t0
    ok = grid_ok and window_ok and elapsed < 30.0
    _line(
        4,
        ok,
        f"9-grid > 0.25: {passed}/{total}; "
        f"(0.1, 12) -> {wide:.10f} in (0.25, 0.251): {window_ok}; {elapsed:.1f}s",
    )
    assert grid_ok
    assert elapsed < 30.0
    assert window_ok, (
        f"lambda1(0.1, w=12) = {wide:.10f} cannot lie in (0.25, 0.251): the "
        f"rigorous floor 1/4 + (pi/24)^2 = {0.25 + (math.pi / 24) ** 2:.10f} "
        "already exceeds 0.251 at this width"
    )


def test_criterion_4_companion_window_needs_far_wider_collar():
    # the (0.25, 0.251) window is real, just at w ~ 100 rather than 12
    val = collar_dirichlet_lambda1(0.1, 100.0)
    assert 0.25 < val < 0.251
    # and no width w <= 12 can reach it: the floor is monotone in w
    floor_at_12 = 0.25 + (math.pi / 24.0) ** 2
    assert floor_at_12 > 0.251


def test_criterion_5_energy_lemmas():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    crossing_passed, crossing_total = check_crossing_energy(rng)
    cutoff_passed, cutoff_total = check_cutoff_extension(rng)
    elapsed = time.perf_counter() - t0
    ok = (
        crossing_passed == crossing_total
        and cutoff_passed == cutoff_total
        and elapsed < 60.0
    )
    _line(
        5,
        ok,
        f"crossing {crossing_passed}/{crossing_total} functions pass; "
        f"cutoff (intermediate and final) {cutoff_passed}/{cutoff_total} "
        f"functions pass; {elapsed:.1f}s",
    )
    assert crossing_passed == crossing_total == 200
    assert cutoff_passed == cutoff_total == 100
    assert elapsed < 60.0


def test_criterion_6_interval_lemma():
    t0 = time.perf_counter()
    passed, total = check_interval_cut(np.random.default_rng(42))
    elapsed = time.perf_counter() - t0
    ok = passed == total == 500 and elapsed < 10.0
    _line(
        6,
        ok,
        f"constructive and exhaustive-existence {passed}/{total}, {elapsed:.1f}s",
    )
    assert passed == total == 500
    assert elapsed < 10.0


def test_criterion_7_cuts():
    t0 = time.perf_counter()
    # (i) chain minima at i=1 equal the common curve length
    chain_ok = True
    for g in range(2, 11):
        cut = min_separating_length(chain(g, 0.09), 1)
        chain_ok &= abs(cut.total_length - 0.09) <= 1e-15

    # (ii) branch-and-bound == exhaustive on every <= 20-edge fixture
    rng = np.random.default_rng(7)
    agree = True
    fixtures = []
    for g in range(2, 8):  # 3(g-1) <= 18 edges
        fixtures.append(chain(g, 0.09))
        desc = surface_to_dict(chain(g, 0.09))
        for e in desc["edges"]:
            e["length"] = float(rng.uniform(0.05, 1.5))
        fixtures.append(build_from_description(desc))
    bers_ok = True
    for s in fixtures:
        g = s.genus
        for i in range(1, min(2 * g - 3, 3) + 1):
            ex = min_separating_length(s, i, method="exhaustive")
            bb = min_separating_length(s, i, method="bnb")
            agree &= abs(ex.total_length - bb.total_length) <= 1e-12 * max(
                1.0, ex.total_length
            )
            bers_ok &= ex.total_length <= bers_upper_bound(i, g)
    elapsed = time.perf_counter() - t0
    ok = chain_ok and agree and bers_ok and elapsed < 30.0
    _line(
        7,
        ok,
        f"chain L1==l {chain_ok}; bnb==exhaustive {agree}; "
        f"Bers bound {bers_ok}; {elapsed:.1f}s",
    )
    assert chain_ok
    assert agree
    assert bers_ok
    assert elapsed < 30.0


GENERA = [4, 8, 16, 32, 64]
RAYLEIGH_CONSTANT = 10.0  # pinned cap for criterion 8(b); measured max 8.34


def _scaling_rows():
    return scaling_study(GENERA, 0.09, 0.05)


def test_criterion_8_scaling_reproduction():
    t0 = time.perf_counter()
    rows = _scaling_rows()
    gaps = [r.normalized_gap for r in rows]
    fitted = math.exp(math.fsum(math.log(x) for x in gaps) / len(gaps))
    band_ok = all(fitted / 1.2 <= x <= fitted * 1.2 for x in gaps)
    spread = max(gaps) / min(gaps)

    rayleigh_norm = [r.rayleigh_upper * r.genus**2 / r.l1 for r in rows]
    b_ok = all(x <= RAYLEIGH_CONSTANT for x in rayleigh_norm)
    c_ok = all(r.cheeger_lower <= r.network_lambda1 for r in rows)
    d_err = max(
        abs(
            r.cheeger_lower
            - min(0.25, r.l1**2 / (4.0 * (4.0 * math.pi * (r.genus - 1)) ** 2))
        )
        for r in rows
    )
    d_ok = d_err <= 1e-10
    elapsed = time.perf_counter() - t0
    ok = band_ok and b_ok and c_ok and d_ok and elapsed < 60.0
    _line(
        8,
        ok,
        f"(a) fitted C={fitted:.6f}, spread {spread:.4f}x, 1.2-band: {band_ok}; "
        f"(b) rayleigh*g^2/L1 max {max(rayleigh_norm):.3f} <= {RAYLEIGH_CONSTANT}: {b_ok}; "
        f"(c) cheeger<=network: {c_ok}; (d) formula err {d_err:.2e}: {d_ok}; "
        f"{elapsed:.1f}s",
    )
    assert b_ok
    assert c_ok
    assert d_ok
    assert elapsed < 60.0
    assert band_ok, (
        f"normalized gaps {['%.6f' % x for x in gaps]} span {spread:.4f}x, which no "
        "single constant C can cover with [C/1.2, 1.2C] (needs spread <= 1.44); "
        "g^2 over-normalizes the chain at small genus — see the companion test"
    )


def test_criterion_8_companion_pants_count_normalization_is_flat():
    rows = _scaling_rows()
    # frozen anchors so a regression is distinguishable from the known red
    frozen = {
        4: 0.363347047527,
        8: 0.273913515497,
        16: 0.239662222337,
        32: 0.22465936802,
        64: 0.217630991474,
    }
    for r in rows:
        assert r.normalized_gap == pytest.approx(frozen[r.genus], rel=1e-9)
    # normalizing by the squared pants count flattens the same data
    alt = [r.network_lambda1 * (2 * r.genus - 2) ** 2 / r.l1 for r in rows]
    fitted = math.exp(math.fsum(math.log(x) for x in alt) / len(alt))
    assert max(alt) / min(alt) < 1.2
    assert all(fitted / 1.2 <= x <= fitted * 1.2 for x in alt)


def test_criterion_9_determinism(tmp_path, capsys):
    outputs = []
    for k in (1, 2):
        p = tmp_path / f"verify{k}.txt"
        code = main(["verify", "--seed", "42", "--output", str(p)])
        assert code == 0
        outputs.append(p.read_bytes())
    capsys.readouterr()
    verify_same = outputs[0] == outputs[1]

    scale = []
    for k in (1, 2):
        p = tmp_path / f"scaling{k}.csv"
        code = main(
            [
                "scaling",
                "--genus-list",
                "4,8,16,32,64",
                "--length",
                "0.09",
                "--output",
                str(p),
            ]
        )
        assert code == 0
        scale.append(p.read_bytes())
    capsys.readouterr()
    scaling_same = scale[0] == scale[1]
    ok = verify_same and scaling_same
    _line(
        9,
        ok,
        f"verify --seed 42 byte-identical: {verify_same}; "
        f"scaling byte-identical: {scaling_same}",
    )
    assert verify_same
    assert scaling_same
    # the verify suite itself must be fully green
    text = outputs[0].decode()
    assert text.strip().endswith("verify: 8/8 checks passed (seed=42)")
