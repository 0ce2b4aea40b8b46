"""The vectorised ``%.17e`` formatter against Python's own ``%``, cell by cell."""

import numpy as np
import pytest

import rdwaves._csvfmt as csvfmt


def formatted(values) -> list[str]:
    """csvfmt's text of each value, NUL padding dropped."""
    fields = csvfmt.fields(values)
    rows = np.empty((len(fields), csvfmt.WIDTH + 1), np.uint8)
    rows[:, :-1] = fields
    rows[:, -1] = ord("\n")
    return rows.tobytes().replace(b"\0", b"").decode("ascii").splitlines()


def assert_matches_percent(values) -> None:
    values = np.asarray(values, np.float64)
    got = formatted(values)
    assert len(got) == values.size
    for v, text in zip(values.tolist(), got):
        assert text == "%.17e" % v, repr(v)


def near_tie(j: int, side: int) -> float:
    """A double whose 19th significant digit lies 1/(2 5^j) units of the 18th
    below (side -1) or above (side +1) a tie, with decimal exponent j + 17:
    v 10^-j = N + 1/2 + side/(2 5^j), so 10^-j, a power the table holds
    rounded down, scales it.  The odd 2N + 1 is chosen so that
    5^j (2N + 1) + side has its low z bits zero and v fits in 53 bits."""
    z = (5**j * 2 * 10**18).bit_length() - 53
    residue = (-side * pow(5**j, -1, 2**z)) % 2**z
    odd = residue + 2**z * -(-(2 * 10**17 + 1 - residue) // 2**z)
    assert 2 * 10**17 < odd < 2 * 10**18
    return float((5**j * odd + side) >> z) * 2.0 ** (j - 1 + z)


class TestExactness:
    def test_random_bit_patterns(self):
        bits = np.random.default_rng(2019).integers(0, 2**64, 200_000, dtype=np.uint64,
                                                    endpoint=False)
        assert_matches_percent(bits.view(np.float64))

    def test_dyadic_values(self):
        rng = np.random.default_rng(2010)
        odd = rng.integers(0, 2**52, 50_000) * 2 + 1
        assert_matches_percent(np.ldexp(odd.astype(np.float64), -rng.integers(0, 1075, 50_000)))

    @pytest.mark.parametrize("v, text", [(52429 * 2.0**-19, "1.00000381469726562e-01"),
                                         (52431 * 2.0**-19, "1.00004196166992188e-01"),
                                         (-52429 * 2.0**-19, "-1.00000381469726562e-01")])
    def test_half_way_ties_round_to_even(self, v, text):
        # 0.1000003814697265625 and 0.1000041961669921875 lie half-way between
        # two 18-digit values
        assert formatted([v]) == [text]

    def test_every_exact_tie(self):
        # m 2^-j = m 5^j / 10^j: its 19th and last significant digit is 5
        # wherever m 5^j has 19 digits, so the 18-digit value is a tie
        rng = np.random.default_rng(55)
        ties, parities = [], set()
        for j in range(3, 27):
            lo, hi = -(-10**18 // 5**j), min(10**19 // 5**j, 2**53)
            for m in rng.integers(lo, hi, 200).tolist():
                m |= 1
                if m < hi:
                    ties.append(m * 2.0**-j)
                    parities.add(m * 5**j // 10 % 2)
        assert parities == {0, 1}  # ties that round down and ties that round up
        assert_matches_percent(ties + [-v for v in ties])

    def test_powers_of_ten_and_neighbours(self):
        p = 10.0 ** np.arange(-320, 309)
        values = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])
        assert_matches_percent(np.concatenate([values, -values]))
        assert formatted([1e18]) == ["1.00000000000000000e+18"]

    def test_special_values(self):
        values = [5e-324, -5e-324, 1e-323, 2.2250738585072009e-308, 2.2250738585072014e-308,
                  1.7976931348623157e308, -1.7976931348623157e308, 0.0, -0.0,
                  np.nan, np.inf, -np.inf, 0.1, -2.0 / 3.0, 123456.789, 999999999999999999.0]
        assert_matches_percent(values)
        assert formatted([0.0, -0.0]) == ["0.00000000000000000e+00", "-0.00000000000000000e+00"]

    def test_axes_and_scaled_normals(self):
        rng = np.random.default_rng(1)
        assert_matches_percent(np.linspace(-3.0, 3.0, 20_001))
        assert_matches_percent(np.linspace(0.005, 200.0, 20_001))
        scales = 10.0 ** rng.integers(-300, 300, 50_000)
        assert_matches_percent(rng.standard_normal(50_000) * scales)

    def test_empty(self):
        assert csvfmt.fields(np.empty(0)).shape == (0, csvfmt.WIDTH)


class TestFallback:
    @pytest.fixture
    def percent_calls(self, monkeypatch):
        calls = []
        real = csvfmt._percent

        def recording(v):
            calls.append(v.copy())
            return real(v)

        monkeypatch.setattr(csvfmt, "_percent", recording)
        return calls

    def test_non_finite_cells_only(self, percent_calls):
        values = np.array([1.0, np.nan, 2.5, np.inf, -np.inf, 0.0, -0.0, 5e-324, -1e300])
        assert_matches_percent(values)
        assert len(percent_calls) == 1
        sent = percent_calls[0]
        assert np.isnan(sent[0]) and sent[1:].tolist() == [np.inf, -np.inf]

    def test_finite_cells_do_not_fall_back(self, percent_calls):
        values = np.random.default_rng(3).integers(0, 2**64, 100_000, dtype=np.uint64,
                                                   endpoint=False).view(np.float64)
        assert_matches_percent(values[np.isfinite(values)])
        assert percent_calls == []

    @pytest.mark.parametrize("j", [14, 18, 22])
    def test_uncertain_cells_fall_back(self, percent_calls, j):
        # under half by 1/(2 5^j) <= 2^-33 units: the product with 10^-j rounded
        # down cannot place such a cell below half, so % formats it; over half,
        # the product already shows it
        below, above = near_tie(j, -1), near_tie(j, +1)
        assert ("%.17e" % below)[:20] != ("%.17e" % above)[:20]
        assert_matches_percent([below, above])
        assert [v.tolist() for v in percent_calls] == [[below]]
