import copy
import math
import pickle
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from dfrc import (
    ArrayGeometry,
    RadarSnrSpec,
    Scenario,
    assemble_covariance,
    beam_pattern,
    grid_search_oracle,
    kkt_check,
    random_falsifier,
    resolve_radar_spec,
    solve_closed_form,
    steering_vector,
)


class TestArrayGeometry:
    def test_fields(self):
        g = ArrayGeometry(10, 0.5)
        assert g.num_antennas == 10
        assert g.spacing_over_wavelength == 0.5

    @pytest.mark.parametrize(
        "m, message",
        [
            pytest.param(0, "num_antennas must be at least 1, got 0", id="0"),
            pytest.param(-1, "num_antennas must be at least 1, got -1", id="-1"),
            pytest.param(2.5, "num_antennas must be an integer, got 2.5", id="2.5"),
            pytest.param("4", "num_antennas must be an integer, got '4'", id="4"),
            pytest.param(True, "num_antennas must be an integer, got True", id="True"),
            pytest.param(2**63, f"num_antennas must be at most {2**63 - 1}", id="2**63"),
        ],
    )
    def test_bad_antenna_count(self, m, message):
        with pytest.raises(ValueError) as info:
            ArrayGeometry(m, 0.5)
        assert str(info.value) == message

    def test_numpy_antenna_count_stored_as_int(self):
        assert type(ArrayGeometry(np.uint8(4), 0.5).num_antennas) is int

    @pytest.mark.parametrize("d", [0.0, -0.25, math.nan, "0.5", True, np.True_])
    def test_bad_spacing(self, d):
        with pytest.raises(ValueError):
            ArrayGeometry(4, d)


    @pytest.mark.parametrize("d", [math.inf, math.nan])
    def test_non_finite_spacing_names_field(self, d):
        with pytest.raises(ValueError, match="spacing_over_wavelength"):
            ArrayGeometry(4, d)


class TestSteeringVector:
    def test_broadside_is_all_ones(self):
        v = steering_vector(ArrayGeometry(6, 0.5), 0.0)
        assert np.array_equal(v, np.ones(6, dtype=complex))

    def test_against_direct_summation(self):
        # entry-by-entry python loop, no vectorized shortcuts
        geom = ArrayGeometry(7, 0.37)
        angle = 0.41
        v = steering_vector(geom, angle)
        for m in range(7):
            expected = complex(
                math.cos(2 * math.pi * m * 0.37 * math.sin(angle)),
                -math.sin(2 * math.pi * m * 0.37 * math.sin(angle)),
            )
            assert v[m] == pytest.approx(expected, abs=1e-15)

    def test_unit_modulus_and_norm(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = int(rng.integers(1, 24))
            angle = float(rng.uniform(-math.pi / 2, math.pi / 2))
            v = steering_vector(ArrayGeometry(m, 0.5), angle)
            assert np.allclose(np.abs(v), 1.0, atol=1e-15)
            assert np.vdot(v, v).real == pytest.approx(m, rel=1e-14)
            assert v[0] == 1.0 + 0.0j

    @pytest.mark.parametrize("angle", [1.8, -1.8, math.nan, "0.3", True])
    def test_angle_domain(self, angle):
        with pytest.raises(ValueError):
            steering_vector(ArrayGeometry(4, 0.5), angle)

    def test_read_only(self):
        v = steering_vector(ArrayGeometry(4, 0.5), 0.3)
        with pytest.raises(ValueError):
            v[0] = 0.0


class TestScenario:
    def test_cached_quantities(self, reference_scenario):
        sc = reference_scenario
        assert sc.steering_norm_sq == 10.0
        assert sc.channel_norm_sq == pytest.approx(10.0, rel=1e-14)
        # M=10, d/lambda=1/2, angles 0 and -30 deg: phase step is pi/2, so the
        # cross gain sums powers of 1j; full periods cancel, leaving 1 + 1j
        direct = 0j
        for m in range(10):
            arg = 2 * math.pi * m * 0.5 * math.sin(math.radians(-30.0))
            direct += complex(math.cos(arg), -math.sin(arg))
        assert sc.cross_gain == pytest.approx(direct, abs=1e-12)
        assert abs(sc.cross_gain) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_target_power_bounds(self, reference_scenario):
        sc = reference_scenario
        assert sc.max_target_power == pytest.approx(10.0, rel=1e-14)
        assert sc.free_target_power == pytest.approx(0.2, rel=1e-12)

    def test_parallel_bounds_coincide(self, parallel_scenario):
        sc = parallel_scenario
        assert sc.free_target_power == pytest.approx(sc.max_target_power, rel=1e-12)

    def test_orthogonal_cross_gain_vanishes(self, orthogonal_scenario):
        assert abs(orthogonal_scenario.cross_gain) < 1e-12

    def test_explicit_channel(self):
        ch = np.array([1.0 + 0.5j, -0.25j, 0.75, 2.0 - 1.0j])
        sc = Scenario(ArrayGeometry(4, 0.5), 0.1, ch, 2.0)
        assert sc.channel_norm_sq == pytest.approx(float(np.vdot(ch, ch).real))
        # defensive copy, read-only
        ch[0] = 0.0
        assert sc.channel[0] == 1.0 + 0.5j
        with pytest.raises(ValueError):
            sc.channel[0] = 0.0

    def test_rejects_bad_inputs(self):
        geom = ArrayGeometry(4, 0.5)
        ch = np.ones(4, dtype=complex)
        with pytest.raises(ValueError):
            Scenario(geom, 0.0, np.ones(3, dtype=complex), 1.0)
        with pytest.raises(ValueError):
            Scenario(geom, 0.0, np.zeros(4, dtype=complex), 1.0)
        with pytest.raises(ValueError):
            Scenario(geom, 0.0, ch, 0.0)
        with pytest.raises(ValueError):
            Scenario(geom, 0.0, ch, 1.0, target_amplitude=0.0)
        with pytest.raises(ValueError):
            Scenario(geom, 2.0, ch, 1.0)
        bad = ch.copy()
        bad[1] = complex(math.inf, 0.0)
        with pytest.raises(ValueError):
            Scenario(geom, 0.0, bad, 1.0)
        # real numbers only: these used to be read through float()
        with pytest.raises(ValueError):
            Scenario(geom, 0.0, ch, True)
        with pytest.raises(ValueError):
            Scenario.with_los_user(geom, "0.3", 0.1, "2.0")

    @pytest.mark.parametrize(
        "scale, message",
        [
            (1e200, "overflows float64"),
            (1e-170, "underflows.*rescale"),
            (0.0, "channel must be nonzero"),
        ],
    )
    def test_channel_norm_out_of_float64_range(self, scale, message):
        ch = scale * np.array([1.0 + 1.0j, -0.5, 0.25j, 2.0])
        with pytest.raises(ValueError, match=message):
            Scenario(ArrayGeometry(4, 0.5), 0.0, ch, 1.0)

    def test_cross_gain_square_overflow_is_rejected(self):
        # ||h||^2 = 1.6e308 is finite, |h^H a_t|^2 = 1.6e309 is not
        ch = np.full(10, 4e153)
        with pytest.raises(ValueError, match="cross gain.*overflows float64"):
            Scenario(ArrayGeometry(10, 0.5), 0.0, ch, 1.0)
        sc = Scenario(ArrayGeometry(10, 0.5), 0.0, ch / 4.0, 1.0)
        assert sc.free_target_power == pytest.approx(10.0, rel=1e-12)

    @pytest.mark.parametrize(
        "channel, power, product",
        [
            # ||h||^2 = 1.6e298 and P = 1e11 are finite, P ||h||^2 is not
            (np.full(10, 4e148), 1e11, "power \\* \\|\\|h\\|\\|\\^2"),
            # ||h||^2 = 0.9 keeps P ||h||^2 and P / ||h||^2 finite, P M is not
            (np.full(10, 0.3), 1e308, "power \\* M"),
            # P |h^H a_t|^2 = 1e310 although P ||h||^2 = 1e308 and P M = 1e302
            (np.full(100, 1e3 + 0j), 1e300, "free target power"),
        ],
    )
    def test_power_products_overflow_is_rejected(self, channel, power, product):
        geom = ArrayGeometry(channel.size, 0.5)
        with pytest.raises(ValueError, match=f"{product} overflows float64"):
            Scenario(geom, 0.0, channel, power)
        sc = Scenario(geom, 0.0, channel, power / 1e4)
        assert math.isfinite(sc.free_target_power)

    def test_matched_weight_overflow_is_rejected(self):
        # P = 1e300 on a line-of-sight channel scaled by 1e-140 at M = 10:
        # P ||h||^2 = 1e21, but the matched beam's squared weight P / ||h||^2
        # overflows, which gave an inf beam next to a finite capacity
        geom = ArrayGeometry(10, 0.5)
        ch = 1e-140 * steering_vector(geom, 0.2)
        with pytest.raises(ValueError, match=r"^power / \|\|h\|\|\^2 overflows float64; "):
            Scenario(geom, 0.0, ch, 1e300)
        # ||h||^2 = 1e-19 at P = 1e304: P M and P ||h||^2 are finite
        with pytest.raises(ValueError, match=r"^power / \|\|h\|\|\^2 overflows float64; "):
            Scenario(geom, 0.0, np.full(10, 1e-10), 1e304)
        sc = Scenario(geom, 0.0, ch, 1e8)
        assert np.all(np.isfinite(solve_closed_form(sc, 0.0).vector_c))

    def test_channel_norm_sq_bits_for_normal_inputs(self):
        rng = np.random.default_rng(17)
        for m in (1, 4, 64, 1000):
            for scale in (1e-150, 1e-3, 1.0, 1e4, 1e150):
                ch = scale * (rng.normal(size=m) + 1j * rng.normal(size=m))
                sc = Scenario(ArrayGeometry(m, 0.5), 0.0, ch, 1.0)
                assert sc.channel_norm_sq == float(np.vdot(ch, ch).real)


    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("field", ["power_budget", "target_amplitude"])
    def test_non_finite_values_name_field(self, field, value):
        kwargs = {"power_budget": 1.0, "target_amplitude": 1.0, field: value}
        with pytest.raises(ValueError, match=field):
            Scenario(ArrayGeometry(4, 0.5), 0.0, np.ones(4, dtype=complex), **kwargs)


class TestRadarSnrSpec:
    def test_resolve_from_gamma(self, reference_scenario):
        spec = resolve_radar_spec(RadarSnrSpec(gamma=5.0), reference_scenario)
        # snr0 = amp^2 * M * gamma
        assert spec.snr_threshold == pytest.approx(50.0, rel=1e-14)
        assert spec.snr_loss_db == pytest.approx(10.0 * math.log10(0.5), rel=1e-12)
        assert spec.gamma == 5.0

    def test_resolve_from_loss(self, reference_scenario):
        spec = resolve_radar_spec(RadarSnrSpec(snr_loss_db=-10.0), reference_scenario)
        assert spec.gamma == pytest.approx(1.0, rel=1e-12)
        assert spec.snr_threshold == pytest.approx(10.0, rel=1e-12)
        assert spec.snr_loss_db == -10.0

    def test_resolve_from_snr_threshold(self, reference_scenario):
        spec = resolve_radar_spec(RadarSnrSpec(snr_threshold=100.0), reference_scenario)
        assert spec.gamma == pytest.approx(10.0, rel=1e-14)
        assert spec.snr_loss_db == pytest.approx(0.0, abs=1e-12)

    def test_round_trips(self, reference_scenario):
        sc = reference_scenario
        rng = np.random.default_rng(3)
        for _ in range(50):
            gamma = float(rng.uniform(0.0, sc.max_target_power))
            spec = resolve_radar_spec(RadarSnrSpec(gamma=gamma), sc)
            back_loss = resolve_radar_spec(
                RadarSnrSpec(snr_loss_db=spec.snr_loss_db), sc
            )
            back_snr = resolve_radar_spec(
                RadarSnrSpec(snr_threshold=spec.snr_threshold), sc
            )
            assert back_loss.gamma == pytest.approx(gamma, rel=1e-12, abs=1e-300)
            assert back_snr.gamma == pytest.approx(gamma, rel=1e-12, abs=1e-300)

    def test_zero_gamma_loss_is_minus_inf(self, reference_scenario):
        spec = resolve_radar_spec(RadarSnrSpec(gamma=0.0), reference_scenario)
        assert spec.snr_loss_db == -math.inf
        back = resolve_radar_spec(
            RadarSnrSpec(snr_loss_db=-math.inf), reference_scenario
        )
        assert back.gamma == 0.0

    def test_amplitude_scales_snr_not_gamma(self):
        sc = Scenario.with_los_user(
            ArrayGeometry(10, 0.5), math.radians(-30.0), 0.0, 1.0, target_amplitude=2.0
        )
        spec = resolve_radar_spec(RadarSnrSpec(gamma=5.0), sc)
        assert spec.snr_threshold == pytest.approx(200.0, rel=1e-14)
        # loss is a ratio, amplitude cancels
        assert spec.snr_loss_db == pytest.approx(10.0 * math.log10(0.5), rel=1e-12)

    def test_positive_loss_rejected(self, reference_scenario):
        with pytest.raises(ValueError):
            resolve_radar_spec(RadarSnrSpec(snr_loss_db=0.5), reference_scenario)
        for loss in ("-3", True, np.False_):
            with pytest.raises(ValueError, match="^snr_loss_db must be a real number"):
                resolve_radar_spec(RadarSnrSpec(snr_loss_db=loss), reference_scenario)

    def test_negative_inputs_rejected(self, reference_scenario):
        with pytest.raises(ValueError):
            resolve_radar_spec(RadarSnrSpec(gamma=-1.0), reference_scenario)
        with pytest.raises(ValueError):
            resolve_radar_spec(RadarSnrSpec(snr_threshold=-1.0), reference_scenario)
        with pytest.raises(ValueError, match="^gamma must be a real number, got '5'$"):
            resolve_radar_spec(RadarSnrSpec(gamma="5"), reference_scenario)
        with pytest.raises(ValueError, match="^snr_threshold must be a real number, got True$"):
            resolve_radar_spec(RadarSnrSpec(snr_threshold=True), reference_scenario)

    @pytest.mark.parametrize(
        "spec",
        [
            RadarSnrSpec(),
            RadarSnrSpec(gamma=1.0, snr_loss_db=-3.0),
            RadarSnrSpec(gamma=1.0, snr_threshold=1.0, snr_loss_db=-3.0),
        ],
    )
    def test_exactly_one_field(self, reference_scenario, spec):
        with pytest.raises(ValueError):
            resolve_radar_spec(spec, reference_scenario)

    def test_infeasible_gamma_resolves_to_positive_loss(self, reference_scenario):
        # beyond the budget: resolution still works, the solver rejects later
        spec = resolve_radar_spec(RadarSnrSpec(gamma=20.0), reference_scenario)
        assert spec.snr_loss_db > 0.0


_GEOMETRY = ArrayGeometry(4, 0.5)
_CHANNEL = np.ones(4, dtype=complex)
# each scalar real input with a way to pass it a value
_REAL_INPUTS = {
    "spacing_over_wavelength": lambda v: ArrayGeometry(4, v),
    "angle": lambda v: steering_vector(_GEOMETRY, v),
    "target_angle": lambda v: Scenario(_GEOMETRY, v, _CHANNEL, 1.0),
    "user_angle": lambda v: Scenario.with_los_user(_GEOMETRY, 0.1, v, 1.0),
    "power_budget": lambda v: Scenario(_GEOMETRY, 0.1, _CHANNEL, v),
    "target_amplitude": lambda v: Scenario(_GEOMETRY, 0.1, _CHANNEL, 1.0, v),
}


class TestRealInputs:
    """Scalar real inputs are checked, never coerced: a bool is not a number."""

    @pytest.mark.parametrize("value", ["0.5", True, np.True_, None, 0.5j, np.array(0.5)])
    @pytest.mark.parametrize("label", list(_REAL_INPUTS))
    def test_non_real_rejected_with_its_name(self, label, value):
        with pytest.raises(ValueError) as info:
            _REAL_INPUTS[label](value)
        assert str(info.value) == f"{label} must be a real number, got {value!r}"

    def test_python_and_numpy_reals_stored_as_float(self):
        g = ArrayGeometry(4, np.float32(0.5))
        sc = Scenario(g, np.float16(0.25), _CHANNEL, np.int64(2), Fraction(1, 2))
        values = (g.spacing_over_wavelength, sc.target_angle, sc.power_budget, sc.target_amplitude)
        assert values == (0.5, 0.25, 2.0, 0.5)
        assert all(type(v) is float for v in values)


class TestValueTypes:
    """Slotted ArrayGeometry and Scenario, NamedTuple records: all read-only."""

    @staticmethod
    def _values(sc):
        sol = solve_closed_form(sc, 5.0)
        return [
            sc.geometry,
            sc,
            RadarSnrSpec(gamma=1.0),
            sol,
            beam_pattern(assemble_covariance(sol.vector_c), sc.geometry),
            grid_search_oracle(sc, 5.0, resolution=64),
            kkt_check(sol, sc, 5.0),
            random_falsifier(sc, 5.0, trials=10),
        ]

    def test_attributes_are_read_only(self, reference_scenario):
        values = self._values(reference_scenario)
        assert len({type(v) for v in values}) == 8
        for value in values:
            for name in (*value._fields, "extra"):
                with pytest.raises(AttributeError):
                    setattr(value, name, 0.0)
                with pytest.raises(AttributeError):
                    delattr(value, name)
        with pytest.raises(AttributeError):
            reference_scenario.channel_norm_sq = 1.0

    def test_records_are_tuples(self, reference_scenario):
        sol = self._values(reference_scenario)[3]
        assert sol == tuple(sol) and len(sol) == 5
        assert sol._fields == ("case", "coeff_a", "coeff_b", "vector_c", "capacity_bits")
        assert repr(sol).startswith("BeamformerSolution(case=<CaseTag.ACTIVE: 'active'>, coeff_a=")

    def test_exports(self):
        import dfrc
        from dfrc.closed_form import BeamformerSolution
        from dfrc.oracle import FalsifierResult, KktCertificate, OracleSolution

        names = [n for n in dfrc.__all__ if n != "__version__"]
        assert len(names) == len(set(names)) == 23
        for record in (BeamformerSolution, OracleSolution, KktCertificate, FalsifierResult):
            assert record.__name__ not in names and issubclass(record, tuple)

    def test_equal_geometries_compare_and_hash_equal(self):
        g = ArrayGeometry(8, 0.5)
        twin = ArrayGeometry(np.int64(8), np.float32(0.5))
        assert g is not twin and g == twin and hash(g) == hash(twin)
        assert {g: 1}[twin] == 1
        assert g != ArrayGeometry(8, 0.25) and g != ArrayGeometry(9, 0.5)
        assert g != (8, 0.5)
        assert repr(g) == "ArrayGeometry(num_antennas=8, spacing_over_wavelength=0.5)"

    def test_scenarios_compare_by_identity(self, reference_scenario):
        sc = reference_scenario
        twin = Scenario(sc.geometry, sc.target_angle, sc.channel, sc.power_budget)
        assert sc == sc and sc != twin and len({sc, twin}) == 2

    def test_copies_are_built_by_init(self, reference_scenario):
        # no copy or unpickled value skips the checks: each is built by __init__
        for value in (reference_scenario.geometry, reference_scenario):
            cls = type(value)
            assert not hasattr(cls, "_replace") and not hasattr(cls, "_make")
            for copied in (
                copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))
            ):
                assert type(copied) is cls and repr(copied) == repr(value)
            with mock.patch.object(cls, "__init__", side_effect=ValueError("checked")):
                for make in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
                    with pytest.raises(ValueError, match="checked"):
                        make(value)
