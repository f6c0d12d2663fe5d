import csv
import io
import math
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dfrc import (
    ArrayGeometry,
    BeamPattern,
    CaseTag,
    InfeasibleRadarRequirement,
    RadarSnrSpec,
    Scenario,
    TradeoffPoint,
    assemble_covariance,
    beam_pattern,
    beampattern_sweep,
    grid_search_oracle,
    optimal_received_power,
    random_falsifier,
    resolve_radar_spec,
    solve_closed_form,
    tradeoff_sweep,
    write_beampattern_csv,
    write_tradeoff_csv,
)
from dfrc import metrics, sweep
from dfrc.closed_form import _constants, _optimum
from dfrc.sweep import (
    BEAMPATTERN_HEADER,
    DEFAULT_BEAMPATTERN_LOSSES_DB,
    default_loss_grid_db,
    emit_csv,
)


class TestTradeoffSweep:
    def test_default_grid(self):
        grid = default_loss_grid_db()
        assert grid.size == 161
        assert grid[0] == -40.0
        assert grid[-1] == 0.0
        assert np.allclose(np.diff(grid), 0.25, atol=1e-12)

    def test_point_is_immutable_with_named_fields(self):
        point = TradeoffPoint(-3.0, 2.0, 1.5, CaseTag.ACTIVE)
        named = {"snr_loss_db": -3.0, "gamma": 2.0, "capacity_bits": 1.5, "case": CaseTag.ACTIVE}
        assert point == TradeoffPoint(**named)
        assert repr(point) == (
            "TradeoffPoint(snr_loss_db=-3.0, gamma=2.0, capacity_bits=1.5,"
            " case=<CaseTag.ACTIVE: 'active'>)"
        )
        for name in (*named, "extra"):
            with pytest.raises(AttributeError):
                setattr(point, name, 0.0)
        assert [getattr(point, name) for name in named] == list(named.values())

    def test_points_match_direct_solve(self, reference_scenario):
        sc = reference_scenario
        losses = [-30.0, -10.0, -3.0, 0.0]
        points = tradeoff_sweep(sc, losses)
        assert [p.snr_loss_db for p in points] == losses
        for p in points:
            gamma = resolve_radar_spec(RadarSnrSpec(snr_loss_db=p.snr_loss_db), sc).gamma
            assert p.gamma == pytest.approx(gamma, rel=1e-14)
            assert p.capacity_bits == pytest.approx(
                solve_closed_form(sc, gamma).capacity_bits, rel=1e-14
            )

    def test_capacity_non_increasing_in_loss(self, reference_scenario):
        points = tradeoff_sweep(reference_scenario)
        caps = [p.capacity_bits for p in points]
        # tighter requirement (loss closer to 0) can only cost capacity
        assert all(b >= a - 1e-12 for b, a in zip(caps, caps[1:]))

    def test_case_transitions_once(self, reference_scenario):
        points = tradeoff_sweep(reference_scenario)
        tags = [p.case for p in points]
        assert tags[0] is CaseTag.BELOW_THRESHOLD
        assert tags[-1] is CaseTag.ACTIVE
        flips = sum(1 for a, b in zip(tags, tags[1:]) if a is not b)
        assert flips == 1

    def test_parallel_curve_is_flat(self, parallel_scenario):
        points = tradeoff_sweep(parallel_scenario)
        expect = math.log2(1.0 + 10.0)
        for p in points:
            assert p.capacity_bits == pytest.approx(expect, abs=1e-9)

    def test_rejects_bad_grids(self, reference_scenario):
        with pytest.raises(ValueError):
            tradeoff_sweep(reference_scenario, [0.0, -1.0])  # descending
        with pytest.raises(ValueError):
            tradeoff_sweep(reference_scenario, [-1.0, 0.5])  # positive entry
        with pytest.raises(ValueError):
            tradeoff_sweep(reference_scenario, [])
        with pytest.raises(ValueError, match="strictly ascending"):
            tradeoff_sweep(reference_scenario, [-math.inf, -math.inf])  # repeated

    def test_accepts_minus_inf_first(self, reference_scenario):
        points = tradeoff_sweep(reference_scenario, [-math.inf, -5.0])
        assert [p.snr_loss_db for p in points] == [-math.inf, -5.0]


class TestBeampatternSweep:
    def test_rejects_bad_grids(self, reference_scenario):
        for grid in ([0.0, -1.0], [-1.0, 0.5], [], [-math.inf, -math.inf], [-3.0, -3.0]):
            with pytest.raises(ValueError):
                beampattern_sweep(reference_scenario, grid)

    def test_accepts_minus_inf_first(self, reference_scenario):
        out = beampattern_sweep(reference_scenario, [-math.inf, -5.0])
        assert [loss for loss, _ in out] == [-math.inf, -5.0]

    def test_default_losses(self, reference_scenario):
        out = beampattern_sweep(reference_scenario)
        assert [loss for loss, _ in out] == list(DEFAULT_BEAMPATTERN_LOSSES_DB)
        for _, pat in out:
            assert pat.angles.size == 721
            assert pat.power.min() >= 0.0

    def test_target_direction_power_tracks_threshold(self, reference_scenario):
        sc = reference_scenario
        grid = np.array([sc.target_angle])
        for loss, pat in beampattern_sweep(sc, [-10.0, -5.0], angle_grid=grid):
            gamma = resolve_radar_spec(RadarSnrSpec(snr_loss_db=loss), sc).gamma
            # these losses bind (gamma above free_target_power), so the
            # pattern hits the threshold exactly
            assert gamma > sc.free_target_power
            assert pat.power[0] == pytest.approx(gamma, rel=1e-9)

    def test_target_direction_power_when_slack(self, reference_scenario):
        # a loose requirement leaves the matched beam in place: the target
        # sees free_target_power, above the threshold
        sc = reference_scenario
        grid = np.array([sc.target_angle])
        ((loss, pat),) = beampattern_sweep(sc, [-20.0], angle_grid=grid)
        gamma = resolve_radar_spec(RadarSnrSpec(snr_loss_db=loss), sc).gamma
        assert gamma < sc.free_target_power
        assert pat.power[0] == pytest.approx(sc.free_target_power, rel=1e-9)
        assert pat.power[0] >= gamma

    def test_zero_loss_pattern_is_pure_steering(self, parallel_scenario):
        # full-gain requirement: everything on the steering beam, pattern
        # peaks exactly at the target
        sc = parallel_scenario
        out = beampattern_sweep(sc, [0.0])
        _, pat = out[0]
        peak = int(np.argmax(pat.power))
        assert pat.angles[peak] == pytest.approx(sc.target_angle, abs=math.radians(0.3))


def _random_scenario(m, kind):
    rng = np.random.default_rng([m, kind == "los"])
    geometry = ArrayGeometry(m, 0.5)
    target = float(rng.uniform(-math.pi / 3, math.pi / 3))
    power = float(10.0 ** rng.uniform(-1.0, 1.0))
    if kind == "los":
        user = float(rng.uniform(-math.pi / 2, math.pi / 2))
        return Scenario.with_los_user(geometry, target, user, power)
    channel = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / math.sqrt(2.0)
    return Scenario(geometry, target, channel, power)


RANK_ONE_CASES = [(m, kind) for m in (1, 8, 64, 512) for kind in ("los", "rayleigh")]


class TestRankOnePath:
    """The sweeps skip the covariance; they must agree with the full solve."""

    @pytest.mark.parametrize("m, kind", RANK_ONE_CASES)
    def test_tradeoff_points_equal_full_solve(self, m, kind):
        sc = _random_scenario(m, kind)
        for p in tradeoff_sweep(sc):
            gamma = resolve_radar_spec(RadarSnrSpec(snr_loss_db=p.snr_loss_db), sc).gamma
            sol = solve_closed_form(sc, gamma)
            assert p.gamma == gamma
            assert p.capacity_bits == sol.capacity_bits
            assert p.case is sol.case

    @pytest.mark.parametrize("m, kind", RANK_ONE_CASES)
    def test_patterns_match_covariance_patterns(self, m, kind):
        sc = _random_scenario(m, kind)
        for loss, pat in beampattern_sweep(sc):
            gamma = resolve_radar_spec(RadarSnrSpec(snr_loss_db=loss), sc).gamma
            sol = solve_closed_form(sc, gamma)
            ref = beam_pattern(assemble_covariance(sol.vector_c), sc.geometry)
            assert np.array_equal(pat.angles, ref.angles)
            peak = float(ref.power.max())
            assert np.max(np.abs(pat.power - ref.power)) <= 1e-12 * peak
            assert not pat.power.flags.writeable and not pat.angles.flags.writeable

    @pytest.mark.parametrize(
        "grid",
        [[], [[0.1, 0.2]], [0.0, 2.0], [-1.6], [0.0, math.nan]],
        ids=["empty", "2-D", "above", "below", "nan"],
    )
    def test_invalid_angle_grid_raises_like_beam_pattern(self, reference_scenario, grid):
        sc = reference_scenario
        cov = assemble_covariance(solve_closed_form(sc, 5.0).vector_c)
        with pytest.raises(ValueError) as expected:
            beam_pattern(cov, sc.geometry, grid)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            beampattern_sweep(sc, [-5.0], angle_grid=grid)


class TestCsvEmission:
    def test_tradeoff_csv_format(self, reference_scenario, tmp_path):
        points = tradeoff_sweep(reference_scenario, [-10.0, -5.0, 0.0])
        path = write_tradeoff_csv(points, tmp_path / "t.csv")
        text = path.read_bytes().decode("ascii")
        lines = text.split("\n")
        assert lines[0] == "snr_loss_db,gamma,capacity_bits,case"
        assert len(lines) == 5  # header + 3 rows + trailing LF
        assert lines[-1] == ""
        assert "\r" not in text
        first = lines[1].split(",")
        assert first[0] == "-10"
        assert first[3] in ("below_threshold", "active")

    def test_round_trip_float_fidelity(self, reference_scenario, tmp_path):
        points = tradeoff_sweep(reference_scenario, [-12.5, -1.25, 0.0])
        path = write_tradeoff_csv(points, tmp_path / "t.csv")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(points)
        for row, p in zip(rows, points):
            # 17 significant digits: exact round trip through text
            assert float(row["snr_loss_db"]) == p.snr_loss_db
            assert float(row["gamma"]) == p.gamma
            assert float(row["capacity_bits"]) == p.capacity_bits
            assert row["case"] == p.case.value

    def test_beampattern_csv_long_format(self, reference_scenario, tmp_path):
        patterns = beampattern_sweep(
            reference_scenario, [-5.0, 0.0], angle_grid=np.deg2rad([-30.0, 0.0, 30.0])
        )
        path = write_beampattern_csv(patterns, tmp_path / "b.csv")
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == ["snr_loss_db", "angle_deg", "power"]
        assert len(rows) == 2 * 3
        assert [r[0] for r in rows] == ["-5"] * 3 + ["0"] * 3
        # radians-then-back leaves ~1 ulp of dust on the degree values
        np.testing.assert_allclose(
            [float(r[1]) for r in rows], [-30.0, 0.0, 30.0] * 2, atol=1e-12
        )

    def test_byte_identical_reruns(self, reference_scenario, tmp_path):
        points = tradeoff_sweep(reference_scenario)
        a = write_tradeoff_csv(points, tmp_path / "a.csv").read_bytes()
        b = write_tradeoff_csv(
            tradeoff_sweep(reference_scenario), tmp_path / "b.csv"
        ).read_bytes()
        assert a == b

    def test_emit_rejects_unknown_types(self, tmp_path, reference_scenario):
        _assert_both_writers_reject(object(), tmp_path, reference_scenario)

    @pytest.mark.parametrize("value", [True, np.bool_(False), 1 + 2j, None])
    def test_emit_rejects_bools_and_non_reals(self, tmp_path, reference_scenario, value):
        _assert_both_writers_reject(value, tmp_path, reference_scenario)

    def test_numpy_scalars_write_like_python_values(self, reference_scenario, tmp_path):
        native = [0.1, -3, 1e-300, float("inf")]
        numpy = [np.float64(0.1), np.int64(-3), np.float64(1e-300), np.float32("inf")]
        texts = ["0.10000000000000001", "-3", "1e-300", "inf"]
        ((_, pattern),) = beampattern_sweep(reference_scenario, [0.0], angle_grid=[0.0])
        for values in (native, numpy):
            points = [TradeoffPoint(v, v, v, CaseTag.ACTIVE) for v in values]
            lines = write_tradeoff_csv(points, tmp_path / "t.csv").read_text().split("\n")
            assert lines[1:-1] == [f"{t},{t},{t},active" for t in texts]
            path = write_beampattern_csv([(v, pattern) for v in values], tmp_path / "b.csv")
            assert [row.split(",")[0] for row in path.read_text().split("\n")[1:-1]] == texts

    def test_rewrite_over_longer_file(self, reference_scenario, tmp_path):
        # the file is written over in place: no tail of the old bytes is left
        short = tradeoff_sweep(reference_scenario, [-1.0, 0.0])
        fresh = write_tradeoff_csv(short, tmp_path / "fresh.csv").read_bytes()
        path = tmp_path / "t.csv"
        write_tradeoff_csv(tradeoff_sweep(reference_scenario), path)
        assert path.stat().st_size > len(fresh)
        assert write_tradeoff_csv(short, path).read_bytes() == fresh
        patterns = beampattern_sweep(reference_scenario, [0.0])
        write_beampattern_csv(patterns, path)
        assert path.read_bytes() == write_beampattern_csv(patterns, tmp_path / "b.csv").read_bytes()

    def test_rewrite_keeps_mode_and_hard_links(self, reference_scenario, tmp_path):
        path, link = tmp_path / "t.csv", tmp_path / "link.csv"
        path.write_text("x" * 50_000)
        path.chmod(0o640)
        os.link(path, link)
        before = path.stat()
        write_tradeoff_csv(tradeoff_sweep(reference_scenario, [0.0]), path)
        after = path.stat()
        assert (after.st_ino, after.st_nlink) == (before.st_ino, 2)
        assert stat.S_IMODE(after.st_mode) == 0o640
        assert link.read_bytes() == path.read_bytes()
        assert path.read_bytes().startswith(b"snr_loss_db,")

    def test_io_error_carries_path(self, reference_scenario, tmp_path):
        points = tradeoff_sweep(reference_scenario, [-1.0, 0.0])
        target = tmp_path / "no" / "such" / "dir" / "t.csv"
        with pytest.raises(OSError, match="t.csv"):
            write_tradeoff_csv(points, target)


def _assert_both_writers_reject(value, tmp_path, scenario):
    # every numeric field of either file is type-checked, not only the first,
    # and a rejected row leaves the old file as it was
    path = tmp_path / "old.csv"
    path.write_bytes(b"old")
    good = TradeoffPoint(-2.0, 1.0, 1.0, CaseTag.BELOW_THRESHOLD)
    for index in range(3):
        fields = [-1.0, 2.0, 3.0]
        fields[index] = value
        with pytest.raises(TypeError):
            write_tradeoff_csv([good, TradeoffPoint(*fields, CaseTag.ACTIVE)], path)
    ((_, pattern),) = beampattern_sweep(scenario, [-5.0])
    with pytest.raises(TypeError):
        write_beampattern_csv([(-6.0, pattern), (value, pattern)], path)
    assert path.read_bytes() == b"old"


def _reference_tradeoff_csv(points) -> bytes:
    # the csv module's writer with its default quoting, floats as 17
    # significant digits
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(("snr_loss_db", "gamma", "capacity_bits", "case"))
    for p in points:
        writer.writerow(
            [format(v, ".17g") for v in (p.snr_loss_db, p.gamma, p.capacity_bits)]
            + [p.case.value]
        )
    return text.getvalue().encode("ascii")


class TestTradeoffCsvBytes:
    @pytest.mark.parametrize("m, kind", RANK_ONE_CASES)
    def test_default_grid_matches_csv_writer(self, tmp_path, m, kind):
        points = tradeoff_sweep(_random_scenario(m, kind))
        path = write_tradeoff_csv(points, tmp_path / "t.csv")
        assert path.read_bytes() == _reference_tradeoff_csv(points)

    def test_every_case_matches_csv_writer(self, tmp_path):
        values = [-0.0, 0.0, 1e-300, 5e-324, 1.5e308, -12.25, 1 / 3, 2**53 + 1.0]
        points = [
            TradeoffPoint(v, -v, v * 3.0, case)
            for v in values
            for case in CaseTag
        ]
        path = write_tradeoff_csv(points, tmp_path / "t.csv")
        assert path.read_bytes() == _reference_tradeoff_csv(points)

    def test_empty_points_write_header_only(self, tmp_path):
        for points in ([], (), iter([])):
            path = write_tradeoff_csv(points, tmp_path / "t.csv")
            assert path.read_bytes() == b"snr_loss_db,gamma,capacity_bits,case\n"


def _reference_beampattern_csv(patterns) -> bytes:
    # every field through csv.writer, floats as 17 significant digits
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(("snr_loss_db", "angle_deg", "power"))
    for loss, pattern in patterns:
        for angle, power in zip(pattern.angles.tolist(), pattern.power.tolist()):
            writer.writerow(
                [format(v, ".17g") for v in (loss, math.degrees(angle), power)]
            )
    return text.getvalue().encode("ascii")


class TestBeampatternCsvBytes:
    @pytest.mark.parametrize("m, kind", [(8, "los"), (64, "rayleigh"), (512, "los")])
    def test_default_grid_matches_csv_writer(self, tmp_path, m, kind):
        patterns = beampattern_sweep(_random_scenario(m, kind))
        path = write_beampattern_csv(patterns, tmp_path / "b.csv")
        assert path.read_bytes() == _reference_beampattern_csv(patterns)

    def test_custom_grid_matches_csv_writer(self, reference_scenario, tmp_path):
        grid = np.linspace(-math.pi / 2, math.pi / 2, 1001)
        patterns = beampattern_sweep(reference_scenario, [-17.5, -3, 0], angle_grid=grid)
        path = write_beampattern_csv(patterns, tmp_path / "b.csv")
        assert path.read_bytes() == _reference_beampattern_csv(patterns)

    @pytest.mark.parametrize("loss", [True, np.bool_(False), "-5", None, 1j])
    def test_non_number_loss_rejected(self, reference_scenario, tmp_path, loss):
        ((_, pattern),) = beampattern_sweep(reference_scenario, [-5.0])
        with pytest.raises(TypeError):
            write_beampattern_csv([(loss, pattern)], tmp_path / "b.csv")

    def test_numpy_loss_writes_like_python_value(self, reference_scenario, tmp_path):
        ((_, pattern),) = beampattern_sweep(reference_scenario, [-5.0])
        a = write_beampattern_csv([(-5.0, pattern)], tmp_path / "a.csv").read_bytes()
        b = write_beampattern_csv([(np.float64(-5.0), pattern)], tmp_path / "b.csv")
        assert b.read_bytes() == a

    @pytest.mark.parametrize(
        "angles", [np.array([0.1 + 1j, 0.2]), np.zeros((2, 1)), np.array(0.3)], ids=["complex", "2-D", "0-D"]
    )
    def test_non_real_or_not_1d_angles_rejected(self, tmp_path, angles):
        pattern = BeamPattern(angles=angles, power=np.ones(np.size(angles)))
        with pytest.raises(TypeError):
            write_beampattern_csv([(-5.0, pattern)], tmp_path / "b.csv")

    def test_non_float_power_rejected(self, tmp_path):
        pattern = BeamPattern(angles=np.zeros(2), power=np.array([True, False]))
        with pytest.raises(TypeError):
            write_beampattern_csv([(-5.0, pattern)], tmp_path / "b.csv")

    def test_io_error_carries_path(self, reference_scenario, tmp_path):
        patterns = beampattern_sweep(reference_scenario, [-5.0])
        with pytest.raises(OSError, match="b.csv"):
            write_beampattern_csv(patterns, tmp_path / "missing" / "b.csv")


def _format_field_before(value) -> str:
    # the per-field formatter both writers used, frozen: a numpy scalar as
    # the Python value it holds, then int by str and float by '.17g'
    native = value.item() if isinstance(value, np.generic) else value
    try:
        formatter = {int: str, float: lambda v: format(v, ".17g")}[type(native)]
    except KeyError:
        raise TypeError(f"unsupported CSV field type: {value!r}") from None
    return formatter(native)


def _write_tradeoff_csv_before(points, destination):
    # the row-at-a-time tradeoff writer, frozen: the writer must give the
    # same bytes
    lines = (
        f"{_format_field_before(p.snr_loss_db)},{_format_field_before(p.gamma)},"
        f"{_format_field_before(p.capacity_bits)},{p.case.value}"
        for p in points
    )
    return emit_csv(lines, sweep.TRADEOFF_HEADER, destination)


def _tradeoff_csv_pair(points, tmp_path):
    got = write_tradeoff_csv(points, tmp_path / "now.csv").read_bytes()
    want = _write_tradeoff_csv_before(points, tmp_path / "before.csv").read_bytes()
    return got, want


class TestOneFormatPerTradeoffFile:
    def test_field_types_same_bytes_as_row_loop(self, tmp_path):
        active, below = CaseTag.ACTIVE, CaseTag.BELOW_THRESHOLD
        points = [
            TradeoffPoint(-3, 2, 1, active),  # int losses and values
            TradeoffPoint(-40, 0.5, 7, below),  # int and float columns mixed
            TradeoffPoint(-2.5, 10**30, 2.0**-1074, active),
            TradeoffPoint(np.float64(-1.5), np.float64(0.1), np.float64(1 / 3), below),
            TradeoffPoint(np.int64(-2), np.int64(3), np.int64(2**62), active),
            TradeoffPoint(np.float32(-0.1), np.float32(1e30), np.float32(1 / 3), below),
            TradeoffPoint(-math.inf, math.inf, -math.inf, active),
            TradeoffPoint(math.nan, -0.0, math.nan, below),
            TradeoffPoint(np.float64(math.nan), np.float32(-math.inf), np.int8(-7), active),
        ]
        # and the points of test_every_case_matches_csv_writer
        values = [-0.0, 0.0, 1e-300, 5e-324, 1.5e308, -12.25, 1 / 3, 2**53 + 1.0]
        points += [TradeoffPoint(v, -v, v * 3.0, case) for v in values for case in CaseTag]
        got, want = _tradeoff_csv_pair(points, tmp_path)
        assert got == want
        rows = got.decode("ascii").split("\n")
        assert rows[1:3] == ["-3,2,1,active", "-40,0.5,7,below_threshold"]
        assert rows[5] == "-2,3,4611686018427387904,active"
        assert rows[7:9] == ["-inf,inf,-inf,active", "nan,-0,nan,below_threshold"]

    @pytest.mark.parametrize(
        "value", [True, np.bool_(False), None, "1.0", 1j, np.complex128(1.0)]
    )
    def test_non_numbers_rejected_like_row_loop(self, tmp_path, value):
        good = TradeoffPoint(-2.0, 1.0, 1.0, CaseTag.BELOW_THRESHOLD)
        for index in range(3):
            fields = [-1.0, 2.0, 3.0]
            fields[index] = value
            points = [good, TradeoffPoint(*fields, CaseTag.ACTIVE)]
            with pytest.raises(TypeError, match="^unsupported CSV field type: "):
                _write_tradeoff_csv_before(points, tmp_path / "before.csv")
            with pytest.raises(TypeError, match="^unsupported CSV field type: ") as now:
                write_tradeoff_csv(points, tmp_path / "now.csv")
            assert str(now.value).endswith(repr(value))
        assert not (tmp_path / "now.csv").exists()

    def test_points_may_be_a_generator(self, reference_scenario, tmp_path):
        points = tradeoff_sweep(reference_scenario)
        got = write_tradeoff_csv(iter(points), tmp_path / "now.csv").read_bytes()
        assert got == _write_tradeoff_csv_before(points, tmp_path / "before.csv").read_bytes()

    def test_one_item_for_all_rows(self, reference_scenario):
        points = tradeoff_sweep(reference_scenario)
        (item,) = list(sweep._tradeoff_lines(points))
        assert item.count("\n") == len(points) - 1


def _beampattern_lines_before(patterns):
    # the row-at-a-time formatter, one f-string per row, frozen: the writer
    # must give the same bytes
    angles = None
    for loss, pattern in patterns:
        if pattern.angles is not angles:
            angles = pattern.angles
            degrees = [format(math.degrees(a), ".17g") for a in angles.tolist()]
        if pattern.power.dtype.kind != "f":
            raise TypeError(f"pattern power must be floats, got {pattern.power.dtype}")
        prefix = _format_field_before(loss) + ","
        yield from (
            f"{prefix}{angle},{power:.17g}"
            for angle, power in zip(degrees, pattern.power.tolist())
        )


def _tradeoff_sweep_before(scenario, losses_db=None):
    # the sweep that resolved a RadarSnrSpec per point, frozen: the sweep
    # must give the same points, bit for bit
    grid = default_loss_grid_db() if losses_db is None else sweep._check_loss_grid(losses_db)
    points = []
    for loss in grid.tolist():
        gamma = resolve_radar_spec(RadarSnrSpec(snr_loss_db=loss), scenario).gamma
        case, received, _, _ = _optimum(_constants(scenario), gamma)
        points.append(TradeoffPoint(loss, gamma, math.log2(1.0 + received), case))
    return points


def _pattern_csv_pair(patterns, tmp_path):
    got = write_beampattern_csv(patterns, tmp_path / "now.csv").read_bytes()
    path = tmp_path / "before.csv"
    want = emit_csv(_beampattern_lines_before(patterns), BEAMPATTERN_HEADER, path)
    return got, want.read_bytes()


def _scaled_scenario(m, kind, scale):
    sc = _random_scenario(m, kind)
    return Scenario(sc.geometry, sc.target_angle, scale * sc.channel, sc.power_budget)


CHANNEL_SCALES = (1e-100, 1.0, 1e100)
# one angle, one side of broadside, and a fine grid over both
ANGLE_GRIDS = (
    [0.3],
    np.linspace(0.0, math.pi / 2, 361),
    np.linspace(-math.pi / 2, math.pi / 2, 1001),
)
LOSS_GRIDS = (
    None,
    [-0.0],
    [-400.0],
    [-400.0, -40.0, -3.0, -0.0],
    np.linspace(-400.0, 0.0, 33),
)
# every special float, and two ordinary ones
SPECIAL_POWERS = (0.0, -0.0, 5e-324, 1e-300, 1.5e308, math.inf, math.nan, 1 / 3, 2.5)


class TestOneFormatPerPattern:
    @pytest.mark.parametrize("m, kind", RANK_ONE_CASES)
    def test_same_bytes_as_row_loop(self, tmp_path, m, kind):
        for scale in CHANNEL_SCALES:
            sc = _scaled_scenario(m, kind, scale)
            for grid in (None, *ANGLE_GRIDS):
                patterns = beampattern_sweep(sc, [-400.0, -10.0, -0.0], angle_grid=grid)
                got, want = _pattern_csv_pair(patterns, tmp_path)
                assert got == want, (m, kind, scale, grid)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_hand_built_patterns(self, tmp_path, dtype):
        # float16 cannot hold 1.5e308 and becomes inf
        with np.errstate(over="ignore"):
            power = np.array(SPECIAL_POWERS).astype(dtype)
        shared = np.linspace(-1.0, 1.0, power.size)
        own = np.linspace(-1.5, 0.5, power.size)
        empty = BeamPattern(angles=np.zeros(0), power=np.zeros(0, dtype=dtype))
        patterns = [
            (-3.0, BeamPattern(angles=shared, power=power)),
            (-2.0, BeamPattern(angles=shared, power=power[::-1])),
            (-1.5, empty),
            (np.float32(-1.0), BeamPattern(angles=own, power=power)),
            (-0.0, BeamPattern(angles=shared, power=power)),
            (0, BeamPattern(angles=shared.copy(), power=power)),
        ]
        got, want = _pattern_csv_pair(patterns, tmp_path)
        assert got == want
        assert got.count(b"\n") == 1 + 5 * power.size
        for text in (b",0\n", b",-0\n", b",inf\n", b",nan\n"):
            assert text in got

    def test_empty_patterns_write_no_rows(self, tmp_path):
        empty = BeamPattern(angles=np.zeros(0), power=np.zeros(0))
        for patterns in ([], [(-1.0, empty)], [(-1.0, empty), (-2.0, empty)]):
            got, want = _pattern_csv_pair(patterns, tmp_path)
            assert got == want == b"snr_loss_db,angle_deg,power\n"

    def test_empty_pattern_still_checks_its_loss(self, tmp_path):
        empty = BeamPattern(angles=np.zeros(0), power=np.zeros(0))
        with pytest.raises(TypeError):
            write_beampattern_csv([(True, empty)], tmp_path / "b.csv")

    @pytest.mark.parametrize("n_angles, n_power", [(3, 2), (2, 3), (0, 1), (1, 0)])
    def test_mismatched_lengths_rejected(self, tmp_path, n_angles, n_power):
        # zip used to cut the longer one silently
        path = tmp_path / "b.csv"
        path.write_bytes(b"old")
        good = BeamPattern(angles=np.zeros(2), power=np.ones(2))
        bad = BeamPattern(angles=np.zeros(n_angles), power=np.ones(n_power))
        message = f"^pattern has {n_angles} angles but {n_power} power values$"
        with pytest.raises(ValueError, match=message):
            write_beampattern_csv([(-2.0, good), (-1.0, bad)], path)
        assert path.read_bytes() == b"old"

    def test_one_item_per_pattern(self, reference_scenario):
        patterns = beampattern_sweep(reference_scenario)
        items = list(sweep._beampattern_lines(patterns))
        assert len(items) == len(patterns)
        assert "\n".join(items).split("\n") == list(_beampattern_lines_before(patterns))


class TestDegreeColumnCache:
    def test_keyed_on_content_not_identity(self, tmp_path):
        # equal grids in distinct arrays share one column; a grid changed in
        # place between writes gets its own
        power = np.array([1.0, 0.5, 0.25])
        angles = np.array([-0.5, 0.0, 0.5])
        patterns = [
            (-2.0, BeamPattern(angles=angles, power=power)),
            (-1.0, BeamPattern(angles=angles.copy(), power=power)),
            (-0.5, BeamPattern(angles=angles.astype(np.float32), power=power)),
        ]
        got, want = _pattern_csv_pair(patterns, tmp_path)
        assert got == want
        angles[1] = 0.25
        got, want = _pattern_csv_pair(patterns, tmp_path)
        assert got == want
        assert b",14.323944878270581,0.5\n" in got

    def test_bounded(self, tmp_path):
        power = np.ones(3)
        for k in range(50):
            pattern = BeamPattern(angles=np.full(3, k / 100.0), power=power)
            write_beampattern_csv([(-1.0, pattern)], tmp_path / "b.csv")
        info = sweep._degree_column.cache_info()
        assert info.currsize <= info.maxsize


class TestPatternTemplateCache:
    def test_cold_and_warm_writes_keep_their_bytes(self, tmp_path):
        # the same patterns written with every cache cleared, then again
        # with the templates in place, give the row loop's bytes
        for m, kind in RANK_ONE_CASES:
            patterns = beampattern_sweep(_random_scenario(m, kind))
            sweep._pattern_template.cache_clear()
            sweep._degree_column.cache_clear()
            for _ in range(2):
                got, want = _pattern_csv_pair(patterns, tmp_path)
                assert got == want, (m, kind)
            info = sweep._pattern_template.cache_info()
            assert (info.misses, info.hits) == (4, 4)

    def test_keyed_on_content_not_identity(self, tmp_path):
        # equal grids in distinct arrays and equal losses of other types
        # share one template; a grid changed in place gets its own
        power = np.array([1.0, 0.5, 0.25])
        angles = np.array([-0.3, 0.0, 0.3])
        patterns = [
            (-2.0, BeamPattern(angles=angles, power=power)),
            (-2.0, BeamPattern(angles=angles.copy(), power=power[::-1])),
            (np.float64(-2.0), BeamPattern(angles=angles.astype(np.float32), power=power)),
            (-1, BeamPattern(angles=angles, power=power)),
        ]
        sweep._pattern_template.cache_clear()
        got, want = _pattern_csv_pair(patterns, tmp_path)
        assert got == want
        # float32 angles are other float64 values, and -1 is written as an int
        assert sweep._pattern_template.cache_info().misses == 3
        angles[1] = 0.25
        got, want = _pattern_csv_pair(patterns, tmp_path)
        assert got == want
        assert b"-2,14.323944878270581,0.5\n" in got
        assert b"-1,14.323944878270581,0.5\n" in got

    def test_bounded(self, tmp_path):
        power = np.ones(3)
        for k in range(50):
            pattern = BeamPattern(angles=np.full(3, k / 100.0), power=power)
            write_beampattern_csv([(-k / 10.0, pattern)], tmp_path / "b.csv")
        info = sweep._pattern_template.cache_info()
        assert info.currsize <= info.maxsize


def test_fresh_import_leaves_caches_empty():
    # every cache fills on first use, so importing dfrc does no work for them
    src = str(Path(sweep.__file__).resolve().parents[1])
    code = (
        "import dfrc\n"
        "from dfrc import metrics, sweep\n"
        "print(metrics._grid.cache_info().currsize,"
        " sweep._degree_column.cache_info().currsize,"
        " sweep._pattern_template.cache_info().currsize)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "0 0 0\n"



def _dispatched_cpu_features():
    """The features numpy dispatches to at run time that this CPU has.

    NPY_DISABLE_CPU_FEATURES accepts exactly these; their names differ
    between numpy versions, and numpy 1.x keeps the module in numpy.core.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        from numpy.core import _multiarray_umath as umath
    return [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]


def test_pattern_bytes_do_not_depend_on_numpy_simd_level(tmp_path):
    # beampattern.csv of the reference config and of an M = 512 array,
    # written by child processes with and without numpy's run-time SIMD
    # dispatch; the steering rows, the projections and the field are all
    # real products, sums, cos and sin, so the bytes must be the same
    root = Path(__file__).resolve().parents[1]
    reference = root / "configs" / "reference.yaml"
    text = reference.read_text()
    assert "\n  num_antennas: 10\n" in text
    large = tmp_path / "m512.yaml"
    large.write_text(text.replace("\n  num_antennas: 10\n", "\n  num_antennas: 512\n"))
    code = (
        "import sys\n"
        "from dfrc.cli import main\n"
        "for config, out in zip(sys.argv[1::2], sys.argv[2::2]):\n"
        "    assert main(['beampattern', '--config', config, '--out', out]) == 0\n"
    )
    features = " ".join(_dispatched_cpu_features())
    written = {}
    for label, disabled in (("default", None), ("baseline", features)):
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        outs = [tmp_path / label / name for name in ("reference", "m512")]
        args = [str(v) for pair in zip((reference, large), outs) for v in pair]
        subprocess.run(
            [sys.executable, "-c", code, *args], env=env, capture_output=True, check=True
        )
        written[label] = [(out / "beampattern.csv").read_bytes() for out in outs]
    assert [len(b.splitlines()) for b in written["default"]] == [2885, 2885]
    assert written["default"] == written["baseline"], features


def _boundary_scenarios():
    """(label, scenario) pairs: generic, collinear, orthogonal, and scaled by 2^k."""
    geometry = ArrayGeometry(10, 0.5)
    target = math.radians(-30.0)
    rng = np.random.default_rng(2929)
    rayleigh = (rng.standard_normal(10) + 1j * rng.standard_normal(10)) / math.sqrt(2.0)
    cases = [
        ("reference", Scenario.with_los_user(geometry, target, 0.0, 1.0)),
        ("collinear", Scenario.with_los_user(geometry, target, target, 1.0)),
        ("orthogonal", Scenario.with_los_user(geometry, target, math.radians(30.0), 1.0)),
    ]
    for k in (-60, 0, 60):
        cases.append((f"rayleigh 2^{k}", Scenario(geometry, target, 2.0**k * rayleigh, 2.5)))
        channel = 2.0**k * _random_scenario(64, "rayleigh").channel
        cases.append((f"M=64 2^{k}", Scenario(ArrayGeometry(64, 0.5), 0.3, channel, 0.7)))
    return cases


BOUNDARY_CASES = _boundary_scenarios()
BOUNDARY_IDS = [label for label, _ in BOUNDARY_CASES]


def _boundary_gammas(sc):
    """Thresholds on and next to both case bounds, and their float neighbours."""
    free, top = sc.free_target_power, sc.max_target_power
    gammas = [0.0, 0.5 * (free + top), top]
    for edge in (free * (1.0 - 1e-12), free, free * (1.0 + 1e-12), top * (1.0 - 1e-12)):
        gammas += [np.nextafter(edge, -math.inf), edge, np.nextafter(edge, math.inf)]
    return [float(g) for g in gammas if g <= top * (1.0 + 1e-12)]


class TestSharedConstants:
    """The sweeps read the closed form's constants; every point keeps its bits."""

    @pytest.mark.parametrize("label, sc", BOUNDARY_CASES, ids=BOUNDARY_IDS)
    def test_sweep_points_equal_the_single_calls(self, label, sc):
        cap = sc.max_target_power
        # losses whose thresholds land within a few ulps of each boundary
        # threshold, on both sides of it
        losses = set()
        for gamma in _boundary_gammas(sc):
            if gamma > 0.0:
                loss = min(10.0 * math.log10(gamma / cap), 0.0)
                for step in range(-3, 4):
                    losses.add(min(float(loss + step * np.spacing(loss)), 0.0))
        losses.add(-math.inf)
        points = tradeoff_sweep(sc, sorted(losses))
        for p in points:
            sol = solve_closed_form(sc, p.gamma)
            assert p.case is sol.case, (label, p)
            assert repr(p.capacity_bits) == repr(sol.capacity_bits), (label, p)
            received = optimal_received_power(sc, p.gamma)
            assert repr(p.capacity_bits) == repr(math.log2(1.0 + received)), (label, p)
        if label not in ("collinear", "orthogonal"):
            # the thresholds straddle the lower case bound within a few ulps
            below = max(p.gamma for p in points if p.case is CaseTag.BELOW_THRESHOLD)
            active = min(p.gamma for p in points if p.case is CaseTag.ACTIVE)
            assert below < active <= below * (1.0 + 1e-14), label

    @pytest.mark.parametrize("label, sc", BOUNDARY_CASES, ids=BOUNDARY_IDS)
    def test_single_calls_agree_on_the_boundary_corpus(self, label, sc):
        for gamma in _boundary_gammas(sc):
            sol = solve_closed_form(sc, gamma)
            received = optimal_received_power(sc, gamma)
            assert repr(sol.capacity_bits) == repr(math.log2(1.0 + received))

    @pytest.mark.parametrize("label, sc", BOUNDARY_CASES, ids=BOUNDARY_IDS)
    def test_top_bound_accepts_its_own_value_and_no_more(self, label, sc):
        top = sc.max_target_power * (1.0 + 1e-12)
        assert solve_closed_form(sc, top).case is CaseTag.ACTIVE
        above = float(np.nextafter(top, math.inf))
        message = str(InfeasibleRadarRequirement(above, sc.max_target_power))
        # every entry point makes the one threshold check
        for solve in (
            solve_closed_form,
            optimal_received_power,
            lambda sc, gamma: grid_search_oracle(sc, gamma, resolution=64),
            lambda sc, gamma: random_falsifier(sc, gamma, trials=10),
        ):
            solve(sc, top)
            with pytest.raises(InfeasibleRadarRequirement) as info:
                solve(sc, above)
            assert str(info.value) == message

    @pytest.mark.parametrize("m, kind", RANK_ONE_CASES)
    def test_pattern_coefficients_are_the_solver_s(self, m, kind):
        # each pattern is the solver's own beam at that loss, bit for bit
        sc = _random_scenario(m, kind)
        angles = metrics.default_angle_grid()
        (hr, tr), (hi, ti) = metrics._steering_projections(
            sc.geometry, angles, sc.channel, sc.target_steering
        )
        for loss, pat in beampattern_sweep(sc, [-math.inf, -30.0, -10.0, -3.0, -0.0]):
            sol = solve_closed_form(
                sc, resolve_radar_spec(RadarSnrSpec(snr_loss_db=loss), sc).gamma
            )
            # coeff_a a^H h + coeff_b a^H a_t in real products and sums
            a, b = sol.coeff_a, sol.coeff_b
            real = (a.real * hr - a.imag * hi) + (b.real * tr - b.imag * ti)
            imag = (a.real * hi + a.imag * hr) + (b.real * ti + b.imag * tr)
            power = real * real + imag * imag
            assert pat.power.tobytes() == power.tobytes(), (m, kind, loss)


class TestTradeoffGammaExpression:
    @pytest.mark.parametrize("m, kind", RANK_ONE_CASES)
    def test_same_points_as_spec_round_trip(self, m, kind):
        for scale in CHANNEL_SCALES:
            sc = _scaled_scenario(m, kind, scale)
            for grid in LOSS_GRIDS:
                got = tradeoff_sweep(sc, grid)
                assert repr(got) == repr(_tradeoff_sweep_before(sc, grid)), (m, kind, scale)
                cap = sc.max_target_power
                assert [p.gamma for p in got] == [
                    cap * 10.0 ** (p.snr_loss_db / 10.0) for p in got
                ]

    def test_negative_zero_loss_kept(self, reference_scenario):
        (point,) = tradeoff_sweep(reference_scenario, [-0.0])
        assert math.copysign(1.0, point.snr_loss_db) == -1.0
        assert point.gamma == reference_scenario.max_target_power
