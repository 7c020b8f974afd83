from __future__ import annotations

import numpy as np
import pytest

from sermtl.corpus import SynthConfig, generate_synthetic, read_wav
from sermtl.features import _dct_rows
from sermtl.features import (
    FEATURE_COLUMNS,
    FeatureConfig,
    FeatureError,
    apply_standardizer,
    compute_deltas,
    extract_features,
    fit_standardizer,
    frame_descriptors,
    frame_signal,
    mel_filterbank,
    normalize_gain,
    read_feature_file,
    write_feature_csv,
    write_feature_file,
)

SR = 16000
CFG = FeatureConfig()


def test_column_layout():
    assert len(FEATURE_COLUMNS) == 32
    assert FEATURE_COLUMNS[:4] == ("f0", "voice_prob", "zcr", "log_energy")
    assert FEATURE_COLUMNS[16] == "d_f0"


class TestNormalizeGain:
    def test_peak_scaling(self):
        out = normalize_gain(np.array([0.0, 0.25, -0.5]))
        assert np.allclose(out, [0.0, 0.5, -1.0])

    def test_all_zero_passthrough(self):
        out = normalize_gain(np.zeros(100))
        assert np.all(out == 0.0)

    def test_sine_amplitude(self):
        t = np.arange(1600) / SR
        sine = 0.1 * np.sin(2 * np.pi * 200 * t)
        out = normalize_gain(sine)
        assert np.isclose(np.max(np.abs(out)), 1.0)
        assert np.allclose(out, sine / 0.1)

    def test_empty_error(self):
        with pytest.raises(FeatureError):
            normalize_gain(np.array([]))


class TestFraming:
    def test_one_second(self):
        frames = frame_signal(np.zeros(16000), SR, CFG)
        assert frames.shape == (98, 400)

    def test_exactly_one_window(self):
        assert frame_signal(np.zeros(400), SR, CFG).shape == (1, 400)

    def test_too_short(self):
        with pytest.raises(FeatureError, match="too short"):
            frame_signal(np.zeros(399), SR, CFG)


class TestFrameDescriptors:
    def test_dc_frame(self):
        desc = frame_descriptors(np.full(400, 0.3), SR, CFG)
        assert desc[2] == 0.0  # zcr: no sign changes
        assert desc[1] == 0.0  # voicing vanishes once the mean is removed
        assert desc[0] == 0.0

    def test_pure_100hz_sine(self):
        t = np.arange(400) / SR
        frame = np.sin(2 * np.pi * 100 * t)
        desc = frame_descriptors(frame, SR, CFG)
        assert abs(desc[0] - 100.0) <= 2.0
        assert desc[1] > 0.9

    def test_alternating_signs(self):
        frame = np.tile([1.0, -1.0], 200)
        desc = frame_descriptors(frame, SR, CFG)
        assert desc[2] == 1.0

    def test_tone_f0_within_three_percent(self):
        for freq in (80, 150, 220, 333, 400):
            t = np.arange(16000) / SR
            matrix = extract_features(0.4 * np.sin(2 * np.pi * freq * t), SR, CFG)
            voiced = matrix[:, 1] > 0.9
            estimate = np.median(matrix[voiced, 0])
            assert abs(estimate - freq) / freq < 0.03, (freq, estimate)


class TestDeltas:
    def test_constant_is_zero(self):
        deltas = compute_deltas(np.full((10, 16), 3.5), CFG)
        assert np.all(deltas == 0.0)

    def test_linear_ramp_slope(self):
        slope = 0.75
        static = slope * np.arange(20)[:, None] * np.ones((1, 16))
        deltas = compute_deltas(static, CFG)
        interior = deltas[CFG.delta_window : -CFG.delta_window]
        assert np.allclose(interior, slope)

    def test_single_frame_zero(self):
        deltas = compute_deltas(np.ones((1, 16)), CFG)
        assert np.all(deltas == 0.0)


class TestExtractFeatures:
    def test_one_second_shape(self):
        t = np.arange(16000) / SR
        matrix = extract_features(0.5 * np.sin(2 * np.pi * 150 * t), SR, CFG)
        assert matrix.shape == (98, 32)
        assert matrix.dtype == np.float32

    def test_silence_deltas_zero(self):
        matrix = extract_features(np.zeros(16000), SR, CFG)
        assert np.all(matrix[:, 16:] == 0.0)

    def test_generator_outputs_clean(self, small_synth):
        manifest, _, _ = small_synth
        for rec in manifest.records[:6]:
            samples, sr = read_wav(rec.audio_path)
            matrix = extract_features(samples, sr, CFG)
            assert np.all(np.isfinite(matrix))
            assert matrix[:, 1].min() >= 0.0 and matrix[:, 1].max() <= 1.0
            f0 = matrix[:, 0]
            voiced = f0 > 0
            assert np.all((f0[voiced] >= CFG.f0_min_hz) & (f0[voiced] <= CFG.f0_max_hz))

    def test_power_of_two_scaling_is_bit_identical(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 0.1, 8000)
        a = extract_features(x, SR, CFG)
        b = extract_features(4.0 * x, SR, CFG)
        assert a.tobytes() == b.tobytes()

    def test_arbitrary_scaling_matches_closely(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0, 0.1, 8000)
        a = extract_features(x, SR, CFG)
        b = extract_features(3.0 * x, SR, CFG)
        assert np.allclose(a, b, atol=1e-4)


class TestStandardizer:
    def test_fit_set_statistics(self):
        rng = np.random.default_rng(0)
        mats = [rng.normal(2.0, 3.0, (50, 32)) for _ in range(4)]
        std = fit_standardizer(mats)
        stacked = np.concatenate([apply_standardizer(std, m) for m in mats])
        assert np.all(np.abs(stacked.mean(axis=0)) < 1e-9)
        assert np.allclose(stacked.std(axis=0), 1.0, atol=1e-6)

    def test_constant_column_maps_to_zero(self):
        mat = np.ones((20, 32))
        mat[:, 5] = 7.25
        std = fit_standardizer([mat])
        out = apply_standardizer(std, mat)
        assert np.all(np.abs(out) < 1e-6)
        assert np.all(np.isfinite(out))

    def test_train_statistics_differ_from_test(self):
        rng = np.random.default_rng(1)
        train = rng.normal(0, 1, (100, 32))
        test = rng.normal(5, 1, (100, 32))  # shifted set
        std = fit_standardizer([train])
        out = apply_standardizer(std, test)
        # standardized with train stats, the shifted set keeps its offset
        assert np.all(out.mean(axis=0) > 2.0)

    def test_empty_error(self):
        with pytest.raises(ValueError):
            fit_standardizer([])


class TestFeatureFiles:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(2)
        matrix = rng.normal(size=(30, 32)).astype(np.float32)
        path = write_feature_file(tmp_path / "x.pmtl", matrix)
        again = read_feature_file(path)
        assert again.tobytes() == matrix.tobytes()
        write_feature_file(tmp_path / "y.pmtl", again)
        assert (tmp_path / "x.pmtl").read_bytes() == (tmp_path / "y.pmtl").read_bytes()

    def test_magic_check(self, tmp_path):
        (tmp_path / "bad.pmtl").write_bytes(b"NOPE!" + b"\x00" * 16)
        with pytest.raises(FeatureError, match="magic"):
            read_feature_file(tmp_path / "bad.pmtl")

    def test_csv_header(self, tmp_path):
        matrix = np.zeros((2, 32), dtype=np.float32)
        path = write_feature_csv(tmp_path / "x.csv", matrix)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(FEATURE_COLUMNS)


class TestConstantTables:
    @pytest.mark.parametrize("build, args", [
        (mel_filterbank, (FeatureConfig(), SR)),
        (_dct_rows, (CFG.n_mfcc, CFG.n_mel_filters)),
    ])
    def test_built_once_and_read_only(self, build, args):
        table = build(*args)
        assert build(*args) is table
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1.0
