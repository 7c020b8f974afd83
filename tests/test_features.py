from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_features as reference
from sermtl.corpus import SynthConfig, generate_synthetic, read_wav
from sermtl.features import _dct_rows
from sermtl.features import (
    FEATURE_COLUMNS,
    FeatureConfig,
    FeatureError,
    FeatureStore,
    Standardizer,
    Workspace,
    apply_standardizer,
    compute_deltas,
    extract_features,
    fit_standardizer,
    frame_signal,
    load_store,
    mel_filterbank,
    normalize_gain,
    save_store,
    standardized,
    write_feature_csv,
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

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 48000))
    @example(n=0)
    @example(n=559)
    @example(n=560)
    def test_rows_for_any_length(self, n):
        """1 + (N - 400) // 160 rows of 400 samples every 160 for N >= 400, else an error."""
        samples = np.arange(n, dtype=np.float64)
        if n < 400:
            with pytest.raises(FeatureError, match="too short"):
                frame_signal(samples, SR, CFG)
            return
        frames = frame_signal(samples, SR, CFG)
        assert frames.shape == (1 + (n - 400) // 160, 400)
        assert np.array_equal(frames, 160.0 * np.arange(len(frames))[:, None] + np.arange(400.0))


def _one_frame(frame):
    """The 16 static descriptors of a one-frame (400-sample) signal."""
    matrix = extract_features(frame, SR, CFG)
    assert matrix.shape == (1, 32)
    return matrix[0, :16]


class TestFrameDescriptors:
    def test_dc_frame(self):
        desc = _one_frame(np.full(400, 0.3))
        assert desc[2] == 0.0  # zcr: no sign changes
        assert desc[1] == 0.0  # voicing vanishes once the mean is removed
        assert desc[0] == 0.0

    def test_pure_100hz_sine(self):
        t = np.arange(400) / SR
        frame = np.sin(2 * np.pi * 100 * t)
        desc = _one_frame(frame)
        assert abs(desc[0] - 100.0) <= 2.0
        assert desc[1] > 0.9

    def test_alternating_signs(self):
        frame = np.tile([1.0, -1.0], 200)
        desc = _one_frame(frame)
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

    @settings(max_examples=60, deadline=None)
    @given(lengths=st.lists(st.integers(0, 30), min_size=1, max_size=6).filter(lambda n: sum(n) >= 2),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
    def test_statistics_equal_the_stacked_reduction(self, lengths, dtype, seed):
        """Reduced one matrix at a time (empty ones included), the statistics are
        those of one float64 stack, bit for bit."""
        rng = np.random.default_rng(seed)
        mats = [rng.normal(rng.uniform(-50, 50), rng.uniform(0.01, 20), (n, 7)).astype(dtype) for n in lengths]
        data = np.concatenate(mats, dtype=np.float64)
        got = fit_standardizer(mats)
        assert got.mean.tobytes() == data.mean(axis=0).tobytes()
        assert got.std.tobytes() == np.maximum(data.std(axis=0), 1e-8).tobytes()


def _random_store(seed=2, lengths=(30, 1, 12)):
    rng = np.random.default_rng(seed)
    return FeatureStore.pack([f"u{i}" for i in range(len(lengths))],
                             [rng.normal(size=(n, 32)).astype(np.float32) for n in lengths])


class TestFeatureFiles:
    def test_round_trip_bit_identical(self, tmp_path):
        store = _random_store()
        save_store(tmp_path / "x", store)
        again = load_store(tmp_path / "x")
        assert again.ids == store.ids
        assert again.matrix.tobytes() == store.matrix.tobytes()
        assert np.array_equal(again.starts, store.starts) and np.array_equal(again.lengths, store.lengths)
        save_store(tmp_path / "y", again)
        for name in ("features.npy", "features_index.csv"):
            assert (tmp_path / "x" / name).read_bytes() == (tmp_path / "y" / name).read_bytes()
        assert (tmp_path / "x" / "features_index.csv").read_text().splitlines()[:3] == [
            "utterance_id,offset,n_frames", "u0,0,30", "u1,30,1"]

    def test_index_checked(self, tmp_path):
        save_store(tmp_path, _random_store(lengths=(30,)))
        for index, named in [("utterance_id,feature_path,n_frames\nu0,0,30\n", "header"),
                             ("utterance_id,offset,n_frames\nu0,0,31\n", "does not fit")]:
            (tmp_path / "features_index.csv").write_text(index)
            with pytest.raises(FeatureError, match=named):
                load_store(tmp_path)

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


# ---------------------------------------------------------------------------
# The workspace kernel against the front-end it replaced (tests/reference_features.py)
# ---------------------------------------------------------------------------

_SHARED_WORKSPACE = Workspace()  # reused across examples, as over the utterances of a chunk


@st.composite
def _signals(draw):
    kind = draw(st.sampled_from(["silence", "tone", "noise", "tone+noise"]))
    n = draw(st.one_of(st.just(400), st.integers(8000, 48000)))  # one frame, or 0.5-3 s
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.arange(n) / SR
    signal = np.zeros(n)
    if "tone" in kind:
        freq = draw(st.floats(50.0, 500.0))
        signal += draw(st.floats(0.01, 1.0)) * np.sin(2 * np.pi * freq * t + rng.uniform(0, 6.3))
    if "noise" in kind:
        signal += draw(st.floats(0.001, 0.5)) * rng.normal(size=n)
    return signal


class TestKernelMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(signal=_signals())
    def test_byte_identical(self, signal):
        want = reference.extract_features(signal, SR, CFG)
        assert extract_features(signal, SR, CFG, workspace=_SHARED_WORKSPACE).tobytes() == want.tobytes()
        out = np.empty_like(want)
        assert extract_features(signal, SR, CFG, out=out) is out
        assert out.tobytes() == want.tobytes()

    def test_generated_corpus_byte_identical(self, small_synth):
        manifest, _, _ = small_synth
        workspace = Workspace()
        for rec in manifest.records:
            samples, sr = read_wav(rec.audio_path)
            got = extract_features(samples, sr, CFG, workspace=workspace)
            assert got.tobytes() == reference.extract_features(samples, sr, CFG).tobytes(), rec.utterance_id

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_deltas_byte_identical(self, n, seed):
        static = np.random.default_rng(seed).normal(size=(n, 16))
        assert compute_deltas(static, CFG).tobytes() == reference.compute_deltas(static, CFG).tobytes()

    def test_wrong_output_rejected(self):
        with pytest.raises(FeatureError, match="float32"):
            extract_features(np.zeros(800), SR, CFG, out=np.empty((6, 32)))


_FAULTS_PER_UTTERANCE = """
import resource
import numpy as np
from sermtl.features import FeatureConfig, Workspace, extract_features

rng = np.random.default_rng(5)
t = np.arange(8000) / 16000
signals = [0.3 * np.sin(2 * np.pi * (90 + 17 * i) * t) + 0.02 * rng.normal(size=t.size)
           for i in range(21)]
workspace = Workspace()
extract_features(signals[0], 16000, FeatureConfig(), workspace)  # sizes the workspace
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for signal in signals[1:]:
    extract_features(signal, 16000, FeatureConfig(), workspace)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / (len(signals) - 1))
"""


def test_front_end_takes_no_fresh_pages_per_utterance():
    """Once its workspace is sized, the front-end reuses its memory: fresh pages
    from the kernel (minor faults) cost about a third of its time when every
    intermediate was a new array (some 550 faults per 0.5 s utterance)."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _FAULTS_PER_UTTERANCE], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert float(out.stdout) < 20


class TestFeatureStore:
    def test_rows_select_and_gather(self):
        store = _random_store(lengths=(3, 5, 2))
        assert len(store) == 3 and store.starts.tolist() == [0, 3, 8]
        assert store.rows(1).base is not None and np.array_equal(store.rows(1), store.matrix[3:8])
        subset = store.select(store.positions(["u2", "u0"]))
        assert subset.ids == ("u2", "u0") and subset.matrix is store.matrix
        assert np.array_equal(subset.gather(range(2)), np.concatenate([store.rows(2), store.rows(0)]))

    def test_standardized_is_float64_math_rounded(self):
        store = _random_store(lengths=(7, 9))
        std = Standardizer(mean=np.linspace(-1, 1, 32), std=np.linspace(0.5, 2, 32))
        out = standardized(store, std, block_rows=4)
        assert out.matrix.dtype == np.float32 and out.ids == store.ids
        assert out.matrix.tobytes() == apply_standardizer(std, store.matrix).astype(np.float32).tobytes()
