import numpy as np
import pytest

from mpcadapter.costmodel import (PUBLISHED_WAN, SFT_BASELINE,
                                  CostCoefficients, ProfileSample,
                                  UnderDeterminedError, estimate_comm_gb,
                                  estimate_latency, estimate_rounds,
                                  fit_cost_model, load_samples_csv,
                                  profile_pipeline, save_samples_csv)
from mpcadapter.nn import AdapterConfig
from mpcadapter.runtime import LAN

# Reference configurations with published latency estimates (seconds).
REFERENCE_LATENCIES = [
    ((2, 120, 2), 2.55),
    ((1, 300, 1), 2.24),
    ((4, 180, 1), 1.79),
    ((12, 300, 1), 2.66),
    ((1, 180, 1), 1.68),
]


def test_estimate_rounds():
    assert estimate_rounds(1) == 29
    assert estimate_rounds(2) == 55
    assert estimate_rounds(3) == 81
    assert estimate_rounds(AdapterConfig(s=3)) == 81
    with pytest.raises(ValueError):
        estimate_rounds(0)


def test_round_speedup_vs_baseline():
    assert SFT_BASELINE["rounds"] == 77
    assert round(SFT_BASELINE["rounds"] / estimate_rounds(1), 2) == 2.66


def test_estimate_comm_gb_reference_values():
    # the two published traffic figures, 0.06 GB (WAN config) and
    # 0.05 GB (LAN config)
    assert estimate_comm_gb(AdapterConfig(h=1, r=300, s=1)) == pytest.approx(
        0.06, abs=0.005)
    assert estimate_comm_gb(AdapterConfig(h=1, r=240, s=1)) == pytest.approx(
        0.05, abs=0.005)
    assert estimate_comm_gb(AdapterConfig(h=2, r=120, s=2)) == pytest.approx(
        0.05634, abs=1e-5)


@pytest.mark.parametrize("config,expected", REFERENCE_LATENCIES)
def test_estimate_latency_reference_values(config, expected):
    h, r, s = config
    comm, comp, total = estimate_latency(AdapterConfig(h=h, r=r, s=s))
    assert total == pytest.approx(expected, abs=0.01)
    assert total == comm + comp


def test_coefficients_json_roundtrip():
    doc = PUBLISHED_WAN.to_json(0.99, 0.98)
    back = CostCoefficients.from_json(doc)
    assert back == PUBLISHED_WAN


def test_profile_sample_validation():
    with pytest.raises(ValueError):
        ProfileSample(h=0, r=8, s=1, comm_time_s=1, comp_time_s=1,
                      rounds=29, bytes=100)
    with pytest.raises(ValueError):
        ProfileSample(h=1, r=8, s=1, comm_time_s=-1, comp_time_s=1,
                      rounds=29, bytes=100)


def _synthetic_samples(coeffs, grid, noise=0.0, seed=0, reps=1):
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    for _ in range(reps):
        for h, r, s in grid:
            comm = coeffs.comm_time(h, r, s)
            comp = coeffs.comp_time(h, r, s)
            if noise:
                comm *= 1.0 + rng.uniform(-noise, noise)
                comp *= 1.0 + rng.uniform(-noise, noise)
            out.append(ProfileSample(h=h, r=r, s=s, comm_time_s=comm,
                                     comp_time_s=comp, rounds=26 * s + 3,
                                     bytes=1))
    return out


GRID_12 = [(h, r, s) for h in (1, 2, 4) for r in (60, 120) for s in (1, 2)]

# Corner design: identifying the small coefficients under noise needs wide
# spans in every dimension plus replication.
GRID_CORNERS = [(h, r, s) for h in (1, 12) for r in (60, 300) for s in (1, 6)]


def test_fit_exact_recovery():
    samples = _synthetic_samples(PUBLISHED_WAN, GRID_12)
    coeffs, r2_comm, r2_comp = fit_cost_model(samples, "WAN")
    assert np.allclose(coeffs.comm, PUBLISHED_WAN.comm, atol=1e-9)
    assert np.allclose(coeffs.comp, PUBLISHED_WAN.comp, atol=1e-9)
    assert r2_comm == pytest.approx(1.0)
    assert r2_comp == pytest.approx(1.0)


def test_fit_with_noise():
    samples = _synthetic_samples(PUBLISHED_WAN, GRID_CORNERS, noise=0.03,
                                 seed=42, reps=15)
    coeffs, r2_comm, r2_comp = fit_cost_model(samples, "WAN")
    for got, want in ((coeffs.comm, PUBLISHED_WAN.comm), (coeffs.comp, PUBLISHED_WAN.comp)):
        rel = np.abs(np.array(got) / np.array(want) - 1.0)
        assert rel.max() <= 0.05
    assert r2_comm >= 0.99 and r2_comp >= 0.99


def test_fit_underdetermined():
    flat = [(h, r, 1) for h in (1, 2, 4) for r in (60, 120)]
    with pytest.raises(UnderDeterminedError, match="s"):
        fit_cost_model(_synthetic_samples(PUBLISHED_WAN, flat))
    with pytest.raises(UnderDeterminedError):
        fit_cost_model(_synthetic_samples(PUBLISHED_WAN, GRID_12[:3]))


def test_csv_roundtrip(tmp_path):
    samples = _synthetic_samples(PUBLISHED_WAN, GRID_12[:6])
    path = tmp_path / "samples.csv"
    save_samples_csv(path, samples)
    back = load_samples_csv(path)
    assert back == samples


def test_profile_pipeline_consistency():
    configs = [AdapterConfig(h=1, r=4, s=1), AdapterConfig(h=1, r=8, s=1),
               AdapterConfig(h=1, r=4, s=2)]
    samples = profile_pipeline(configs, LAN, seed=0)
    for cfg, p in zip(configs, samples):
        assert p.rounds == estimate_rounds(cfg)
    assert samples[1].bytes > samples[0].bytes  # monotone in r
    again = profile_pipeline(configs[:1], LAN, seed=0)
    assert again[0].bytes == samples[0].bytes
    assert again[0].rounds == samples[0].rounds
