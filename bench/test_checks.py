"""Negative controls: each output check passes on real program output and
fails once that output is corrupted.

    python3 -m pytest bench/test_checks.py
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402


# -- ensembles --------------------------------------------------------------

SPEC = {"d_tilde": 5.0, "users": 8, "trials": 400}
SEED = 3


@pytest.fixture(scope="module")
def ensemble_out():
    wl = workloads.Ensemble(**SPEC, cal_ref_s=1.0)
    config = wl.make_job(SEED)
    out = workloads.ensemble_outputs(*wl.run(config))
    return out, reference.effective_prob(SPEC["d_tilde"])


def _ensemble_problems(out, p_ref, **changes):
    return checks.ensemble(SPEC, SEED, dict(out, **changes), p_ref)


def test_ensemble_passes_on_program_output(ensemble_out):
    assert _ensemble_problems(*ensemble_out) == []


def test_ensemble_rejects_powers_scaled_by_one_ppm(ensemble_out):
    out, p_ref = ensemble_out
    scaled = {k: out[k] * (1.0 + 1e-6) for k in ("exact_totals", "mean_exact")}
    problems = _ensemble_problems(out, p_ref, **scaled)
    assert any(p.startswith("mean_exact") for p in problems)


def test_ensemble_rejects_count_shifted_by_six_se(ensemble_out):
    out, p_ref = ensemble_out
    shifted = (SPEC["users"] - 1) * p_ref + 6.0 * out["mean_effective_count_se"]
    problems = _ensemble_problems(out, p_ref, mean_effective_count=shifted)
    assert any(p.startswith("effective count") for p in problems)


def test_ensemble_rejects_effective_above_exact(ensemble_out):
    out, p_ref = ensemble_out
    eff = out["exact_totals"] * 1.01
    problems = _ensemble_problems(out, p_ref, effective_totals=eff)
    assert any("exceeds its exact total" in p for p in problems)


def test_ensemble_rejects_unordered_quantiles(ensemble_out):
    out, p_ref = ensemble_out
    s = dict(out["exact_summary"])
    s["q90"], s["q99"] = s["q99"], s["q90"]
    problems = _ensemble_problems(out, p_ref, exact_summary=s)
    assert any("quantiles out of order" in p for p in problems)


def test_ensemble_rejects_fraction_above_one(ensemble_out):
    out, p_ref = ensemble_out
    problems = _ensemble_problems(out, p_ref, captured_fraction=1.0 + 1e-9)
    assert any(p.startswith("captured fraction") for p in problems)


def _record(count, se, mean_exact=1.0, mean_effective=0.95):
    return {"mean_effective_count": count, "mean_effective_count_se": se,
            "mean_exact": mean_exact, "mean_effective": mean_effective}


def test_pooled_rejects_count_shifted_by_six_pooled_se():
    p = 0.2
    target = (SPEC["users"] - 1) * p
    se = 0.01
    assert checks.ensemble_pooled(SPEC, [_record(target, se)] * 4, p) == []
    shifted = target + 6.0 * se / 2.0  # pooled se of four jobs is se / 2
    problems = checks.ensemble_pooled(SPEC, [_record(shifted, se)] * 4, p)
    assert any(p.startswith("pooled effective count") for p in problems)


def test_pooled_rejects_capture_at_the_mainlobe_share():
    p = 0.2
    share = reference.mainlobe_share()
    records = [_record((SPEC["users"] - 1) * p, 0.01, mean_effective=share)]
    problems = checks.ensemble_pooled(SPEC, records, p)
    assert any(p.startswith("pooled captured fraction") for p in problems)


# -- CLI figures ------------------------------------------------------------

@pytest.fixture()
def figure_set(tmp_path):
    wl = workloads.CliFigures(tmp_path)
    job = wl.make_job(5)
    outputs = wl.run(job)
    return wl, job, outputs


def _rewrite(job, name, edit):
    path = job.dir / name
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")


def _edit_json(job, name, **changes):
    _rewrite(job, name, lambda text: json.dumps(dict(json.loads(text), **changes)))


def _scale_csv_column(col, factor):
    def edit(text):
        lines = text.splitlines()
        rows = [line.split(",") for line in lines[1:]]
        for row in rows:
            row[col] = repr(float(row[col]) * factor)
        return "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n"
    return edit


def test_figures_pass_on_program_output(figure_set):
    wl, job, outputs = figure_set
    assert wl.check(job, outputs) == []
    assert wl.bytes_written(job) > 0


def test_pattern_rejects_powers_scaled_by_one_ppm(figure_set):
    wl, job, outputs = figure_set
    _rewrite(job, "pattern.csv", _scale_csv_column(2, 1.0 + 1e-6))
    assert any("sinc^2 law" in p for p in wl.check(job, outputs))


def test_closed_rejects_value_off_its_formula(figure_set):
    wl, job, outputs = figure_set
    value = reference.closed_prob(job.prob_d[1]) * (1.0 + 1e-9)
    _edit_json(job, "prob_closed_1.json", value=value)
    assert any(p.startswith("prob closed") for p in wl.check(job, outputs))


def test_quadrature_rejects_shift_of_two_ppm(figure_set):
    wl, job, outputs = figure_set
    value = reference.effective_prob(job.prob_d[0]) + 2e-6
    _edit_json(job, "prob_quadrature_0.json", value=value)
    assert any(p.startswith("prob quadrature") for p in wl.check(job, outputs))


def test_mc_rejects_value_six_se_from_reference(figure_set):
    wl, job, outputs = figure_set
    p = reference.effective_prob(job.mc_d)
    se = math.sqrt(p * (1.0 - p) / job.mc_samples)
    value = p + 6.0 * se
    _edit_json(job, "prob_mc.json", value=value,
               std_error=math.sqrt(value * (1.0 - value) / job.mc_samples))
    assert any(p.startswith("prob mc at") for p in wl.check(job, outputs))


def test_mc_rejects_wrong_standard_error(figure_set):
    wl, job, outputs = figure_set
    record = json.loads((job.dir / "prob_mc.json").read_text())
    _edit_json(job, "prob_mc.json", std_error=record["std_error"] * 1.01)
    assert any("std_error" in p for p in wl.check(job, outputs))


def test_density_rejects_values_scaled_by_one_ppm(figure_set):
    wl, job, outputs = figure_set
    _rewrite(job, "density.csv", _scale_csv_column(1, 1.0 + 1e-6))
    problems = wl.check(job, outputs)
    assert any("integrates to" in p for p in problems)
    assert any("centre" in p for p in problems)


def test_selfcheck_rejects_a_failing_suite(figure_set):
    wl, job, outputs = figure_set
    codes, stdout = outputs
    bad = stdout.replace("9/9 checks passed", "8/9 checks passed")
    assert checks.selfcheck(1, bad) != []
    assert checks.selfcheck(0, bad) != []
    assert wl.check(job, (codes[:-1] + [1], stdout)) != []


def test_manifest_rejects_non_finite_json(figure_set):
    wl, job, outputs = figure_set
    _rewrite(job, "prob_closed_0.json.manifest.json", lambda t: t.replace('"closed"', "Infinity", 1))
    assert any(p.startswith("unreadable output") for p in wl.check(job, outputs))


def test_parse_json_refuses_nan():
    with pytest.raises(ValueError):
        checks.parse_json('{"value": NaN}')
    assert checks.parse_json('{"value": 1.5}') == {"value": 1.5}


def test_reference_probability_matches_closed_form_law():
    # The closed form is first order: its relative excess over the exact
    # probability is c / d_tilde + O(1 / d_tilde^2) (README, criterion 4).
    h = math.pi / 3.0
    c = 1.0 / (4.0 * math.cos(h) ** 2 * math.atanh(math.sin(h)))
    for d in (50.0, 200.0):
        exact = reference.effective_prob(d)
        gap = (reference.closed_prob(d) - exact) / exact
        assert abs(gap * d / c - 1.0) <= 2.0 / d
    assert np.isclose(reference.mainlobe_share(), 0.9028233335802807, rtol=1e-14)
