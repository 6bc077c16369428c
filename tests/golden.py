"""Golden outputs: one SHA-256 for each output of a fixed list of cases.

    PYTHONPATH=src python tests/golden.py           # list the cases whose hash moved
    PYTHONPATH=src python tests/golden.py --write   # rewrite tests/golden.json

The cases are seeded and forced drop ensembles at threads 1-3, one whose
users all coincide among them; the drop form and the pair form of the
kernel on rows of coincident users; scalar pairs on both sides of
COINCIDENT_GAP; pattern sweeps; every CLI file of scenario, pattern, prob
and density, with each manifest hashed without duration_seconds; and the
selfcheck stdout.
test_golden.py recomputes them and compares them with golden.json. A
change that moves output bits on purpose rewrites the file with --write
and says in CHANGES.md what moved and why.

The exact and effective totals depend on whether the BLAS kernel fuses
the multiply-add of its k = 2 products, and NumPy's SIMD paths may move
other last bits, so golden.json records a fingerprint of the box: the
NumPy version and the bits of a k = 2 matmul whose fused and unfused
results differ. The hashes are compared only where it matches.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import struct
import sys
import tempfile

import numpy as np

from lensmimo import LensArrayConfig, ScenarioConfig, cli, harness, pairwise_interference_closed, sweep_pattern
from lensmimo.array_model import GRID_SNAP_TOL
from lensmimo.interference import COINCIDENT_GAP, _gram_operands, _pair_gram, _user_terms

from test_interference import SQRT3_HALF, _CHAIN_OF_FOUR, _WHOLE_ROWS

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

SEED = 7
APERTURES = (0.5, 5.0, 5.9999999995, 10.3, 100.0)
# Trials a seeded case runs, by user count: several chunks or ranges each,
# the last of them ragged, at a few milliseconds a run
TRIALS = {1: 300, 2: 200, 10: 1000, 200: 25}
THREADS = (1, 2, 3)


def run_forced(config, doas, threads=1):
    """run_scenario on the (trial_count, user_count) DOAs doas, in radians,
    in place of the seeded stream.

    The harness's sample_doas is replaced for the run only, so it serves
    the forced drops by (offset, count) as it serves stream draws, at any
    chunk size and thread count. Each call returns a fresh array, as
    sample_doas does, because a range takes its sines in place.
    """
    flat = np.asarray(doas, dtype=float).ravel()
    assert flat.size == config.trial_count * config.user_count

    def served(seed, count, offset=0, sector=None):
        return flat[offset:offset + count].copy()

    saved, harness.sample_doas = harness.sample_doas, served
    try:
        return harness.run_scenario(config, threads=threads)
    finally:
        harness.sample_doas = saved


def fingerprint() -> dict:
    """The NumPy version and the float.hex of x^2 - z^2 as a k = 2 matmul.

    With x = 1 + 2^-30 and z = 1 + 2^-30 + 2^-52 both squares round, so
    the unfused x^2 - z^2 is -2^-51, while a fused multiply-add keeps the
    low bits of whichever product it takes exactly, in either order.
    """
    x, z = 1.0 + 2.0**-30, 1.0 + 2.0**-30 + 2.0**-52
    probe = np.matmul(np.array([[x, -z]] * 4), np.array([[x] * 4, [z] * 4]))
    return {"numpy": np.__version__, "matmul_k2": sorted({float(p).hex() for p in probe.ravel()})}


def _bytes(x) -> bytes:
    """A serialisation that holds every bit of x, the sign of a zero too."""
    if isinstance(x, np.ndarray):
        return f"{x.dtype.str}{x.shape}".encode() + np.ascontiguousarray(x).tobytes()
    if isinstance(x, float):
        return struct.pack("<d", x)
    if isinstance(x, dict):
        return b"{" + b",".join(_bytes(k) + b":" + _bytes(v) for k, v in sorted(x.items())) + b"}"
    if isinstance(x, (list, tuple)):
        return b"[" + b",".join(_bytes(v) for v in x) + b"]"
    return repr(x).encode()


def _digest(*parts) -> str:
    return hashlib.sha256(_bytes(parts)).hexdigest()


def _scenario(res) -> str:
    return _digest(res.exact_totals, res.effective_totals, res.effective_counts, res.cdf_grid,
                   res.cdf_values, res.exact_summary, res.effective_summary,
                   res.mean_effective_count, res.mean_effective_count_se)


def _cfg(d_tilde, users, trials):
    return ScenarioConfig(LensArrayConfig(d_tilde=d_tilde), users, trials, SEED)


def _forced_drops():
    """(name, config, doas) of the forced ensembles."""
    rng = np.random.default_rng(SEED)

    def drops(d_tilde, users, trials):
        return _cfg(d_tilde, users, trials), rng.uniform(-math.pi / 3.0, math.pi / 3.0, (trials, users))

    # Coincident clusters and exact ties in the first, a middle and the last
    # chunk of ranges of five 2-drop chunks at one thread, and of fewer at more
    cfg, doas = drops(5.0, 200, 40)
    assert harness._layout(40, 200, 1) == (2, 10)
    for r in (0, 4, 9, 14, 19, 39):
        base = math.sin(doas[r, 3])
        doas[r, 3:6] = np.arcsin(base + COINCIDENT_GAP / 5.0 * np.array([0.0, 0.3, 0.6]))
    for r in (1, 5, 8, 10, 35):
        doas[r, 7] = doas[r, 150]
    yield "clusters_and_ties", cfg, doas
    # K = 0: every user beyond the span, coincident pairs among them
    cfg, doas = drops(0.5, 200, 40)
    doas[0, :3] = np.arcsin([0.3, 0.3 + 1e-7, 0.3])
    doas[9, -2:] = doas[9, 0]
    yield "clusters_beyond_the_span", cfg, doas
    # grid users, and users GRID_SNAP_TOL/2 either side of the grid
    for d_tilde in (5.0, 10.3):
        cfg, doas = drops(d_tilde, 10, 20)
        m = np.arange(-4, 5)
        doas[0, :9] = np.arcsin(m / d_tilde)
        doas[1, :9] = np.arcsin((m + 0.5 * GRID_SNAP_TOL) / d_tilde)
        doas[2, :9] = np.arcsin((m - 0.5 * GRID_SNAP_TOL) / d_tilde)
        doas[3, :3] = np.arcsin(np.array([2.0, 2.0 + 0.5 * GRID_SNAP_TOL, 3.0]) / d_tilde)
        yield f"grid_users_{d_tilde!r}", cfg, doas
    # signed zeros, alone, against each other and against a grid user
    for d_tilde in (5.0, 5.9999999995):
        cfg, doas = drops(d_tilde, 4, 3)
        doas[0] = [0.0, -0.0, 0.0, -0.0]
        doas[1, :3] = [-0.0, -0.0, math.asin(1.0 / d_tilde)]
        doas[2, 0] = 0.0
        yield f"signed_zeros_{d_tilde!r}", cfg, doas
    # end-fire users that snap onto +-(K + 1), and users beyond the span
    cfg, doas = drops(5.9999999995, 6, 4)
    doas[0] = [math.pi / 2, -math.pi / 2, math.pi / 2, 0.0, 0.3, -0.9]
    doas[1, :3] = np.arcsin([1.0, 1.0 - 1e-12, 5.5 / 5.9999999995])
    yield "end_fire_snaps", cfg, doas
    cfg, doas = drops(10.3, 6, 4)
    doas[0] = np.arcsin([0.98, 0.99, 1.0, -0.995, -1.0, 0.99 + 1e-7])
    doas[2, :2] = np.arcsin([10.1 / 10.3, -10.2 / 10.3])
    yield "beyond_the_span", cfg, doas
    # grid neighbours at |t_l - t_k| = 1 in one drop of a chunk: the sine gate
    for d_tilde in (10.0, 10.3):
        cfg, doas = drops(d_tilde, 8, 12)
        doas[5, :2] = np.arcsin(np.array([-1.0, 0.0]) / d_tilde)
        yield f"band_pair_{d_tilde!r}", cfg, doas
    # every user coincides: ranges of two 45-drop chunks at one thread, the
    # last of them ragged, and the sorted search runs all L - 1 of its steps
    cfg, doas = drops(1e-6, 40, 350)
    assert harness._layout(350, 40, 1) == (45, 90)
    yield "all_coincident", cfg, doas


def _drop_form(cfg, sf):
    """The hash of the drop form's G and divisors of the (rows, L) spatial
    frequencies sf, each written into an array filled with NaN."""
    terms = _user_terms(cfg, sf)
    t = terms[0]
    g, scratch = (np.full(t.shape + t.shape[-1:], np.nan) for _ in range(2))
    harness._terms_gram(cfg, _gram_operands(terms), scratch, g)
    return _digest(g, scratch)


def _switch_pairs(d_tilde):
    """The hash of pairwise_interference_closed on the pairs of
    test_coincident_pairs_across_the_switch: gaps from 1e-14 to 1e-2 at a
    random user, at t = +-(K - 1/2), at a grid user and at end-fire."""
    cfg = LensArrayConfig(d_tilde=d_tilde, a_z=2.0)
    coincident = [0.0, 1e-12 * d_tilde, 1e-9, 3e-6]
    gaps = np.concatenate([coincident, np.logspace(-14, -2, 25), [0.99e-5, 1e-5, 1.01e-5]])
    edge = (cfg.max_index - 0.5) / d_tilde
    bases = (np.random.default_rng(17).uniform(-SQRT3_HALF, SQRT3_HALF), edge, -edge, 1.0 / d_tilde, 1.0, -1.0)
    pairs = [(base, partner) for base in bases for gap in gaps
             for partner in (base + gap / d_tilde, base - gap / d_tilde) if abs(partner) <= 1.0]
    pairs += [(b, a) for a, b in pairs]
    return _digest([float(pairwise_interference_closed(cfg, a, b)) for a, b in pairs])


def _cli(args, outputs) -> str:
    """The hash of the files a CLI run writes into a fresh directory, each
    manifest without its duration_seconds."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, outputs[0])
        assert cli.main([str(a) for a in args] + ["--out", out]) == 0
        texts = []
        for name in outputs + [outputs[0] + ".manifest.json"]:
            with open(os.path.join(tmp, name), encoding="utf-8", newline="") as fh:
                text = fh.read()
            if name.endswith(".manifest.json"):
                manifest = json.loads(text)
                del manifest["duration_seconds"]
                text = json.dumps(manifest, sort_keys=True)
            texts.append(text)
    return _digest(texts)


def cases():
    """(name, hash function) of every golden case."""
    for d_tilde in APERTURES:
        for users, trials in TRIALS.items():
            for threads in THREADS:
                yield (f"scenario d_tilde={d_tilde!r} L={users} threads={threads}",
                       lambda c=_cfg(d_tilde, users, trials), n=threads: _scenario(harness.run_scenario(c, n)))
    for name, cfg, doas in _forced_drops():
        for threads in THREADS:
            yield f"forced {name} threads={threads}", lambda c=cfg, x=doas, n=threads: _scenario(run_forced(c, x, n))
    for name, d_tilde, sf in (("chain_of_four", 5.0, _CHAIN_OF_FOUR), ("whole_rows", 0.01, _WHOLE_ROWS)):
        cfg = LensArrayConfig(d_tilde=d_tilde, a_z=2.0)
        yield f"drop form {name}", lambda c=cfg, x=sf: _drop_form(c, x)
        yield f"pair form {name}", lambda c=cfg, x=sf: _digest(_pair_gram(c, x, x))
    for d_tilde in (0.5, 1.5, 2.5, 5.0, 5.9999999995, 10.0, 10.3, 20.0, 57.3, 100.0):
        yield f"closed pairs across the switch d_tilde={d_tilde!r}", lambda d=d_tilde: _switch_pairs(d)
    for d_tilde in (5.0, 20.0, 100.0):
        for phi_l in (0.0, 0.3137, 2.0 / d_tilde, 0.9):
            def sweep(c=LensArrayConfig(d_tilde=d_tilde, a_z=2.0), p=phi_l):
                s = sweep_pattern(c, p, np.linspace(-0.5, 0.5, 2001))
                return _digest(s.phi_tilde_l, s.deltas, s.theta_norms, s.powers_linear, s.powers_db,
                               s.effective, s.skipped_count)
            yield f"sweep_pattern d_tilde={d_tilde!r} phi_l={phi_l!r}", sweep
    yield "cli scenario", lambda: _cli(["scenario", "--d-tilde", 10.3, "--users", 10, "--trials", 200,
                                        "--seed", 5, "--threads", 2], ["s.json", "s.cdf.csv"])
    yield "cli pattern", lambda: _cli(["pattern", "--d-tilde", 20, "--phi-l-deg", 10, "--steps", 401],
                                      ["p.csv"])
    for method in ("closed", "quadrature"):
        yield f"cli prob {method}", lambda m=method: _cli(["prob", "--d-tilde", 10, "--method", m], ["q.json"])
    yield "cli prob mc", lambda: _cli(["prob", "--d-tilde", 10, "--method", "mc", "--samples", 200000,
                                       "--seed", 3, "--threads", 2], ["q.json"])
    yield "cli density", lambda: _cli(["density", "--d-tilde", 10, "--z-min", -0.3, "--z-max", 0.3,
                                       "--steps", 201], ["z.csv"])

    def selfcheck():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main(["selfcheck"]) == 0
        return _digest(stdout.getvalue())
    yield "cli selfcheck stdout", selfcheck


def compute() -> dict:
    return {name: fn() for name, fn in cases()}


def load() -> dict:
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv) -> int:
    if argv == ["--write"]:
        record = {"fingerprint": fingerprint(), "hashes": compute()}
        with open(PATH, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(record['hashes'])} hashes to {PATH}")
        return 0
    if argv:
        print("usage: python tests/golden.py [--write]", file=sys.stderr)
        return 2
    record, hashes = load(), compute()
    if record["fingerprint"] != fingerprint():
        print(f"fingerprint {fingerprint()} differs from the recorded {record['fingerprint']}")
    moved = sorted(n for n in hashes.keys() | record["hashes"].keys() if record["hashes"].get(n) != hashes.get(n))
    print("\n".join(moved) or "every hash matches")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
