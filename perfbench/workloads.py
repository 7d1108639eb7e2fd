"""The four benchmark workloads: inputs, the timed call, and output checks.

Each workload is built from a pool index ``k`` (the run's ``--seed`` modulo
``POOL_SIZE``), so one seed always gives the same inputs and every input has
reference outputs in ``refs.json``, recorded from the library as first
benchmarked (see ``record_refs.py``).

A workload object offers:

- ``prepare(k, scratch)``: build inputs; this is set-up, not timed;
- ``run(prepared)``: the timed call into the library;
- ``steps(prepared)``: work units of one run, for ``steps_per_s``;
- ``ops(prepared)``: operations attempted, for failure accounting;
- ``outputs(prepared, result)``: the digests and fingerprints compared
  against ``refs.json``;
- ``check(prepared, result, ref)``: ``(failed_ops, final_loss, problems)``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import rlsol
from rlsol import cli
from rlsol.conv import ConvSessionConfig, ConvSessionEvent, init_conv_state
from rlsol.mlp import CE_HEAD, Layer, SessionConfig, SessionEvent

POOL_SIZE = 16

# Relative tolerance for session weights and losses: loose enough for a
# change of summation order (float64 round-off amplified over a few dozen
# updates), tight enough to catch any change of algorithm.
SESSION_RTOL = 1e-6
N_PROBES = 8


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _close(a: float, b: float, scale: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= SESSION_RTOL * scale


# --- drift workloads -----------------------------------------------------


@dataclass
class DriftPrepared:
    out: Path
    seeds: list[int]
    learners: list[str]
    blocks: int
    argv: list[str]


class DriftWorkload:
    """``rlsol bench run`` through ``cli.main`` on a benchmark-owned config.

    The config is the shipped ``canonical.cfg`` with the ``key = value``
    lines of ``overrides`` replaced, and ``seed`` set to ``1 + 1000 k``; at
    ``k = 0`` with no overrides it is byte-identical to the shipped file.
    """

    def __init__(self, n_seeds: int, **overrides):
        self.n_seeds = n_seeds
        self.overrides = overrides

    def config_text(self, seed: int) -> str:
        settings = {**self.overrides, "seed": seed}
        lines = []
        for line in cli.DEFAULT_CONFIG.read_text().splitlines(keepends=True):
            key = line.split("#", 1)[0].split("=", 1)[0].strip()
            if "=" in line.split("#", 1)[0] and key in settings:
                line = f"{key} = {settings.pop(key)}\n"
            lines.append(line)
        if settings:
            raise ValueError(f"canonical.cfg has no line for {sorted(settings)}")
        return "".join(lines)

    def prepare(self, k: int, scratch: Path) -> DriftPrepared:
        seed = 1 + 1000 * k
        config = scratch / "bench.cfg"
        config.write_text(self.config_text(seed))
        values = cli.parse_config(config)
        out = scratch / "report"
        argv = ["bench", "run", "--config", str(config), "--out", str(out),
                "--seeds", str(self.n_seeds)]
        learners = [s.strip() for s in values["learners"].split(",") if s.strip()]
        return DriftPrepared(
            out=out,
            seeds=[seed + i for i in range(self.n_seeds)],
            learners=learners,
            blocks=values["n_regimes"] * values["regime_blocks"],
            argv=argv,
        )

    def run(self, prep: DriftPrepared):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(prep.argv)

    def steps(self, prep: DriftPrepared) -> int:
        return len(prep.seeds) * len(prep.learners) * prep.blocks

    def ops(self, prep: DriftPrepared) -> int:
        return len(prep.seeds) * len(prep.learners)

    def outputs(self, prep: DriftPrepared, rc) -> dict:
        """Whole-file digests plus one digest per (seed, learner) of its CSV
        rows. ``metadata.package_version`` is dropped from the JSON: it
        depends on whether the package is installed."""
        csv_bytes = (prep.out / "report.csv").read_bytes()
        report = json.loads((prep.out / "report.json").read_text())
        report["metadata"].pop("package_version", None)
        json_bytes = (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
        rows: dict[str, list[str]] = {}
        for line in csv_bytes.decode().splitlines()[1:]:
            seed, learner, _ = line.split(",", 2)
            rows.setdefault(f"{seed}/{learner}", []).append(line)
        return {
            "csv": _sha(csv_bytes),
            "json": _sha(json_bytes),
            "ops": {key: _sha("\n".join(lines).encode())[:16] for key, lines in rows.items()},
            "final_loss": report["summaries"]["rls_precond"]["mean_final_retention_regime1"],
        }

    def check(self, prep: DriftPrepared, rc, ref: dict):
        """A (seed, learner) run fails when its CSV rows differ; a report
        that differs elsewhere (JSON summary, CSV header) fails every run."""
        if rc != 0:
            return self.ops(prep), math.nan, [f"bench run exited {rc}"]
        got = self.outputs(prep, rc)
        problems = [
            f"report.csv rows of {key} differ from the reference"
            for key in sorted(set(ref["ops"]) | set(got["ops"]))
            if got["ops"].get(key) != ref["ops"].get(key)
        ]
        failed = len(problems)
        for name in ("csv", "json"):
            if got[name] != ref[name]:
                problems.append(f"report.{name} differs from the reference")
                failed = failed or self.ops(prep)
        return min(failed, self.ops(prep)), got["final_loss"], problems


# --- session workloads: shared fingerprinting ----------------------------


def _probes(size: int, tag: int) -> np.ndarray:
    probes = np.random.default_rng([7919, tag, size]).standard_normal((N_PROBES, size))
    return probes / np.linalg.norm(probes, axis=1, keepdims=True)


def _fingerprint(arr: np.ndarray, tag: int) -> list[float]:
    """Frobenius norm plus projections on fixed unit probes: each entry is
    within ``norm`` of zero, so one relative tolerance serves them all."""
    flat = np.asarray(arr, dtype=np.float64).reshape(-1)
    return [float(np.linalg.norm(flat))] + [float(v) for v in _probes(flat.size, tag) @ flat]


def _audit_digest(audit: list[tuple]) -> str:
    """Digest of the exact audit sequence (branch name and step per entry)."""
    return _sha(json.dumps([list(entry) for entry in audit]).encode())


def _check_fingerprints(got: list[list[float]], ref: list[list[float]]) -> list[str]:
    problems = []
    if len(got) != len(ref):
        return ["weights have another number of tensors"]
    for idx, (g, r) in enumerate(zip(got, ref)):
        scale = max(abs(r[0]), 1e-300)
        if len(g) != len(r) or not all(_close(a, b, scale) for a, b in zip(g, r)):
            problems.append(f"final weights of tensor {idx} differ from the reference")
    return problems


def _session_check(wl, prep, result, ref: dict):
    got = wl.outputs(prep, result)
    problems = []
    if got["audit"] != ref["audit"]:
        problems.append("audit sequence differs from the reference")
    problems += _check_fingerprints(got["weights"], ref["weights"])
    loss = got["final_loss"]
    if not _close(loss, ref["final_loss"], abs(ref["final_loss"])):
        problems.append(f"final loss {loss!r} != reference {ref['final_loss']!r}")
    return (wl.ops(prep) if problems else 0), loss, problems


# --- mlp-session ---------------------------------------------------------


@dataclass
class MlpPrepared:
    model: object
    bank: object
    events: list
    cfg: SessionConfig
    holdout_x: np.ndarray
    holdout_labels: np.ndarray


class MlpSessionWorkload:
    """``mlp.run_session`` on a 512-512(relu)-2 cross-entropy MLP.

    The teacher, the initial weights, the held-out set and the stream's
    base inputs are fixed; ``k`` seeds a jitter (sd 0.3) added to the
    stream inputs, whose labels come from the teacher. Scores are -1 at ``t % 37 in (0, 1)``, so
    every controller branch fires: append, evict, backup, occasional,
    restore and regular.
    """

    width = 512
    n_events = 200
    batch = 4
    holdout = 256
    jitter = 0.3

    def prepare(self, k: int, scratch: Path) -> MlpPrepared:
        fixed = np.random.default_rng(20211229)
        d = self.width
        teacher = fixed.standard_normal((2, d))
        w1 = fixed.standard_normal((d, d)) * np.sqrt(2.0 / d)
        w2 = fixed.standard_normal((2, d)) * np.sqrt(1.0 / d)
        model = rlsol.MlpModel([Layer(w1, "relu"), Layer(w2)], head=CE_HEAD)
        bank = rlsol.init_bank(model)

        hx = fixed.standard_normal((self.holdout, d))
        hl = np.argmax(hx @ teacher.T, axis=1)
        base = fixed.standard_normal((self.n_events, self.batch, d))
        rng = np.random.default_rng([k, 1])
        events = []
        for t in range(1, self.n_events + 1):
            x = base[t - 1] + self.jitter * rng.standard_normal((self.batch, d))
            y = np.eye(2)[np.argmax(x @ teacher.T, axis=1)]
            score = -1.0 if t % 37 in (0, 1) else 1.0
            events.append(SessionEvent(t, score, rlsol.SampleBlock(x=x, y=y)))
        cfg = SessionConfig(
            regular_cfg=rlsol.GdConfig(1e-4, 1),
            occasional_cfg=rlsol.GdConfig(1e-3, 1),
            memory_capacity=20,
            regular_period=10,
        )
        return MlpPrepared(model, bank, events, cfg, hx, hl)

    def run(self, prep: MlpPrepared):
        return rlsol.run_session(prep.model, prep.bank, prep.events, prep.cfg)

    def steps(self, prep: MlpPrepared) -> int:
        return len(prep.events)

    ops = steps

    @staticmethod
    def loss(weights: list[np.ndarray], x: np.ndarray, labels: np.ndarray) -> float:
        """Mean softmax cross-entropy of the relu MLP, computed here in
        numpy rather than through the library."""
        h = np.maximum(x @ weights[0].T, 0.0)
        z = h @ weights[1].T
        z = z - z.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        return float(-logp[np.arange(len(labels)), labels].mean())

    def outputs(self, prep: MlpPrepared, result) -> dict:
        model, audit = result
        weights = [layer.weight for layer in model.layers]
        return {
            "audit": _audit_digest(audit),
            "weights": [_fingerprint(w, i) for i, w in enumerate(weights)],
            "final_loss": self.loss(weights, prep.holdout_x, prep.holdout_labels),
            "initial_loss": self.loss(
                [layer.weight for layer in prep.model.layers], prep.holdout_x, prep.holdout_labels
            ),
        }

    def check(self, prep, result, ref):
        return _session_check(self, prep, result, ref)


# --- conv-session --------------------------------------------------------


@dataclass
class ConvPrepared:
    layer: object
    state: object
    events: list
    cfg: ConvSessionConfig


class ConvSessionWorkload:
    """``conv.run_conv_session`` with a 64x4x4 kernel (p = 1024).

    Each 18x18 frame is seeded noise plus a fixed 64x4x4 template at a
    fixed position; its target is a Gaussian peak at the matching output
    position (15x15), with unit weights. Updates fire every 20 frames and
    on a hard negative at ``t % 23 == 0``.
    """

    channels, kernel, size = 64, 4, 18
    n_frames = 80
    last = 50
    sigma = 1.5
    noise = 0.25

    def prepare(self, k: int, scratch: Path) -> ConvPrepared:
        c, kk, s = self.channels, self.kernel, self.size
        out = s - kk + 1
        fixed = np.random.default_rng(20211230)
        template = fixed.standard_normal((c, kk, kk))
        peaks = fixed.integers(0, out, size=(self.n_frames, 2))
        rng = np.random.default_rng([k, 2])
        rows, cols = np.mgrid[0:out, 0:out]
        events = []
        for t in range(1, self.n_frames + 1):
            i, j = (int(v) for v in peaks[t - 1])
            data = self.noise * rng.standard_normal((c, s, s))
            data[:, i : i + kk, j : j + kk] += template
            target = np.exp(-((rows - i) ** 2 + (cols - j) ** 2) / (2 * self.sigma**2))
            sample = rlsol.WeightedSample(rlsol.FeatureMap(data), target, np.ones((out, out)))
            events.append(ConvSessionEvent(t, sample, hard_negative=t % 23 == 0))
        layer = rlsol.ConvLayer(np.zeros((c, kk, kk)))
        cfg = ConvSessionConfig(rlsol.GdConfig(1e-6, 5), update_period=20, sample_capacity=50)
        return ConvPrepared(layer, init_conv_state(layer), events, cfg)

    def run(self, prep: ConvPrepared):
        return rlsol.run_conv_session(prep.layer, prep.state, prep.events, prep.cfg)

    def steps(self, prep: ConvPrepared) -> int:
        return len(prep.events)

    ops = steps

    @staticmethod
    def loss(kernel: np.ndarray, samples: list) -> float:
        """Sum of gamma-weighted squared errors of the direct correlation,
        computed here in numpy rather than through ``im2col``."""
        kh, kw = kernel.shape[1:]
        total = 0.0
        for sample in samples:
            windows = np.lib.stride_tricks.sliding_window_view(
                sample.features.data, (kh, kw), axis=(1, 2)
            )
            pred = np.einsum("cijab,cab->ij", windows, kernel)
            total += float(np.sum(sample.gamma * (sample.target - pred) ** 2))
        return total

    def outputs(self, prep: ConvPrepared, result) -> dict:
        layer, audit = result
        samples = [ev.sample for ev in prep.events[-self.last :]]
        return {
            "audit": _audit_digest(audit),
            "weights": [_fingerprint(layer.kernel, 0)],
            "final_loss": self.loss(layer.kernel, samples),
            "initial_loss": self.loss(prep.layer.kernel, samples),
        }

    def check(self, prep, result, ref):
        return _session_check(self, prep, result, ref)


WORKLOADS = {
    "drift-canonical": DriftWorkload(n_seeds=15),
    # p = 256, one sample per block, exact recursion vs the preconditioned
    # stage; everything else canonical
    "drift-wide": DriftWorkload(
        n_seeds=2,
        input_dim=256,
        block_size=1,
        regime_blocks=300,
        learners="exact_rls,rls_precond",
    ),
    "mlp-session": MlpSessionWorkload(),
    "conv-session": ConvSessionWorkload(),
}
