"""The sphloss benchmark workloads, run from outside through the public API.

Every workload builds its inputs with ``data.synthetic_categorical`` (Zipf
exponent 1.0, separation 2.0) from the run's seed and hands the library
only the generated arrays.  A run is a warm-up job followed by measured
jobs until the time budget is spent; a job is one set-up (timed alone)
followed by the workload's unit of work:

- ``train-*``: one ``trainer.train`` call on a 64-128-D rectifier MLP with
  batch size 100.  ``prior_bias_init`` keeps its default ``False``: with
  ``True``, ``trainer.output_init`` gives NaN biases under ``log_taylor``
  for classes absent from the training split (the radicand rounds to
  about -1.1e-16), which the divergence check would report.
- ``layer-stream``: ``FactoredOutputLayer`` alone, fed a closed loop of
  forward_stats -> fixed-xi bound partials from the layer's own (s, q) ->
  backward_h -> sgd_step, then materialized and scored on held-out rows.

End-to-end metrics are medians over the untraced measured jobs.  On a host
whose cores are shared, interpreter-bound code runs up to 2x slower for
seconds to minutes at a time, so the workloads whose time goes mostly to
per-example Python loops (all but train-dense) give their times in
reference seconds: each job's wall times scaled by the speed of a fixed
pure-Python loop (``cpu_probe``) timed just before and just after the job,
relative to ``REF_PROBE_S``.  train-dense spends its time in BLAS, which
those slow spells barely touch and the probe does not track, so it gives
wall seconds.  The raw times and probe readings stay in the run's record.

- ``setup_s``: data generation and split, plus the layer's construction on
  layer-stream.
- ``train_examples_per_s``: training examples over (``trainer.train`` wall
  minus time inside ``trainer.evaluate``); on layer-stream, steps over the
  stream's wall time, rebases included.
- ``eval_examples_per_s``: rows through ``trainer.evaluate`` over the time
  inside it; on layer-stream, held-out rows over materialize plus scoring.
- ``test_negll``: ``RunMetrics.test_negll``; on layer-stream, the
  log-softmax negll of the test rows.
- ``peak_rss_mb``: the process's peak resident set, read before the
  lockstep check allocates its dense reference.

Correctness checks run on every job, outside the timed parts.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from sphloss import bound, data, losses, trainer
from sphloss.fast_output import DenseOutputLayer, FactoredOutputLayer, StepPartials

from spans import TARGETS, Tracer

clock = time.perf_counter

INPUT_DIM = 64
HIDDEN = 128
ZIPF = 1.0
SEPARATION = 2.0
BATCH = 100
WARMUP_JOBS = 1
MIN_JOBS = 3
# layer-stream: at lr 0.01 the mixer's condition estimate crosses the
# layer's 1e8 threshold about every 280 steps, so rebases run in every job
STREAM_LR = 0.01
STREAM_XI = 1.0
STREAM_W0_SCALE = 0.01
EVAL_CHUNK = 50  # held-out rows per (rows x D) logit block in layer-stream
# exact in real arithmetic; anything above this is a defect, not rounding
EXACTNESS_TOL = 1e-9
# cpu_probe's loop length and its time at reference speed, about its median
# on a shared 2-vCPU x86-64 host; the probe touches no sphloss code, so a
# change to the library cannot move it
PROBE_ITERS = 200_000
REF_PROBE_S = 0.020


def cpu_probe() -> float:
    """Seconds for a fixed interpreter-bound loop: the host's current speed."""
    t0 = clock()
    acc = 0
    for i in range(PROBE_ITERS):
        acc += i * i % 7
    return clock() - t0


@dataclass(frozen=True)
class TrainSize:
    D: int
    train_n: int
    held_n: int  # rows in each of the valid and test splits
    epochs: int


@dataclass(frozen=True)
class StreamSize:
    D: int
    d: int
    steps: int
    held_n: int
    lockstep_steps: int


FULL_SIZES = {
    "train-factored": TrainSize(D=20_000, train_n=1000, held_n=200, epochs=2),
    "train-dense": TrainSize(D=20_000, train_n=1000, held_n=200, epochs=2),
    "train-bound": TrainSize(D=2000, train_n=1000, held_n=200, epochs=2),
    "layer-stream": StreamSize(D=100_000, d=128, steps=1000, held_n=100, lockstep_steps=20),
}

TINY_SIZES = {
    "train-factored": TrainSize(D=200, train_n=400, held_n=100, epochs=2),
    "train-dense": TrainSize(D=200, train_n=400, held_n=100, epochs=2),
    "train-bound": TrainSize(D=200, train_n=400, held_n=100, epochs=2),
    "layer-stream": StreamSize(D=500, d=16, steps=300, held_n=50, lockstep_steps=20),
}


@dataclass
class Job:
    setup_s: float
    wall_s: float  # set-up plus the unit of work
    train_s: float
    train_examples: int
    eval_s: float
    eval_rows: int
    test_negll: float
    attempted: int
    failed: int = 0
    probe_s: Optional[float] = None  # mean cpu_probe time around the job
    # the job's times in seconds times this are its reported times: host
    # speed relative to the reference on probe-scaled workloads, else 1
    speed: float = 1.0
    problems: List[str] = field(default_factory=list)
    step_s: Optional[np.ndarray] = None
    gram_drift: Optional[float] = None
    spans: Optional[Dict[str, Dict[str, float]]] = None
    span_log: Optional[list] = None
    layer_counts: Optional[Dict[str, int]] = None

    @property
    def failed_ops(self) -> int:
        """Operations counted as failed: the job's own count, or all of them
        when a whole-job check failed."""
        return self.attempted if self.problems and not self.failed else self.failed


def rel_err(x: np.ndarray, ref: np.ndarray) -> float:
    scale = float(np.max(np.abs(ref)))
    return float(np.max(np.abs(x - ref))) / (scale if scale > 0 else 1.0)


def gram_drift(layer: FactoredOutputLayer, W: np.ndarray) -> float:
    """||cached gram - W'W|| / ||W'W|| for the matrix W the layer represents."""
    G = W.T @ W
    return float(np.linalg.norm(layer.gram - G) / np.linalg.norm(G))


def _synthetic_splits(D: int, input_dim: int, train_n: int, held_n: int, seed: int):
    ds = data.synthetic_categorical(
        D=D, input_dim=input_dim, N=train_n + 2 * held_n,
        zipf_exponent=ZIPF, seed=seed, separation=SEPARATION,
    )
    return data.random_split(ds, data.SplitSpec(train_n, held_n, held_n, seed=seed))


class TrainWorkload:
    def __init__(self, loss_kind: str, output_layer: str, size: TrainSize,
                 probe_scaled: bool = True):
        self.loss_kind = loss_kind
        self.output_layer = output_layer
        self.size = size
        self.probe_scaled = probe_scaled

    def setup(self, seed: int):
        return _synthetic_splits(self.size.D, INPUT_DIM, self.size.train_n,
                                 self.size.held_n, seed)

    def run(self, inputs, seed: int, tracer: Tracer) -> Job:
        spec = trainer.MLPSpec(INPUT_DIM, (HIDDEN,), self.size.D)
        cfg = trainer.TrainConfig(
            loss_kind=self.loss_kind, output_layer=self.output_layer,
            batch_size=BATCH, max_epochs=self.size.epochs, seed=seed,
        )
        splits = tuple((s.features, s.labels) for s in inputs)
        t0 = clock()
        m = trainer.train(spec, cfg, splits)
        wall = clock() - t0
        eval_s = tracer.total_s("trainer.evaluate")
        job = Job(
            setup_s=0.0, wall_s=wall, train_s=wall - eval_s,
            train_examples=m.epochs_run * self.size.train_n,
            eval_s=eval_s, eval_rows=int(tracer.counts["trainer.evaluate"]),
            test_negll=m.test_negll,
            attempted=self.size.epochs * math.ceil(self.size.train_n / BATCH),
        )
        if m.diverged:
            job.problems.append(f"diverged: {m.diagnostic}")
        values = (job.train_s, job.eval_s, m.test_negll, m.test_error)
        if not all(math.isfinite(v) for v in values):
            job.problems.append(f"non-finite result {values}")
        elif not m.test_negll < math.log(self.size.D):
            # the zero-initialized output layer predicts uniformly, at ln D
            job.problems.append(
                f"test_negll {m.test_negll:.4f} not below ln D = {math.log(self.size.D):.4f}")
        return job

    def after(self, job: Job, layers: List[FactoredOutputLayer]):
        """Reads the trainer's factored layer, once tracing has stopped."""
        if layers:
            job.gram_drift = max(gram_drift(l, l.materialize().W) for l in layers)

    def finish(self, inputs) -> Dict[str, float]:
        return {}


def stream_partials(st, D: int, c: int, h: np.ndarray) -> StepPartials:
    a, bq, g = bound.batch_bound_partials(np.array([st.s]), np.array([st.q]), D, xi=STREAM_XI)
    return StepPartials(a=float(a[0]), bq=float(bq[0]), g=float(g[0]), c=c, h=h)


@dataclass
class StreamInputs:
    H: np.ndarray  # (steps, d) rectified stream inputs
    y: np.ndarray
    held: list  # [(H, y)] for the valid and test splits; test last
    W0: np.ndarray
    layer: FactoredOutputLayer


class StreamWorkload:
    probe_scaled = True

    def __init__(self, size: StreamSize):
        self.size = size

    def setup(self, seed: int) -> StreamInputs:
        s = self.size
        tr, va, te = _synthetic_splits(s.D, s.d, s.steps, s.held_n, seed)
        W0 = np.random.default_rng(seed).normal(scale=STREAM_W0_SCALE, size=(s.D, s.d))
        relu = lambda split: np.maximum(split.features, 0.0)
        return StreamInputs(H=relu(tr), y=tr.labels,
                            held=[(relu(va), va.labels), (relu(te), te.labels)],
                            W0=W0, layer=FactoredOutputLayer(W0))

    def run(self, inputs: StreamInputs, seed: int, tracer: Tracer) -> Job:
        layer, D = inputs.layer, self.size.D
        n = inputs.H.shape[0]
        step_s = np.empty(n)
        stats = np.empty((n, 3))
        t_start = clock()
        for i in range(n):
            t0 = clock()
            h, c = inputs.H[i], int(inputs.y[i])
            st = layer.forward_stats(h, c)
            p = stream_partials(st, D, c, h)
            layer.backward_h(p)
            layer.sgd_step(p, STREAM_LR)
            step_s[i] = clock() - t0
            stats[i] = st.s, st.q, st.o_c
        train_s = clock() - t_start

        t0 = clock()
        W = layer.materialize().W
        negll = []
        for H, y in inputs.held:
            negll.append(np.concatenate([
                losses.batch_negll("spherical_bound_fixed",
                                   H[lo:lo + EVAL_CHUNK] @ W.T, y[lo:lo + EVAL_CHUNK])
                for lo in range(0, len(y), EVAL_CHUNK)
            ]))
        eval_s = clock() - t0

        bad = int((~np.isfinite(stats).all(axis=1)).sum())
        job = Job(
            setup_s=0.0, wall_s=train_s + eval_s, train_s=train_s, train_examples=n,
            eval_s=eval_s, eval_rows=sum(len(y) for _, y in inputs.held),
            test_negll=float(negll[-1].mean()), attempted=n, failed=bad,
            step_s=step_s, gram_drift=gram_drift(layer, W),
        )
        if bad:
            job.problems.append(f"{bad} of {n} steps gave non-finite statistics")
        if not math.isfinite(job.test_negll) or not job.test_negll < math.log(D):
            job.problems.append(f"test_negll {job.test_negll} not below ln D = {math.log(D):.4f}")
        if not job.gram_drift <= EXACTNESS_TOL:
            job.problems.append(f"gram drift {job.gram_drift:.3g} above {EXACTNESS_TOL}")
        return job

    def after(self, job: Job, layers: List[FactoredOutputLayer]):
        pass

    def finish(self, inputs: StreamInputs) -> Dict[str, float]:
        """Lockstep check against DenseOutputLayer over a prefix of the
        stream, each layer closing the loop on its own statistics.  The dense
        step (stats, partials, dL/dh, update) is timed as the O(D*d)
        reference for the factored step."""
        D, k = self.size.D, self.size.lockstep_steps
        fac = FactoredOutputLayer(inputs.W0)
        den = DenseOutputLayer(inputs.W0)
        errs, dense_s = [], []
        for i in range(k):
            h, c = inputs.H[i], int(inputs.y[i])
            p = stream_partials(fac.forward_stats(h, c), D, c, h)
            dh_fac = fac.backward_h(p)
            fac.sgd_step(p, STREAM_LR)

            t0 = clock()
            p = stream_partials(den.forward_stats(h, c), D, c, h)
            grad_o = p.a + 2.0 * p.bq * (den.W @ h)
            grad_o[c] += p.g
            dh_den = den.W.T @ grad_o
            den.sgd_step(p, STREAM_LR)
            dense_s.append(clock() - t0)
            errs.append(rel_err(dh_fac, dh_den))
        errs.append(rel_err(fac.materialize().W, den.W))
        fac.rebase()
        errs.append(rel_err(fac.materialize().W, den.W))
        return {
            "lockstep_rel_err": max(errs),
            "dense_step_us_p50": statistics.median(dense_s) * 1e6,
            "lockstep_steps": k,
        }


def make_workload(name: str, sizes=None):
    size = (sizes or FULL_SIZES)[name]
    if name == "train-factored":
        return TrainWorkload("log_taylor", "factored", size)
    if name == "train-dense":
        # BLAS-bound: scaling by the interpreter probe widened its run-to-run
        # spread from 6-8% to 10-15% over ten seeds
        return TrainWorkload("log_taylor", "dense", size, probe_scaled=False)
    if name == "train-bound":
        return TrainWorkload("spherical_bound_optimized", "dense", size)
    if name == "layer-stream":
        return StreamWorkload(size)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = tuple(FULL_SIZES)


def run_job(wl, seed: int, traced: bool):
    """One set-up and unit of work; returns the Job and the set-up's inputs."""
    if traced:
        tracer = Tracer(TARGETS, capture_layers=True)
    else:
        # trainer.evaluate alone, about once per epoch, so training time
        # can exclude evaluation
        tracer = Tracer(["trainer.evaluate"] if isinstance(wl, TrainWorkload) else [])
    probe_s = cpu_probe()
    with tracer:
        t0 = clock()
        inputs = wl.setup(seed)
        setup_s = clock() - t0
        job = wl.run(inputs, seed, tracer)
    job.probe_s = (probe_s + cpu_probe()) / 2
    if wl.probe_scaled:
        job.speed = REF_PROBE_S / job.probe_s
    job.setup_s = setup_s
    job.wall_s += setup_s
    if traced:
        job.spans = tracer.summary()
        job.layer_counts = {
            "rebase_count": sum(l.rebase_count for l in tracer.layers),
            "op_count": sum(l.op_count for l in tracer.layers),
        }
        wl.after(job, tracer.layers)
        job.span_log = list(tracer.spans)
    return job, inputs


@dataclass
class RunResult:
    jobs: List[Job]  # measured jobs, warm-up excluded
    warmup: List[Job]
    finish: Dict[str, float]
    peak_rss_mb: float
    problems: List[str]

    @property
    def attempted(self) -> int:
        lockstep = int(self.finish.get("lockstep_steps", 0))
        return sum(j.attempted for j in self.jobs + self.warmup) + lockstep

    @property
    def failed(self) -> int:
        return sum(j.failed_ops for j in self.jobs + self.warmup)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name: str, seed: int, seconds: float, trace: bool, sizes=None) -> RunResult:
    """Warm-up, then measured jobs while the next one is expected to end
    within ``seconds``, and at least MIN_JOBS.  With ``trace`` the measured
    jobs alternate untraced and traced, so both sides of the overhead ratio
    come from the same run."""
    wl = make_workload(name, sizes)
    warmup = [run_job(wl, seed, traced=False)[0] for _ in range(WARMUP_JOBS)]
    jobs: List[Job] = []
    t_start = clock()
    while len(jobs) < MIN_JOBS or (
            clock() - t_start + statistics.median(j.wall_s for j in jobs) < seconds):
        inputs = None  # let the previous job's arrays go before the next set-up
        job, inputs = run_job(wl, seed, traced=trace and len(jobs) % 2 == 1)
        jobs.append(job)
    rss = peak_rss_mb()
    finish = wl.finish(inputs)
    problems = [f"job {i}: {p}" for i, j in enumerate(warmup + jobs) for p in j.problems]
    if "lockstep_rel_err" in finish and not finish["lockstep_rel_err"] <= EXACTNESS_TOL:
        problems.append(
            f"factored layer differs from the dense reference by {finish['lockstep_rel_err']:.3g}")
    return RunResult(jobs=jobs, warmup=warmup, finish=finish, peak_rss_mb=rss,
                     problems=problems)


def end_to_end_metrics(r: RunResult) -> Dict[str, tuple]:
    jobs = [j for j in r.jobs if j.spans is None]
    med = statistics.median
    return {
        "setup_s": (med([j.setup_s * j.speed for j in jobs]), "s"),
        "train_examples_per_s": (
            med([j.train_examples / (j.train_s * j.speed) for j in jobs]), "examples/s"),
        "eval_examples_per_s": (med([j.eval_rows / (j.eval_s * j.speed) for j in jobs]), "rows/s"),
        "test_negll": (med([j.test_negll for j in jobs]), "nats"),
        "peak_rss_mb": (r.peak_rss_mb, "MB"),
    }


# (span name, summary field, metric name suffix, unit); "s" is inclusive
# time, "self_s" excludes wrapped callees (sgd_step's nested rebase)
SPAN_METRICS = (
    ("fast_output.forward_stats", "s", "s", "s"),
    ("fast_output.forward_stats", "calls", "calls", "count"),
    ("fast_output.backward_h", "s", "s", "s"),
    ("fast_output.backward_h", "calls", "calls", "count"),
    ("fast_output.sgd_step", "self_s", "self_s", "s"),
    ("fast_output.sgd_step", "calls", "calls", "count"),
    ("fast_output.rebase", "s", "s", "s"),
    ("fast_output.rebase", "calls", "calls", "count"),
    ("fast_output.materialize", "s", "s", "s"),
    ("losses.batch_loss_grad", "s", "s", "s"),
    ("losses.batch_loss_grad", "calls", "calls", "count"),
    ("losses.batch_negll", "s", "s", "s"),
    ("losses.batch_scores", "s", "s", "s"),
    ("bound.batch_bound_loss_grad", "s", "s", "s"),
    ("bound.batch_bound_partials", "s", "s", "s"),
    ("bound.golden_section_minimize", "calls", "calls", "count"),
    ("trainer.train", "s", "s", "s"),
    ("trainer.evaluate", "s", "s", "s"),
    ("trainer.evaluate", "count", "rows", "count"),
    ("trainer.MLP.forward", "s", "s", "s"),
    ("trainer.MLP.backward", "s", "s", "s"),
    ("trainer.MLP.backward_hidden_from_dh", "s", "s", "s"),
    ("trainer.nesterov_step", "s", "s", "s"),
    ("data.synthetic_categorical", "s", "s", "s"),
    ("data.random_split", "s", "s", "s"),
)


def per_layer_metrics(r: RunResult) -> Dict[str, tuple]:
    """Per-job means over the traced jobs; step latencies and the overhead
    base come from the untraced jobs of the same run."""
    traced = [j for j in r.jobs if j.spans is not None]
    plain = [j for j in r.jobs if j.spans is None]
    n = len(traced)
    out: Dict[str, tuple] = {}
    for span, fld, suffix, unit in SPAN_METRICS:
        total = sum(j.spans.get(span, {}).get(fld, 0.0) for j in traced)
        out[f"{span}.{suffix}"] = (total / n, unit)
    for key in ("rebase_count", "op_count"):
        out[f"fast_output.{key}"] = (sum(j.layer_counts[key] for j in traced) / n, "count")
    drifts = [j.gram_drift for j in traced if j.gram_drift is not None]
    out["fast_output.gram_drift"] = (max(drifts) if drifts else 0.0, "ratio")
    steps = np.concatenate([j.step_s for j in plain if j.step_s is not None] or [np.zeros(1)])
    out["fast_output.step_us_p50"] = (float(np.percentile(steps, 50)) * 1e6, "us")
    out["fast_output.step_us_p99"] = (float(np.percentile(steps, 99)) * 1e6, "us")
    out["fast_output.step_us_mean"] = (float(steps.mean()) * 1e6, "us")
    out["fast_output.lockstep_rel_err"] = (r.finish.get("lockstep_rel_err", 0.0), "ratio")
    out["fast_output.dense_step_us_p50"] = (r.finish.get("dense_step_us_p50", 0.0), "us")
    out["trace.overhead_frac"] = (
        statistics.median(j.wall_s * j.speed for j in traced)
        / statistics.median(j.wall_s * j.speed for j in plain) - 1.0, "ratio")
    return out
