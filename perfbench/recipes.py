"""Workload recipes: the ``sdfm`` command sequences the benchmark times.

Every workload runs the same command list, so each workload reports every
end-to-end metric; the sizes differ, so each workload puts most of its time
into a different layer:

* ``desk-2d``     -- eight-gaussians, N=4096, d=2, eps=0. The solver step
  (B x N score block, argmax) dominates; eval W2 goes through the Python
  Hungarian solver. The eps>0 softmax path is never taken.
* ``highdim-eps`` -- gaussian-blob, N=16384, d=32, eps=0.1 (rescaled). The
  eps>0 softmax/exp path, BLAS-bound matmuls at d=32 and per-row Philox
  draws while pairing. The solver's stopping checks run ``semidual_value``
  on a dense 4096 x N block, which sets the peak RSS (about 2.2 GB).

All command seeds derive from the workload seed, so the same seed gives the
same inputs and, by the CLI's determinism contract, byte-identical artifact
payloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

WORKLOADS = ("desk-2d", "highdim-eps")

# Recipe step label -> end-to-end metric fed by its wall time.
STEP_METRICS = {
    "solve": "solve_s",
    "chisq": "chisq_s",
    "assign": "assign_us_per_pair",
    "train_ifm": "train_ifm_s",
    "train_sd": "train_sd_s",
    "train_sinkhorn": "train_sinkhorn_s",
    "train_hungarian": "train_hungarian_s",
    "sample": "sample_s",
    "eval": "eval_s",
    "guide": "guide_s",
}

# Labels of the commands traced as ``cli.<label>`` spans.
CLI_LABELS = ("dataset",) + tuple(STEP_METRICS)

# Per-workload sizes. ``full`` is what the benchmark measures; ``tiny`` is
# the warm-up pass and the smoke test. Iteration budgets are fixed, so
# solve always stops on its budget (exit 3). ``train`` maps a model to
# (steps, batch); ``samples`` and ``eval`` are (model, count, solver, steps);
# ``guide`` is (model1, model2, draws, steps); ``w2`` is the size of the W2
# reference set, or None for no W2.
_SIZES = {
    "desk-2d": {
        "full": dict(
            data=("eight-gaussians", 4096, 2), w2=520,
            solve=["--eps", "0", "--lr", "0.5", "--iters", "80",
                   "--batch", "1024", "--chi2-samples", "8192"],
            chisq=24576, assign=24576, hidden=[64, 64, 64],
            train=dict(ifm=(200, 256), sd=(200, 256),
                       sinkhorn=(6, 256), hungarian=(12, 128)),
            ot_eps="0.3",
            samples=[("ifm", 32768, "euler", 4), ("sd", 520, "euler", 4)],
            eval=("sd", 65536, "euler", 4), guide=("sd", "ifm", 64, 64),
        ),
        "tiny": dict(
            data=("eight-gaussians", 256, 2), w2=128,
            solve=["--eps", "0", "--lr", "0.5", "--iters", "8",
                   "--batch", "64", "--chi2-samples", "256"],
            chisq=256, assign=256, hidden=[16, 16],
            train=dict(ifm=(60, 64), sd=(60, 64),
                       sinkhorn=(2, 64), hungarian=(2, 64)),
            ot_eps="0.3",
            samples=[("ifm", 256, "euler", 4), ("sd", 128, "euler", 4)],
            eval=("sd", 64, "euler", 4), guide=("sd", "ifm", 4, 8),
        ),
    },
    "highdim-eps": {
        "full": dict(
            data=("gaussian-blob", 16384, 32), w2=None,
            solve=["--eps", "0.1", "--lr", "1", "--iters", "20",
                   "--batch", "256", "--chi2-samples", "1024"],
            chisq=1536, assign=1536, hidden=[128, 128, 128],
            train=dict(ifm=(150, 128), sd=(10, 128),
                       sinkhorn=(16, 256), hungarian=(12, 128)),
            ot_eps="4",
            samples=[("sd", 3072, "rk4", 8)],
            eval=("sd", 3072, "rk4", 8), guide=("sd", "ifm", 128, 32),
        ),
        "tiny": dict(
            data=("gaussian-blob", 256, 8), w2=None,
            solve=["--eps", "0.1", "--lr", "1", "--iters", "8",
                   "--batch", "64", "--chi2-samples", "256"],
            chisq=256, assign=64, hidden=[16, 16],
            train=dict(ifm=(10, 32), sd=(4, 32),
                       sinkhorn=(2, 64), hungarian=(2, 64)),
            ot_eps="4",
            samples=[("sd", 64, "rk4", 4)],
            eval=("sd", 64, "rk4", 4), guide=("sd", "ifm", 4, 8),
        ),
    },
}

# Paper claim checked on each workload: (straighter model, baseline model),
# both trained with the same steps, batch and seed; the curvatures come from
# the Euler-4 sample sidecars. Only desk-2d trains both models equally:
# highdim-eps affords 10 SD steps against 150 I-FM steps, and the
# comparison would not test the coupling.
CURVATURE_CLAIMS = {"desk-2d": ("sd", "ifm")}

_COUPLINGS = {"ifm": "independent", "sd": "sd",
              "sinkhorn": "minibatch-sinkhorn",
              "hungarian": "minibatch-hungarian"}


# Seconds budgeted per full-size repetition (about one repetition on a
# 2-core x86 box). A run makes max(2, seconds // budget) repetitions, so
# the work per run is fixed by --seconds and two versions of the code are
# compared on equal work.
NOMINAL_REP_S = {"desk-2d": 10, "highdim-eps": 10}


@dataclass
class Step:
    """One ``sdfm`` command of a recipe."""

    label: str  # recipe step label (a key of STEP_METRICS, or "dataset")
    argv: list
    expect_rc: int = 0
    outputs: dict = field(default_factory=dict)  # artifact name -> path
    pairs: int = 0  # assign only: noise rows paired


@dataclass
class Recipe:
    n_data: int
    datasets: list  # setup steps: the data (and W2 reference) sets
    steps: list
    curvature_claim: Optional[tuple]


def build(workload: str, seed: int, scale: str, workdir: str) -> Recipe:
    """Command list of ``workload`` for workload seed ``seed``.

    Artifacts go under ``workdir``. Command seeds are ``100 * seed + k``
    with a fixed offset ``k`` per command.
    """
    if workload not in _SIZES:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    p = _SIZES[workload][scale]

    def path(name):
        return f"{workdir}/{name}"

    def sd(k):
        return str(100 * seed + k)

    data = path("data.sdfm")
    pot = path("pot.sdfm")
    name, n, d = p["data"]
    datasets = [Step("dataset", ["dataset", "--name", name, "--n", str(n),
                                 "--d", str(d), "--seed", sd(0), "--out", data],
                     outputs={"data": data})]
    if p["w2"]:
        datasets.append(Step(
            "dataset", ["dataset", "--name", name, "--n", str(p["w2"]),
                        "--d", str(d), "--seed", sd(1), "--out", path("ref.sdfm")],
            outputs={"ref": path("ref.sdfm")}))

    steps = [
        Step("solve", ["solve", "--data", data, *p["solve"], "--seed", sd(2),
                       "--out", pot], expect_rc=3, outputs={"potential": pot}),
        Step("chisq", ["chisq", "--potential", pot, "--data", data,
                       "--samples", str(p["chisq"]), "--seed", sd(3)]),
        Step("assign", ["assign", "--potential", pot, "--data", data,
                        "--sample", str(p["assign"]), "--seed", sd(4),
                        "--out", path("pairs.sdfm")],
             outputs={"pairs": path("pairs.sdfm")}, pairs=p["assign"]),
    ]
    hidden = [str(h) for h in p["hidden"]]
    for model, coupling in _COUPLINGS.items():
        n_steps, batch = p["train"][model]
        argv = ["train", "--data", data, "--coupling", coupling,
                "--steps", str(n_steps), "--batch", str(batch),
                "--hidden", *hidden, "--seed", sd(5), "--out", path(f"{model}.sdfm")]
        if coupling == "sd":
            argv += ["--potential", pot]
        if coupling == "minibatch-sinkhorn":
            argv += ["--ot-eps", p["ot_eps"]]
        steps.append(Step("train_" + model, argv,
                          outputs={model: path(f"{model}.sdfm")}))
    w2_samples = None
    for model, count, solver, n_steps in p["samples"]:
        prefix = path(f"sample_{model}")
        steps.append(Step("sample", ["sample", "--model", path(f"{model}.sdfm"),
                                     "--count", str(count), "--solver", solver,
                                     "--steps", str(n_steps), "--seed", sd(6),
                                     "--out", prefix],
                          outputs={f"sample_{model}": prefix + ".bin"}))
        if count == p["w2"]:
            w2_samples = prefix + ".bin"
    model, count, solver, n_steps = p["eval"]
    argv = ["eval", "--model", path(f"{model}.sdfm"), "--count", str(count),
            "--solver", solver, "--steps", str(n_steps), "--seed", sd(7),
            "--out", path("report.json")]
    if p["w2"]:
        # W2 between the sample dump of the reference's size and the reference.
        argv += ["--samples", w2_samples, "--reference", path("ref.sdfm")]
    steps.append(Step("eval", argv, outputs={"report": path("report.json")}))
    m1, m2, count, n_steps = p["guide"]
    steps.append(Step("guide", ["guide", "--model1", path(f"{m1}.sdfm"),
                                "--model2", path(f"{m2}.sdfm"), "--gamma", "2",
                                "--replicas", "16", "--count", str(count),
                                "--steps", str(n_steps), "--seed", sd(8),
                                "--out", path("guide")],
                      outputs={"guide": path("guide.bin")}))
    return Recipe(n, datasets, steps, CURVATURE_CLAIMS.get(workload))
