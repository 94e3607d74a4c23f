"""The benchmark's workloads: their operations, seeded inputs and oracles.

An operation drives edgekit through a public entry point only:
`edgekit.harness.scenario.run_scenario` for the scenario workloads and
`edgekit.harness.cli.main` for cli-scale. Each call writes into a fresh
directory; the operation's check reads what was written.
"""

import contextlib
import functools
import hashlib
import io
import os

import numpy as np

from edgekit.harness import cli, scenario
from edgekit.models import MarkovChainSpec, builtin_model, save_chain_spec

import oracles

_TINY_PRESETS = {
    "rademacher-be": "model = builtin:rademacher\nm = 3\nn = 8,16,32,64\n",
    "elliptic2-stationary": "model = builtin:elliptic2\nm = 4\nr = 1\nn = 8,16,32,64\n",
    "uniform-edgeworth": "model = builtin:uniform\nm = 4\nr = 1\nn = 2,4\np = 1\nq = 2\n",
}


class Op:
    """One timed call into edgekit plus the check of what it wrote."""

    def __init__(self, name, label, call, check):
        self.name = name
        self.label = label
        self._call = call
        self._check = check
        self.stderr = ""

    def run(self, outdir):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = self._call(outdir)
        self.stderr = err.getvalue().strip()
        return code

    def refusal(self, code):
        """Why a nonzero exit code came back: the last line edgekit wrote to stderr."""
        last = self.stderr.splitlines()[-1] if self.stderr else ""
        return "exit code %r, expected 0%s" % (code, ": " + last if last else "")

    def check(self, outdir):
        """None if what the call wrote is right, else the reason it is not."""
        return self._check(outdir) if self._check else None


def output_digest(outdir):
    """sha256 over the names and bytes of every file an operation wrote."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(outdir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(outdir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _scenario_op(preset, size):
    if size == "tiny":
        config = scenario.parse_scenario_text(_TINY_PRESETS[preset], source="tiny:" + preset)
    else:
        config = scenario.load_scenario(preset)

    def call(outdir):
        # looked up at call time so a traced run sees the rebound function
        return scenario.run_scenario(config, out=outdir).exit_code

    return Op(preset, "run_scenario(%s)" % preset, call, None)


def _cli_op(name, argv, check):
    def call(outdir):
        return cli.main(list(argv) + ["--out", os.path.join(outdir, "out.csv")])

    def check_file(outdir):
        return check(os.path.join(outdir, "out.csv"))

    label = " ".join(os.path.basename(a) if os.path.isabs(a) else a for a in argv)
    return Op(name, "edgekit " + label, call, check_file)


def random_chain(seed, states, steps):
    """Homogeneous chain with Dirichlet(1) rows and integer observables.

    Observables f(x, y) are drawn from {-2, ..., 2} with -2, 2 and 1
    always present, so the lattice step is 1 and the support after n
    steps spans 4n + 1 cells for every seed: the work per step is fixed
    and only the probabilities change with the seed.
    """
    rng = np.random.Generator(np.random.PCG64([seed, states]))
    initial = rng.dirichlet(np.ones(states))
    kernel = rng.dirichlet(np.ones(states), size=states)
    kernel /= kernel.sum(axis=1, keepdims=True)
    obs = rng.integers(-2, 3, size=(states, states)).astype(float)
    obs.flat[:3] = (-2.0, 2.0, 1.0)
    return MarkovChainSpec.homogeneous(initial, kernel, obs, steps, name="chain%d" % states)


def _cli_ops(size, seed, workdir):
    tiny = size == "tiny"
    n_e, n_c, n_s = (256, 256, 256) if tiny else (4096, 8192, 8192)
    n_rc, n_rx = (128, 128) if tiny else (4096, 2048)
    n_64, n_32 = (8, 16) if tiny else (256, 256)
    n_u = 8 if tiny else 64

    chain64 = os.path.join(workdir, "chain64.txt")
    chain32 = os.path.join(workdir, "chain32.txt")
    spec32 = random_chain(seed, 32, n_32)
    save_chain_spec(random_chain(seed, 64, n_64), chain64)
    save_chain_spec(spec32, chain32)

    def rademacher(n, kmax):
        return [n * k for k in oracles.rademacher_cumulants(kmax)]

    def elliptic_exact():
        kap = list(oracles.chain_cumulant_profile(builtin_model("elliptic2").spec(n_c), 8)[-1])
        kap[0] = 0.0  # the model is centered
        return kap

    # reference values are computed on first use, outside any timed region
    elliptic = functools.cache(elliptic_exact)
    profile32 = functools.cache(lambda: oracles.chain_cumulant_profile(spec32, 2))

    return [
        _cli_op("dist-elliptic2", ["dist", "--model", "builtin:elliptic2", "--n", str(n_e)],
                lambda p: oracles.check_lattice_law(p, n_e, 2, 0.6)),
        _cli_op("cumulants-elliptic2",
                ["cumulants", "--model", "builtin:elliptic2", "--n", str(n_c), "--m", "8"],
                lambda p: oracles.check_cumulants(p, n_c, 2, n_c + 1, elliptic())),
        _cli_op("dist-symmetric2", ["dist", "--model", "builtin:symmetric2", "--n", str(n_s)],
                lambda p: oracles.check_lattice_law(p, n_s, 2, 2.0)),
        _cli_op("cumulants-rademacher",
                ["cumulants", "--model", "builtin:rademacher", "--n", str(n_rc), "--m", "8"],
                lambda p: oracles.check_cumulants(p, n_rc, 2, n_rc + 1, rademacher(n_rc, 8))),
        _cli_op("expand-rademacher",
                ["expand", "--model", "builtin:rademacher", "--n", str(n_rx), "--m", "16"],
                lambda p: oracles.check_expansion(p, n_rx, 2, n_rx + 1, rademacher(n_rx, 16))),
        _cli_op("dist-chain64", ["dist", "--model", chain64, "--n", str(n_64)],
                lambda p: oracles.check_lattice_law(p, n_64, 64, 4.0)),
        _cli_op("couple-chain32", ["couple", "--model", chain32, "--n", str(n_32)],
                lambda p: oracles.check_blocking(p, n_32, 32, 4.0, profile32())),
        _cli_op("dist-uniform", ["dist", "--model", "builtin:uniform", "--n", str(n_u)],
                lambda p: oracles.check_piecewise_law(p, n_u)),
    ]


def build(workload, size, seed, workdir):
    """The workload's operations, with their inputs generated under `workdir`."""
    if workload == "scenario-lattice":
        return [_scenario_op(p, size) for p in ("rademacher-be", "elliptic2-stationary")]
    if workload == "scenario-iid":
        return [_scenario_op("uniform-edgeworth", size)]
    if workload == "cli-scale":
        return _cli_ops(size, seed, workdir)
    raise ValueError("unknown workload %r" % workload)
