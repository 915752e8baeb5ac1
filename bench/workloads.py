"""The four benchmark workloads.

Each workload draws its free inputs from the seed in ``setup`` and returns
a list of ops for one job; ``job_s`` is one job's scaled seconds at the seed
code, from which a run's job count follows.  An op is a ``(op_id, fn)`` pair; ``fn()``
returns when its output passed the workload's check and raises
``OpFailure`` when it did not.  Symflow is reached only through its public
API and ``symflow.cli.main``, looked up at call time so that the traced run
sees the wrapped names.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import symflow as sf
import symflow.cli as cli


class OpFailure(Exception):
    """An op's output missed its check (``wrong``) or it was refused."""

    def __init__(self, reason: str, wrong: bool = True):
        super().__init__(reason)
        self.wrong = wrong


def check(ok: bool, reason: str) -> None:
    if not ok:
        raise OpFailure(reason)


def run_cli(argv) -> tuple:
    """``symflow.cli.main`` in-process, with its console output captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def run_cli_ok(argv) -> str:
    code, out, err = run_cli(argv)
    if code != 0:
        # exit 1/2 carry a structured refusal, not a wrong answer
        raise OpFailure(f"exit {code}: {err.strip()}", wrong=False)
    return out


def write_doc(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc))
    return path


def read_csv_rows(path: Path) -> list:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def interleave(groups) -> list:
    """Round-robin over groups of ops.  Machine speed drifts during a run;
    interleaving spreads every kind of op over the whole run, so that a
    latency percentile does not depend on when one kind happened to run."""
    rounds = itertools.zip_longest(*groups)
    return [op for batch in rounds for op in batch if op is not None]


def full_shift() -> sf.Sft:
    return sf.Sft(np.ones((2, 2), dtype=int))


def golden_shift() -> sf.Sft:
    return sf.Sft([[1, 1], [1, 0]])


def bernoulli(sft: sf.Sft, p) -> sf.InvariantMeasure:
    Q = np.tile(np.asarray(p, dtype=float), (sft.k, 1))
    return sf.InvariantMeasure.single(sf.MarkovComponent(sft, 1, [(a,) for a in range(sft.k)], Q))


def golden_g3(golden: sf.Sft) -> sf.LocallyConstantFunction:
    """g = 1_[1] + 0.5 1_[11] - 0.3 1_[101]; the 11 term is empty on golden."""

    def value(w):
        return (w[0] == 1) + 0.5 * (w[:2] == (1, 1)) - 0.3 * (w == (1, 0, 1))

    return sf.LocallyConstantFunction.from_callable(golden, 3, value)


# ---------------------------------------------------------------- horseshoe

# Criterion-8 parameters except zeta = 0.22 (criterion 8 uses 0.15): n = 19
# instead of 21, a job of ~7 s instead of ~300 s, so that a run holds several.
HS_ETA, HS_ZETA, HS_NMAX, HS_SAMPLES, HS_MIXTURES = 0.15, 0.22, 40, 500, 50
# Recorded once from the seed code; build_multi_horseshoe does not use the seed.
HS_REFERENCE = {
    "n": 19,
    "anchor": 0,
    "sizes": [10299, 3324],
    "digest": "ec8311682304f154655d71b627b335db62f0170da78da4f3d24158a5131fabaa",
}


def word_set_digest(word_sets) -> str:
    text = repr([[tuple(int(a) for a in w) for w in ws] for ws in word_sets])
    return hashlib.sha256(text.encode()).hexdigest()


class Horseshoe:
    name = "horseshoe"
    job_s = 7.5

    def setup(self, seed: int, workdir: Path) -> dict:
        full2 = full_shift()
        roof = sf.LocallyConstantFunction(full2, 1, {(0,): 1.0, (1,): 2.0})
        return {
            "seed": seed,
            "sft": full2,
            "targets": [bernoulli(full2, [0.8, 0.2]), bernoulli(full2, [0.2, 0.8])],
            "system": sf.SuspensionSystem(full2, roof),
        }

    def ops(self, inp: dict, jobdir: Path) -> list:
        state = {}
        seed = inp["seed"]

        def build():
            pack = sf.build_multi_horseshoe(
                inp["sft"], inp["targets"], eta=HS_ETA, zeta=HS_ZETA, n_max=HS_NMAX, seed=seed
            )
            state["pack"] = pack
            got = {
                "n": pack.n,
                "anchor": pack.anchor,
                "sizes": [len(ws) for ws in pack.word_sets],
                "digest": word_set_digest(pack.word_sets),
            }
            check(got == HS_REFERENCE, f"pack {got} differs from reference")

        def certify():
            check("pack" in state, "no pack to certify")
            rep = sf.certify_pack(state["pack"], samples=HS_SAMPLES, seed=seed)
            flags = {
                "transitive": rep["condition1"]["transitive"],
                "disjoint": rep["condition1"]["disjoint"],
                "all_positive": rep["condition2"]["all_positive"],
                "condition3": rep["condition3"]["pass"],
                "pass": rep["pass"],
            }
            check(all(flags.values()), f"flags {flags}")
            est = rep["condition3"]["hausdorff_estimate"]
            check(est < HS_ZETA, f"hausdorff_estimate {est} >= zeta")

        def lift():
            check("pack" in state, "no pack to lift")
            rep = sf.lift_pack_to_flow(inp["system"], state["pack"], mixtures=HS_MIXTURES, seed=seed)
            flags = {
                "all_margins_positive": rep["all_margins_positive"],
                "reweighting": rep["reweighting"]["pass"],
                "pass": rep["pass"],
            }
            check(all(flags.values()), f"flags {flags}")

        return [("build", build), ("certify", certify), ("lift", lift)]


# ------------------------------------------------------------ spectrum-grid

GRID_POINTS = 41
BETA_GRID = (-2.0, 2.0)
FLOW_ALPHAS = (0.04, 0.10, 0.16, 0.22, 0.28)  # criterion 9
# The memory-7 table is a fixed N(0,1) draw plus a small seed-drawn jitter.
# A table drawn afresh per seed changes the grid's cost by up to 1.8x
# between seeds (the spectral gap near the edges of L_g is random), which no
# run-to-run bound could absorb; the jitter still gives every seed its own
# inputs.
G7_BASE_SEED, G7_JITTER = 0, 0.05


class SpectrumGrid:
    """Each grid point is one CLI call with a one-point grid, so per-point
    latency is seen from outside; the values are those of the 41-point grid."""

    name = "spectrum-grid"
    job_s = 25.0

    def setup(self, seed: int, workdir: Path) -> dict:
        full2, golden = full_shift(), golden_shift()
        words7 = sf.admissible_words(full2, 7)
        base = np.random.default_rng(G7_BASE_SEED).standard_normal(len(words7))
        jitter = np.random.default_rng(seed).standard_normal(len(words7))
        table = base + G7_JITTER * jitter
        g7 = sf.LocallyConstantFunction(full2, 7, {w: float(v) for w, v in zip(words7, table)})
        g3 = golden_g3(golden)
        roof = sf.LocallyConstantFunction(golden, 1, {(0,): 1.0, (1,): 2.0})
        phi = sf.LocallyConstantFunction.indicator(golden, (1,))
        files = {
            "full2": write_doc(workdir / "full2.json", full2.to_json()),
            "g7": write_doc(workdir / "g7.json", g7.to_json()),
            "golden": write_doc(workdir / "golden.json", golden.to_json()),
            "g3": write_doc(workdir / "g3.json", g3.to_json()),
            "system": write_doc(workdir / "system.json", sf.SuspensionSystem(golden, roof).to_json()),
            "phi": write_doc(workdir / "phi.json", phi.to_json()),
        }
        ranges = {"full2": sf.birkhoff_range(full2, g7), "golden": sf.birkhoff_range(golden, g3)}
        return {"files": files, "ranges": ranges}

    def ops(self, inp: dict, jobdir: Path) -> list:
        files = inp["files"]
        groups = []
        for shift, gname in (("full2", "g7"), ("golden", "g3")):
            lg = inp["ranges"][shift]
            spectrum, pressure = [], []
            for i, a in enumerate(np.linspace(lg.lo, lg.hi, GRID_POINTS)):
                edge = i in (0, GRID_POINTS - 1)
                op_id = f"{shift}-spectrum-{i:02d}"
                spectrum.append((op_id, self._spectrum(files[shift], files[gname], float(a), edge,
                                                       jobdir / f"{op_id}.csv")))
            for i, b in enumerate(np.linspace(*BETA_GRID, GRID_POINTS)):
                op_id = f"{shift}-pressure-{i:02d}"
                pressure.append((op_id, self._pressure(files[shift], files[gname], float(b),
                                                       jobdir / f"{op_id}.csv")))
            groups += [spectrum, pressure]
        flow = [(f"golden-flow-{i}", self._flow(files, a, jobdir / f"golden-flow-{i}.json"))
                for i, a in enumerate(FLOW_ALPHAS)]
        return interleave(groups + [flow])

    @staticmethod
    def _point(value: float) -> str:
        return f"{value!r}:{value!r}:1"

    def _spectrum(self, sft, g, alpha, edge, out):
        def op():
            run_cli_ok(["spectrum", "--sft", sft, "--g", g, f"--alpha-grid={self._point(alpha)}",
                        "--jobs", "1", "--out", out])
            (row,) = read_csv_rows(out)
            if edge:
                check(row["status"] == "boundary", f"endpoint status {row['status']!r}")
                return
            if not row["H"]:
                raise OpFailure(f"refused: {row['status']}", wrong=False)
            mean_gap = abs(float(row["witness_mean"]) - alpha)
            h_gap = abs(float(row["witness_entropy"]) - float(row["H"]))
            check(mean_gap <= 1e-9, f"|witness_mean - alpha| = {mean_gap:.3g}")
            check(h_gap <= 1e-8, f"|witness_entropy - H| = {h_gap:.3g}")

        return op

    def _pressure(self, sft, g, beta, out):
        def op():
            run_cli_ok(["pressure", "--sft", sft, "--g", g, f"--beta-grid={self._point(beta)}",
                        "--jobs", "1", "--out", out])
            (row,) = read_csv_rows(out)
            gap = abs(float(row["P"]) - (float(row["entropy"]) + beta * float(row["mean"])))
            check(gap <= 1e-9, f"|P - (entropy + beta mean)| = {gap:.3g}")

        return op

    def _flow(self, files, alpha, out):
        def op():
            run_cli_ok(["flow-spectrum", "--system", files["system"], "--phi", files["phi"],
                        "--alpha", repr(alpha), "--out", out])
            doc = json.loads(out.read_text())
            ratio_gap = abs(doc["witness_ratio"] - alpha)
            s_gap = abs(doc["witness_flow_entropy"] - doc["s"])
            check(ratio_gap <= 1e-9, f"|witness_ratio - alpha| = {ratio_gap:.3g}")
            check(s_gap <= 1e-8, f"|witness_flow_entropy - s| = {s_gap:.3g}")

        return op


# ------------------------------------------------------------------ witness

WITNESS_PER_FAMILY = 12
# Every (alpha, c) pair of the grid, fixed rather than drawn: which of these
# requests are refused depends on alpha, so a drawn alpha would make the
# failure count depend on the seed.
MU0_ALPHAS = (0.26, 0.30, 0.34)
MU0_LEVELS = (0.3, 0.4, 0.5)
MU0_ZETA = 0.1
BIRKHOFF_2D_TARGETS = ((0.5, 0.25), (0.4, 0.2), (0.3, 0.1), (0.6, 0.4), (0.5, 0.3))  # criterion 7
LOW_ENTROPY_REQUESTS = 3


class Witness:
    name = "witness"
    job_s = 12.0

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        full2, golden = full_shift(), golden_shift()
        g1 = sf.LocallyConstantFunction.indicator(full2, (1,))
        g11 = sf.LocallyConstantFunction.indicator(full2, (1, 1))
        g3 = golden_g3(golden)
        requests = []

        def intermediate(tag, sft, g):
            lg = sf.birkhoff_range(sft, g)
            for i in range(WITNESS_PER_FAMILY):
                alpha = lg.lo + rng.uniform(0.2, 0.8) * (lg.hi - lg.lo)
                H = sf.conditional_entropy_spectrum(sft, g, alpha).entropy
                c = rng.uniform(0.2, 0.8) * H
                requests.append((f"{tag}-{i:02d}", {
                    "kind": "intermediate", "sft": sft.to_json(), "g": g.to_json(),
                    "alpha": alpha, "c": c,
                }))

        intermediate("full2-intermediate", full2, g1)
        intermediate("golden-intermediate", golden, g3)
        mu0 = bernoulli(full2, [0.7, 0.3]).to_json()
        for i, (alpha, c) in enumerate(itertools.product(MU0_ALPHAS, MU0_LEVELS)):
            requests.append((f"full2-mu0-{i}", {
                "kind": "intermediate", "sft": full2.to_json(), "g": g1.to_json(),
                "alpha": alpha, "c": c, "mu0": mu0, "zeta": MU0_ZETA,
            }))
        for i, target in enumerate(BIRKHOFF_2D_TARGETS):
            requests.append((f"full2-birkhoff2d-{i}", {
                "kind": "birkhoff_2d", "sft": full2.to_json(), "g": g1.to_json(),
                "h": g11.to_json(), "alpha": list(target),
            }))
        for i in range(LOW_ENTROPY_REQUESTS):
            requests.append((f"full2-lowentropy-{i}", {
                "kind": "low_entropy_mean", "sft": full2.to_json(), "g": g1.to_json(),
                "alpha": rng.uniform(0.2, 0.8), "h_cap": rng.uniform(0.05, 0.2),
            }))
        return {"requests": [(rid, write_doc(workdir / f"{rid}.request.json", req))
                             for rid, req in requests]}

    def ops(self, inp: dict, jobdir: Path) -> list:
        def make(rid, req):
            def op():
                measure = jobdir / f"{rid}.witness.json"
                verdict = jobdir / f"{rid}.verify.json"
                run_cli_ok(["witness", "--request", req, "--out", measure])
                code, _, err = run_cli(["verify", "--measure", measure, "--out", verdict])
                check(code == 0, f"verify exit {code}: {err.strip()}")
                failed = [c["check"] for c in json.loads(verdict.read_text())["checks"] if not c["pass"]]
                check(not failed, f"verify checks failed: {failed}")

            return op

        groups = {}
        for rid, req in inp["requests"]:
            groups.setdefault(rid.rsplit("-", 1)[0], []).append((rid, make(rid, req)))
        return interleave(groups.values())


# ------------------------------------------------------------------- lorenz

STRONG = dict(c=1.9, gamma=0.78, a=-0.5, b=-0.25, lambdas=(-3.0, -1.0, 2.0))  # criterion 10
WEAK = dict(c=1.5, gamma=0.8, a=-0.5, b=-0.25, lambdas=(-3.0, -1.0, 2.0))
ORBITS, ORBIT_STEPS = 4, 10**5


class Lorenz:
    name = "lorenz"
    job_s = 10.0

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        starts = [
            (float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.95)), float(rng.uniform(-0.9, 0.9)))
            for _ in range(ORBITS)
        ]
        return {"strong": sf.LorenzModel(**STRONG), "weak": sf.LorenzModel(**WEAK), "starts": starts}

    def ops(self, inp: dict, jobdir: Path) -> list:
        def validate_strong():
            rep = sf.validate_lorenz(inp["strong"])
            failed = [e["constraint"] for e in rep["entries"] if not e["pass"]]
            check(rep["pass"] and not failed, f"strong model failed {failed}")

        def validate_weak():
            rep = sf.validate_lorenz(inp["weak"])
            failed = [e["constraint"] for e in rep["entries"] if not e["pass"]]
            check(failed == ["expansion f'(x)>sqrt(2)"] and not rep["pass"], f"weak model failed {failed}")

        def orbit(x0, y0):
            def op():
                model = inp["strong"]
                traj = sf.simulate_return_map(model, x0, y0, ORBIT_STEPS)
                stats = sf.empirical_statistics(traj, lambda x, y: x)
                n = len(traj)
                check(n == ORBIT_STEPS + 1 or (traj.halted and n <= ORBIT_STEPS + 1), f"length {n}")
                step_gap = float(np.abs(model.f(traj.xs[:-1]) - traj.xs[1:]).max())
                fiber_gap = float(np.abs(model.H(traj.xs[:-1], traj.ys[:-1]) - traj.ys[1:]).max())
                check(step_gap <= 1e-12 and fiber_gap <= 1e-12, f"orbit off the map by {max(step_gap, fiber_gap):.3g}")
                check(np.array_equal(traj.itinerary, (traj.xs > 0).astype(int)), "itinerary mismatch")
                check(math.isclose(stats.mean, float(traj.xs.mean()), rel_tol=0, abs_tol=1e-12), "mean mismatch")

            return op

        ops = [("validate-strong", validate_strong), ("validate-weak", validate_weak)]
        ops += [(f"orbit-{i}", orbit(x0, y0)) for i, (x0, y0) in enumerate(inp["starts"])]
        return ops


WORKLOADS = {w.name: w for w in (Horseshoe(), SpectrumGrid(), Witness(), Lorenz())}
