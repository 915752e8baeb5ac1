"""
Multi-horseshoe certificates
============================

Build nested word-horseshoes whose measure sets approximate a convex family
of targets with small entropy loss (eta) and small measure distance (zeta),
then certify the three defining conditions and lift the whole certificate to
a suspension flow.

Small parameters here so the demo runs in under a second; tighten eta/zeta
to 0.15 for a production-scale certificate (block length 26, about 330k
words: a little over a minute on a 2-core desktop, most of it the build).
"""
import json

import numpy as np

from symflow.horseshoe import build_multi_horseshoe, certify_pack, lift_pack_to_flow
from symflow.measures import InvariantMeasure, MarkovComponent
from symflow.sft import Sft, LocallyConstantFunction
from symflow.suspension import SuspensionSystem


def bernoulli(sft, p):
    Q = np.tile(np.asarray(p, dtype=float), (len(p), 1))
    return InvariantMeasure.single(MarkovComponent(sft, 1, [(0,), (1,)], Q))


full2 = Sft(np.ones((2, 2), dtype=int))
targets = [bernoulli(full2, [0.75, 0.25]), bernoulli(full2, [0.25, 0.75])]

pack = build_multi_horseshoe(full2, targets, eta=0.5, zeta=0.4, n_max=16, seed=0)
print(f"pack: block length n={pack.n}, anchor symbol {pack.anchor}, "
      f"word set sizes {[len(w) for w in pack.word_sets]}")
print("horseshoe entropies:", pack.entropies())
print("target entropies:   ", [m.entropy() for m in pack.measures])
print()

report = certify_pack(pack, samples=100, seed=0)
print("condition 1 (transitive, disjoint):",
      report["condition1"]["transitive"], report["condition1"]["disjoint"])
print("condition 2 entropy margins:", report["condition2"]["margins"])
print("condition 3 Hausdorff estimate:",
      report["condition3"]["hausdorff_estimate"], "vs zeta", pack.zeta)
print("certificate pass:", report["pass"])
print()

roof = LocallyConstantFunction(full2, 1, {(0,): 1.0, (1,): 2.0})
flow = lift_pack_to_flow(SuspensionSystem(full2, roof), pack, mixtures=20, seed=0)
print("flow entropies of the lifted horseshoes:", flow["flow_horseshoe_entropies"])
print("flow margins:", flow["margins"])
print("mixture reweighting identity gap:", flow["reweighting"]["max_identity_gap"])
print("flow lift pass:", flow["pass"])
print()

# Packs are plain JSON documents: storable, diffable, re-certifiable.
doc = pack.to_json()
print("serialized pack:", len(json.dumps(doc)), "bytes of JSON")
