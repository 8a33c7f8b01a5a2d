"""How one spurious prediction bleeds gradient into the rest of a batch
under a relation-matching loss, while a per-sample loss confines it.

One random row of a synthetic prediction matrix gets noise added; we
then look at how much every OTHER row's gradient norm changed.

Run:  python demos/05_gradient_diffusion_pilot.py
"""
import numpy as np

from vrm.diagnostics import PilotSpec, gradient_diffusion_pilot

B, D, T = 64, 16, 32

for kind in ("IM", "RM"):
    dg = gradient_diffusion_pilot(PilotSpec(B=B, D=D, t=T, c=1.0, seed=0, loss_kind=kind))
    off_target = np.abs(np.delete(dg, T))
    print(f"{kind}: |delta g| at the spurious row {abs(dg[T]):.2e}; "
          f"off-target median {np.median(off_target):.2e}, "
          f"max {off_target.max():.2e}")

print("\nper-sample losses are separable: off-target rows move exactly 0.")
print("relation losses connect every pair, so the perturbation diffuses.\n")

# the per-seed median off-target |delta g|, then the median over seeds, as
# `vrm pilot` writes it to its summary.csv
summary = {}
for kind in ("IM", "RM"):
    per_seed = []
    for seed in range(20):
        dg = gradient_diffusion_pilot(PilotSpec(B=B, D=D, t=T, c=1.0, seed=seed, loss_kind=kind))
        per_seed.append(np.median(np.abs(np.delete(dg, T))))
    summary[kind] = float(np.median(per_seed))
print("median off-target |delta g| across 20 seeds:")
for kind, value in summary.items():
    print(f"  {kind}: {value:.3e}")
ratio = summary["RM"] / max(summary["IM"], 1e-15)
print(f"  diffusion ratio RM/IM: {ratio:.2e}")
