#!/usr/bin/env python3
"""Track the density mismatch between the quantum-pole hydrodynamic
evolution and the linear amplitude evolution for a nodeless Gaussian in a
harmonic trap (the local/global equivalence in numbers).

    python scripts/equivalence_demo.py --t-final 1.0 --n 1201
"""

import argparse
import sys

import numpy as np

from varq import hydrodynamics as hy
from varq import mechanics as mech
from varq import wavefunction as wv
from varq.numerics import build_grid
from varq.potentials import harmonic


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=1201)
    ap.add_argument("--t-final", type=float, default=1.0)
    ap.add_argument("--displacement", type=float, default=0.2)
    ap.add_argument("--checkpoints", type=int, default=8)
    ap.add_argument("--out", default="equivalence.csv")
    args = ap.parse_args()

    pot = harmonic(1.0)
    spec = mech.NaturalSystemSpec(mass=1.0, potential=pot.v, potential_grad=pot.dv)
    dspec = hy.DiffusionSpec(a=1.0)
    grid = build_grid(-8.0, 8.0, args.n)
    q = grid.nodes
    rho0 = mech.normalize_density(grid, np.exp(-((q - args.displacement) ** 2)))
    state = hy.HydroState(grid, rho0, np.zeros(grid.n))
    wf = wv.WaveFunction(grid, wv.normalize_wavefunction(grid, np.sqrt(rho0).astype(complex)), 1.0)

    dt_m = 0.25 * grid.h**2
    dt_s = 1e-3
    rows = []
    t_prev = 0.0
    for i in range(1, args.checkpoints + 1):
        tc = args.t_final * i / args.checkpoints
        state = hy.madelung_run(spec, dspec, state, tc - t_prev, dt_m)
        wf = wv.schrodinger_evolve(spec, wf, dt_s, max(1, int(round((tc - t_prev) / dt_s))))
        diff = float(np.max(np.abs(state.rho - wf.rho)))
        rows.append((tc, diff))
        print(f"t = {tc:5.3f}: Linf(rho_hydro - rho_psi) = {diff:.3e}")
        t_prev = tc

    with open(args.out, "w") as fh:
        fh.write("t,linf_rho_diff\n")
        for row in rows:
            fh.write(",".join(format(x, ".17g") for x in row) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
