"""
Partition-of-unity solve of the square_sine benchmark.

The driver splits the coarse mesh into four subdomains by error content,
refines and solves each subdomain independently, one after another, then
blends the local solutions with tapered partition-of-unity weights on the
union mesh.
"""
import os

from afem.config import RunConfig
from afem.driver import run_ppum

out = os.path.join(os.path.dirname(__file__), "out", "ppum_partition")
rep = run_ppum(RunConfig(problem="square_sine", mesh_n=4, max_vertices=800,
                         ppum_subdomains=4, out=out))

print("level  vertices  simplices  eta_total   H1 error")
for r in rep.levels:
    print(f"{r.level:5d}  {r.n_vertices:8d}  {r.n_simplices:9d}"
          f"  {r.eta_total:9.4f}  {r.h1_error:9.5f}")
print(f"status: {rep.status}")
print(f"partition-of-unity sum deviation: {rep.extras['ppum']['pou_sum_deviation']:.2e}")
print(f"max subdomains covering a point:  {rep.extras['ppum']['max_cover']}")
print(f"outputs under {out}: levels.csv, report.json, blend.vtk, sub0..sub3/mesh.txt")
