"""A finite model of the rotation algebra, plus its commutative leg.

Two generators on an n-point circle: the cyclic shift u and the diagonal
of n-th roots of unity z, which commute up to the phase e^{2 pi i k/n}.
The crossed-product machinery factors elements of this model through a
single matrix algebra; the commutative part (functions on the circle) is
handled separately by blending point evaluations with a partition of
unity, with the error controlled by arc oscillation.
"""

from lpalg import circle_function, circle_partition, partition_roundtrip, rotation_demo

report = rotation_demo(12, 5, 1.5, 0.3)
model = report["model"]
print(f"model: n={model['n']} points, k={model['k']} steps,"
      f" angle theta = {model['theta_model']:.6f}")
print(f"commutation defect |uz - phase zu|: {report['commutation_dev']:.3e}")
print("witness round-trip errors:",
      [entry["roundtrip_error"] for entry in report["witness"]["elements"]])
part = report["partition"]
print(f"partition leg: {part['n_points']} points, {part['n_arcs']} arcs,"
      f" error {part['roundtrip_error']:.6f} <= bound {part['oscillation_bound']:.6f}")
print(f"all checks passed: {report['passed']}")
print()

print("partition of unity on 64 points, 8 arcs: blend errors vs oscillation bounds")
partition = circle_partition(64, 8)
for name in ("one", "z", "z2", "re_z"):
    rt = partition_roundtrip(partition, circle_function(name, 64))
    print(f"  {name:>4}: error {rt['error']:.12f}  bound {rt['bound']:.12f}")
