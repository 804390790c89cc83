"""End-to-end generalization run: planted data, box-constrained ERM, the
Monte Carlo complexity estimate and the certificate chain in one report.

Run:  python demos/05_generalization_experiment.py
"""

from chenfliess import generalization_experiment, report_to_json

config = {
    "system": "bilinear2d",
    "order": 5,
    "n_train": 200,
    "n_test": 200,
    "loss": "squared",
    "delta": 0.05,
    "n_controls": 128,
    "n_eps": 256,
    "seed": 7,
}

report = generalization_experiment(config)

print("generalization experiment on the builtin bilinear system")
print("=" * 60)
print(f"train risk          : {report['risks']['train']:.3e}")
print(f"test risk           : {report['risks']['test']:.3e}")
erm = report["erm"]
print(f"ERM solver          : {erm['solver']}, {erm['n_iter']} steps, "
      f"converged={erm['converged']}, KKT residual {erm['kkt_residual']:.1e}")
rad = report["empirical_rademacher"]
print(f"empirical complexity: {rad['estimate']:.5f} +/- {rad['stderr']:.5f}")
cert = report["certified"]
print(f"certified bound     : {cert['complexity_bound']:.5f}")
print(f"excess-risk bound   : {cert['excess_risk_bound']:.3f}")
print(f"checks              : {report['checks']}")
print()
print("The empirical estimate is a sampled sup (a lower estimate), so it")
print("sits below the certified bound; the test-train gap is orders of")
print("magnitude under the excess-risk certificate on this noiseless run.")
print()
print("Full report (reproducible byte for byte given the config):")
print(report_to_json(report))
