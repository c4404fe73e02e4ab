"""Why recorded runs stay bounded: coupling, contraction weights, trackers.

Three diagnostics on one recorded Q-learning run:

1. Coupled lower process.  Replaying the run's own stepsizes, samples, and
   delays with the maximizer pinned to a fixed policy produces a second
   table that the main iterates dominate pathwise, component by component.
   A fixed proper policy makes that process a contraction, so the main run
   is bounded below.

2. Contraction certificate.  For a proper fixed policy the pinned Q-backup
   contracts in a weighted sup-norm; the weights come from an auxiliary
   all-costs-minus-one problem and the modulus is printed along with an
   empirical check on random table pairs.

3. Empirical trackers.  Stepsize-weighted running estimates of stage costs
   and transition frequencies converge to the model quantities, with the
   frequency estimates supported inside the true kernel at every step.
"""

import numpy as np

import sspg

m = sspg.generate_model(
    sspg.GeneratorConfig(n_states=3, max_controls=2, termination_floor=0.12,
                         cost_range=(0.0, 1.0), seed=33)
)
cfg = sspg.QLearnConfig(seed=2, max_iters=80_000, scheduler="uniform-random:1",
                        delay_model=("uniform", 4), record_full_history=True,
                        metric_interval=80_000)
q, run = sspg.run_qlearning(m, cfg)
print(f"recorded run: {len(run.events)} events, max|Q_t| = {run.max_abs_q:.3f}")

nu = sspg.uniform_policy(m, 2)
print("\n1. coupled lower process (maximizer pinned to uniform):")
rep = sspg.run_coupled_lower_process(m, nu, run)
print(f"   violations of Q >= Q^: {len(rep.violations)}")
print(f"   min margin per component: {np.round(rep.min_margin, 4)}")
print(f"   final gap Q - Q^: {np.round(q - rep.qhat_final, 4)}")

print("\n2. contraction certificate for the pinned backup:")
cert = sspg.build_contraction_certificate(m, nu)
print(f"   modulus beta = {cert.beta:.4f}, weights xi in [{cert.xi.min():.3f}, {cert.xi.max():.3f}]")
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(200):
    qa = rng.uniform(-5, 5, m.n_triplets)
    qb = rng.uniform(-5, 5, m.n_triplets)
    num = cert.weighted_norm(sspg.q_bellman_max_fixed(m, nu, qa) - sspg.q_bellman_max_fixed(m, nu, qb))
    worst = max(worst, num / cert.weighted_norm(qa - qb))
print(f"   worst empirical contraction factor over 200 random pairs: {worst:.4f} (<= beta)")

print("\n3. empirical trackers after the run:")
state = sspg.run_trackers(m, run)
print(f"   max |g_tilde - g| = {np.abs(state.g_tilde - m.g).max():.4f}")
print(f"   max |q_hat - p|   = {np.abs(state.q_hat - m.P).max():.4f}")
print("   sampled-frequency support contained in the kernel support at every step")
