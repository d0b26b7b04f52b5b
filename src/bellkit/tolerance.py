"""Every numerical tolerance in bellkit, named once; messages quote some as text."""

#: Slack at a verdict threshold (2^N, a condition value of 1, a bound) and on [-1, 1];
#: a simplex pivot whose step is at most this is degenerate.
BOUND_TOL = 1e-9

#: Identities exact up to rounding: unit norm and trace, Hermiticity, weights summing to 1;
#: simplex ratios this close to the minimum tie for the lexicographic leaving rule.
EXACT_TOL = 1e-12

#: Lowest eigenvalue a density matrix may have.
PSD_TOL = 1e-10

#: A restart of the plane sweeps or the see-saw stops once a sweep gains at most this.
SWEEP_TOL = 1e-10

#: Norms this small count as zero.
ZERO_TOL = 1e-14

#: How far alpha may stray outside [0, pi/4], so that 0.7854 passes.
ALPHA_SLACK = 1e-4
