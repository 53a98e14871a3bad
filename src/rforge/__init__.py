"""Combinatorial reconfiguration toolkit.

Instance types, table verifiers among them, and feasibility checks
(`core`), exact bottleneck solvers with an independent oracle (`solve`),
the 2-factor cover approximation (`approx`), evaluation of table
verifiers (`verifier`), expander-walk acceptance amplification
(`amplify`), the squared-alphabet verifier-to-constraint-graph reduction
(`fglss`), gap-preserving reductions to set cover and hypergraph vertex
cover (`reductions`), seeded generators (`generate`), property-check
suites (`checks`), and a CLI (`cli`).  The package root re-exports
nothing: import each name from its module.
"""
