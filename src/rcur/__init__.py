"""Randomized CUR-family decompositions for matrix pairs and triplets.

Library surface:

* :mod:`rcur.gsvd` — generalized SVD of a pair and its sketched variant,
* :mod:`rcur.gcur` — generalized CUR of a pair (deterministic / randomized),
* :mod:`rcur.rsvd` — restricted SVD of a triplet,
* :mod:`rcur.rsvd_cur` — CUR of a triplet driven by restricted-SVD factors,
* :mod:`rcur.selection` — DEIM and L-DEIM index selection,
* :mod:`rcur.synth` / :mod:`rcur.bench` — seeded generators and experiments.

Import each name from the module that defines it.
"""
