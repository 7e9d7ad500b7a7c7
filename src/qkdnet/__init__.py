"""Reconfigurable three-node MDI/QKD network simulator and finite-key toolkit.

Simulates or ingests detection-count tables for a two-fiber, three-party
network that switches between relay (measurement-device-independent) and
point-to-point QKD sessions, computes decoy-state single-photon bounds and
secure key lengths, and distils quantum digital signatures with
multiple signatures drawn from one data block.
"""

__version__ = "0.1.0"
