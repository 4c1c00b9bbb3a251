"""Deterministic simulator for fair, differentially private federated learning.

Clients train locally and transmit model-update differences; the server clips
each update with a dual-threshold operator (a privacy bound S and a bias bound
M), averages, and adds Gaussian noise. The harness compares against a
centralized baseline and tracks per-group accuracy and a nominal privacy cost.
"""

__version__ = "0.1.0"
