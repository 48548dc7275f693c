"""The paper's case studies (Section 5).

Import the submodules directly (``repro.casestudies.dds``,
``repro.casestudies.rcs``): the package loads none of them, so
``python -m repro.casestudies.dds`` runs the module exactly once, as
``__main__``.
"""
